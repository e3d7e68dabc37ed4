"""Tests for campaign specs: validation, expansion, deterministic seeding."""

import pytest

from repro.campaign import CampaignSpec, derive_seed
from repro.campaign.families import build_unit, single_problem
from repro.core.registry import parse_properties, resolve_scheduler
from repro.core.verify import Property
from repro.errors import CampaignSpecError, SchedulerSpecError

BASIC = {
    "name": "basic",
    "seed": 5,
    "families": [
        {"family": "reversal", "sizes": [6, 8]},
        {"family": "random-update", "sizes": [8], "repeats": 3},
    ],
    "schedulers": ["peacock", "oneshot"],
}


class TestValidation:
    def test_roundtrip(self):
        spec = CampaignSpec.from_dict(BASIC)
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.spec_hash == spec.spec_hash
        assert again.campaign_id == spec.campaign_id

    @pytest.mark.parametrize("mutation", [
        {"families": []},
        {"schedulers": []},
        {"families": [{"family": "no-such-family", "sizes": [5]}]},
        {"schedulers": ["no-such-scheduler"]},
        {"schedulers": ["combined:nope"]},
        {"families": [{"family": "reversal", "sizes": [2]}]},  # below min size
        {"families": [{"family": "reversal", "sizes": []}]},
        {"families": [{"family": "reversal", "sizes": [6], "bogus": 1}]},
        {"families": [{"family": "reversal", "sizes": [6],
                       "params": {"bogus": 1}}]},
        {"families": [{"family": "fat-tree", "sizes": [3]}]},  # odd arity
        {"seed": "not-an-int"},
        {"timeout_s": -1},
        {"version": 999},
        {"bogus_key": 1},
    ])
    def test_rejects_bad_specs(self, mutation):
        with pytest.raises(CampaignSpecError):
            CampaignSpec.from_dict({**BASIC, **mutation})

    def test_duplicate_family_entries_rejected_at_expand(self):
        spec = CampaignSpec.from_dict({
            **BASIC,
            "families": [
                {"family": "reversal", "sizes": [6]},
                {"family": "reversal", "sizes": [6]},
            ],
        })
        with pytest.raises(CampaignSpecError):
            spec.expand()

    def test_same_family_distinct_params_coexist(self):
        spec = CampaignSpec.from_dict({
            **BASIC,
            "families": [
                {"family": "random-update", "sizes": [10],
                 "params": {"overlap": 0.2}},
                {"family": "random-update", "sizes": [10],
                 "params": {"overlap": 0.8}},
            ],
        })
        cells = spec.expand()
        assert len(cells) == 4
        assert len({cell.cell_id for cell in cells}) == 4
        assert cells[0].seed != cells[2].seed  # different params, new seed


class TestExpansion:
    def test_cell_count_and_order(self):
        spec = CampaignSpec.from_dict(BASIC)
        cells = spec.expand()
        # (2 sizes + 1 size * 3 repeats) * 2 schedulers
        assert len(cells) == 10
        assert [cell.index for cell in cells] == list(range(10))
        assert cells[0].cell_id == "reversal-n6-r0@peacock"
        assert cells[1].cell_id == "reversal-n6-r0@oneshot"
        assert len({cell.cell_id for cell in cells}) == len(cells)

    def test_grid_cross_product(self):
        spec = CampaignSpec.from_dict({
            "name": "grid",
            "families": [{
                "family": "sawtooth",
                "sizes": [10, 14],
                "grid": {"block": [2, 4, 8]},
            }],
            "schedulers": ["peacock"],
        })
        cells = spec.expand()
        assert len(cells) == 6
        assert {cell.params["block"] for cell in cells} == {2, 4, 8}
        assert "sawtooth-block4-n10-r0@peacock" in {c.cell_id for c in cells}

    def test_per_entry_scheduler_override(self):
        spec = CampaignSpec.from_dict({
            "name": "override",
            "families": [
                {"family": "reversal", "sizes": [6]},
                {"family": "reversal", "sizes": [8],
                 "schedulers": ["optimal:rlf"]},
            ],
            "schedulers": ["peacock"],
        })
        schedulers = [cell.scheduler for cell in spec.expand()]
        assert schedulers == ["peacock", "optimal:rlf"]

    def test_seed_ignores_scheduler_but_not_repeat(self):
        spec = CampaignSpec.from_dict(BASIC)
        cells = spec.expand()
        by_id = {cell.cell_id: cell for cell in cells}
        assert (
            by_id["random-update-n8-r0@peacock"].seed
            == by_id["random-update-n8-r0@oneshot"].seed
        )
        assert (
            by_id["random-update-n8-r0@peacock"].seed
            != by_id["random-update-n8-r1@peacock"].seed
        )

    def test_campaign_seed_changes_cell_seeds(self):
        seeds_a = [c.seed for c in CampaignSpec.from_dict(BASIC).expand()]
        seeds_b = [
            c.seed
            for c in CampaignSpec.from_dict({**BASIC, "seed": 6}).expand()
        ]
        assert seeds_a != seeds_b

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)


class TestFamilies:
    def test_random_update_deterministic_per_seed(self):
        a = single_problem("random-update", 10, {}, 1234)
        b = single_problem("random-update", 10, {}, 1234)
        c = single_problem("random-update", 10, {}, 1235)
        assert a.old_path == b.old_path and a.new_path == b.new_path
        assert (a.old_path, a.new_path) != (c.old_path, c.new_path)

    def test_fat_tree_paths_share_endpoints(self):
        problem = single_problem("fat-tree", 4, {}, 99)
        assert problem.old_path.source == problem.new_path.source
        assert problem.old_path != problem.new_path

    def test_multipolicy_batch_is_isolated_and_mixed(self):
        unit = build_unit("multipolicy", 8, {"policies": 4}, 7)
        assert unit.batch and len(unit.problems) == 4
        node_sets = [set(p.nodes) for p in unit.problems]
        for i, nodes in enumerate(node_sets):
            for other in node_sets[i + 1:]:
                assert not (nodes & other)
        waypointed = [p.waypoint is not None for p in unit.problems]
        assert any(waypointed) and not all(waypointed)

    def test_single_problem_rejects_batch_family(self):
        with pytest.raises(CampaignSpecError):
            single_problem("multipolicy", 8, {}, 1)


class TestSchedulers:
    def test_combined_parses_properties(self):
        definition = resolve_scheduler("combined:wpe+rlf+blackhole")
        assert definition.requires_waypoint

    def test_parse_properties(self):
        assert parse_properties("slf+blackhole") == (
            Property.SLF, Property.BLACKHOLE,
        )
        with pytest.raises(SchedulerSpecError):
            parse_properties("bogus")
        # a spec re-types the registry's error as its own
        with pytest.raises(CampaignSpecError, match="unknown properties"):
            CampaignSpec.from_dict({**BASIC, "properties": ["bogus"]})

    def test_unknown_scheduler(self):
        with pytest.raises(SchedulerSpecError):
            resolve_scheduler("optimal:")
        with pytest.raises(CampaignSpecError, match="empty property list"):
            CampaignSpec.from_dict({**BASIC, "schedulers": ["optimal:"]})
