"""Campaign sizes and limits are bounded before they are used.

A REST campaign is counted arithmetically before a cell is built, so an
oversized spec is a quick 400 on both ``POST /campaigns`` and
``POST /campaigns/serve``; a cell's memory or CPU budget past what an
rlimit can hold is no limit rather than an ``OverflowError``.
"""

import resource
import time

import pytest

from repro.campaign import CampaignSpec, run_cell
from repro.campaign.runner import resource_guard
from repro.rest.api import build_campaign_api
from repro.rest.campaigns import MAX_REST_CELLS


def _spec(repeats=1, **extra):
    return {
        "name": "bounds",
        "families": [{"family": "reversal", "sizes": [6], "repeats": repeats}],
        "schedulers": ["peacock"],
        **extra,
    }


@pytest.fixture
def api(tmp_path):
    return build_campaign_api(campaign_root=str(tmp_path))


def _post(api, path, body):
    """One request under a 256 MiB growth budget: a server that expands
    the spec first fails here instead of exhausting the host."""
    started = time.perf_counter()
    with resource_guard(mem_limit_mb=256):
        response = api.handle("POST", path, body)
    assert time.perf_counter() - started < 1.0
    return response


class TestCellCount:
    @pytest.mark.parametrize("spec", [
        _spec(),
        _spec(repeats=3),
        {
            "name": "mixed",
            "families": [
                {"family": "reversal", "sizes": [6, 8], "repeats": 2},
                {"family": "sawtooth", "sizes": [8, 12],
                 "grid": {"block": [2, 3, 4]}, "schedulers": ["wayup"]},
                {"family": "random-update", "sizes": [8],
                 "grid": {"overlap": [0.2, 0.5], "waypoint": [False, True]}},
                {"family": "crossing"},
            ],
            "schedulers": ["peacock", "greedy-slf"],
        },
    ])
    def test_counts_what_expand_builds(self, spec):
        parsed = CampaignSpec.from_dict(spec)
        assert parsed.cell_count() == len(parsed.expand())


class TestRestCap:
    @pytest.mark.parametrize("wrap", [
        lambda spec: spec,
        lambda spec: {"spec": spec},
    ], ids=["bare", "wrapped"])
    def test_a_billion_repeats_is_a_quick_400(self, api, wrap):
        response = _post(api, "/campaigns", wrap(_spec(repeats=10**9)))
        assert response.status == 400
        assert "1000000000 cells" in response.body["error"]

    def test_serve_has_the_same_cap(self, api):
        response = _post(api, "/campaigns/serve", {"spec": _spec(repeats=10**9)})
        assert response.status == 400
        assert f"at most {MAX_REST_CELLS}" in response.body["error"]
        just_over = _post(api, "/campaigns/serve",
                          {"spec": _spec(repeats=MAX_REST_CELLS + 1)})
        assert just_over.status == 400
        assert api.handle("GET", "/campaigns/fabric").body == {"campaigns": []}

    def test_serve_within_the_cap_stands_up(self, api):
        response = api.handle("POST", "/campaigns/serve", {"spec": _spec()})
        assert response.status == 200, response.body
        api.campaigns.close()


class TestUnboundedBudgets:
    @pytest.mark.parametrize("limits", [
        {"mem_limit_mb": 2**70},
        {"cpu_limit_s": 2**70},
        {"mem_limit_mb": 1e308, "cpu_limit_s": 1e308},
    ])
    def test_a_budget_past_any_rlimit_is_no_limit(self, limits):
        before = [resource.getrlimit(which)
                  for which in (resource.RLIMIT_AS, resource.RLIMIT_CPU)]
        ran = False
        with resource_guard(**limits):
            ran = True
            assert [resource.getrlimit(which) for which in
                    (resource.RLIMIT_AS, resource.RLIMIT_CPU)] == before
        assert ran

    def test_the_cell_runs(self):
        cell = CampaignSpec.from_dict(
            _spec(mem_limit_mb=2**70, cpu_limit_s=2**70)).expand()[0]
        record, _ = run_cell(cell.payload())
        assert record["status"] == "ok", record
