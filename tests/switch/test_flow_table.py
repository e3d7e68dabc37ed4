"""Tests for flow-table semantics (add/modify/delete, lookup, timeouts)."""

import pytest

from repro.errors import SwitchError, TableFullError
from repro.openflow.constants import FlowModCommand, FlowModFlags, FlowRemovedReason
from repro.openflow.flowmod import FlowMod, add_flow, delete_flow, flow_entry
from repro.openflow.match import Match
from repro.switch.flow_table import FlowTable, matches_overlap


@pytest.fixture
def table():
    return FlowTable(table_id=0, capacity=100)


class TestAdd:
    def test_add_and_lookup(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2))
        entry = table.lookup({"in_port": 1})
        assert entry is not None
        assert entry.instructions[0].actions[0].port == 2

    def test_add_replaces_same_match_priority(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2, priority=5))
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=9, priority=5))
        assert len(table) == 1
        assert table.lookup({"in_port": 1}).instructions[0].actions[0].port == 9

    def test_different_priority_coexists(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2, priority=5))
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=9, priority=6))
        assert len(table) == 2

    def test_capacity_enforced(self):
        small = FlowTable(capacity=2)
        small.apply_flow_mod(add_flow(Match(in_port=1), out_port=1))
        small.apply_flow_mod(add_flow(Match(in_port=2), out_port=1))
        with pytest.raises(TableFullError):
            small.apply_flow_mod(add_flow(Match(in_port=3), out_port=1))

    def test_replace_does_not_hit_capacity(self):
        small = FlowTable(capacity=1)
        small.apply_flow_mod(add_flow(Match(in_port=1), out_port=1))
        small.apply_flow_mod(add_flow(Match(in_port=1), out_port=2))
        assert len(small) == 1

    def test_overlap_check(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=1, priority=5))
        overlapping = add_flow(Match(eth_type=0x0800), out_port=2, priority=5)
        overlapping = FlowMod(
            command=overlapping.command,
            match=overlapping.match,
            priority=5,
            instructions=overlapping.instructions,
            flags=int(FlowModFlags.CHECK_OVERLAP),
        )
        with pytest.raises(SwitchError, match="overlap"):
            table.apply_flow_mod(overlapping)

    def test_overlap_check_different_priority_ok(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=1, priority=5))
        fine = FlowMod(
            match=Match(eth_type=0x0800),
            priority=6,
            flags=int(FlowModFlags.CHECK_OVERLAP),
        )
        table.apply_flow_mod(fine)  # must not raise


class TestLookup:
    def test_priority_order(self, table):
        table.apply_flow_mod(add_flow(Match(), out_port=1, priority=1))
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2, priority=10))
        entry = table.lookup({"in_port": 1})
        assert entry.priority == 10
        entry = table.lookup({"in_port": 2})
        assert entry.priority == 1

    def test_counters_touched(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2))
        entry = table.lookup({"in_port": 1}, now=5.0, n_bytes=100)
        table.lookup({"in_port": 1}, now=6.0, n_bytes=50)
        assert entry.packet_count == 2
        assert entry.byte_count == 150
        assert entry.last_match_time == 6.0

    def test_miss_returns_none(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2))
        assert table.lookup({"in_port": 7}) is None

    def test_tie_break_is_first_installed(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=1, priority=5))
        table.apply_flow_mod(add_flow(Match(eth_type=0x0800), out_port=2, priority=5))
        entry = table.lookup({"in_port": 1, "eth_type": 0x0800})
        assert entry.instructions[0].actions[0].port == 1


class TestModify:
    def test_nonstrict_modify_subsumed(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1, eth_type=0x0800), out_port=2))
        table.apply_flow_mod(
            flow_entry(
                {"dpid": 1, "command": "MODIFY", "match": {"in_port": 1},
                 "actions": [{"type": "OUTPUT", "port": 7}]},
                FlowModCommand.ADD,
            )[1]
        )
        assert table.lookup({"in_port": 1, "eth_type": 0x0800}).instructions[0].actions[0].port == 7

    def test_strict_modify_needs_exact_identity(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2, priority=5))
        table.apply_flow_mod(
            flow_entry(
                {"dpid": 1, "command": "MODIFY_STRICT", "priority": 6,
                 "match": {"in_port": 1}, "actions": [{"type": "OUTPUT", "port": 7}]},
                FlowModCommand.ADD,
            )[1]
        )
        # wrong priority: unchanged
        assert table.lookup({"in_port": 1}).instructions[0].actions[0].port == 2


class TestDelete:
    def test_nonstrict_delete_subsumed(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1, eth_type=0x0800), out_port=2))
        table.apply_flow_mod(add_flow(Match(in_port=2), out_port=2))
        removed = table.apply_flow_mod(delete_flow(Match(in_port=1)))
        assert len(removed) == 1
        assert len(table) == 1

    def test_wildcard_delete_clears_table(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2))
        table.apply_flow_mod(add_flow(Match(in_port=2), out_port=2))
        removed = table.apply_flow_mod(delete_flow(Match()))
        assert len(removed) == 2 and len(table) == 0

    def test_strict_delete_exact(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2, priority=5))
        removed = table.apply_flow_mod(
            delete_flow(Match(in_port=1), priority=6, strict=True)
        )
        assert not removed and len(table) == 1
        removed = table.apply_flow_mod(
            delete_flow(Match(in_port=1), priority=5, strict=True)
        )
        assert len(removed) == 1 and len(table) == 0

    def test_delete_filtered_by_out_port(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2))
        table.apply_flow_mod(add_flow(Match(in_port=2), out_port=3))
        _, mod = flow_entry({"dpid": 1, "match": {}}, FlowModCommand.DELETE)
        mod = FlowMod(command=mod.command, match=mod.match, out_port=3)
        removed = table.apply_flow_mod(mod)
        assert len(removed) == 1
        assert removed[0].match.in_port == 2

    def test_cookie_mask_filter(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2, cookie=0xA))
        table.apply_flow_mod(add_flow(Match(in_port=2), out_port=2, cookie=0xB))
        mod = FlowMod(command=3, match=Match(), cookie=0xA, cookie_mask=0xFF)
        removed = table.apply_flow_mod(mod)
        assert len(removed) == 1 and removed[0].cookie == 0xA


class TestTimeouts:
    def test_hard_timeout(self, table):
        table.apply_flow_mod(
            add_flow(Match(in_port=1), out_port=2, hard_timeout=10), now=0.0
        )
        assert table.lookup({"in_port": 1}, now=5_000.0) is not None
        assert table.lookup({"in_port": 1}, now=11_000.0) is None
        fired = table.expire(now=11_000.0)
        assert fired[0][1] is FlowRemovedReason.HARD_TIMEOUT

    def test_idle_timeout_reset_by_traffic(self, table):
        table.apply_flow_mod(
            add_flow(Match(in_port=1), out_port=2, idle_timeout=10), now=0.0
        )
        assert table.lookup({"in_port": 1}, now=8_000.0) is not None  # touches
        assert table.lookup({"in_port": 1}, now=17_000.0) is not None
        assert table.lookup({"in_port": 1}, now=30_000.0) is None
        fired = table.expire(now=30_000.0)
        assert fired[0][1] is FlowRemovedReason.IDLE_TIMEOUT

    def test_no_timeout_lives_forever(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2))
        assert table.lookup({"in_port": 1}, now=1e9) is not None

    def test_has_timeouts(self, table):
        table.apply_flow_mod(add_flow(Match(in_port=1), out_port=2))
        assert not table.has_timeouts()
        table.apply_flow_mod(add_flow(Match(in_port=2), out_port=2, hard_timeout=5))
        assert table.has_timeouts()


class TestVersion:
    """Every FlowMod bumps the version, whatever it changed; so does an
    expiry that removed something; lookups never do."""

    def test_every_flow_mod_bumps(self, table):
        mods = [
            add_flow(Match(in_port=1), out_port=2, priority=5),
            # a strict modify of an entry that is not there: a no-op
            FlowMod(
                command=FlowModCommand.MODIFY_STRICT, match=Match(in_port=9),
                priority=5,
            ),
            # the out_port filter fails: the entry is put back
            FlowMod(
                command=FlowModCommand.DELETE_STRICT, match=Match(in_port=1),
                priority=5, out_port=7,
            ),
            delete_flow(Match(in_port=1), priority=5, strict=True),
        ]
        for expected, mod in enumerate(mods, start=1):
            table.apply_flow_mod(mod)
            assert table.version == expected
        table.lookup({"in_port": 1})
        assert table.version == len(mods)

    def test_failed_flow_mod_bumps(self):
        small = FlowTable(capacity=1)
        small.apply_flow_mod(add_flow(Match(in_port=1), out_port=1))
        with pytest.raises(TableFullError):
            small.apply_flow_mod(add_flow(Match(in_port=2), out_port=1))
        assert small.version == 2

    def test_expiry_bumps_only_when_it_removes(self, table):
        table.apply_flow_mod(
            add_flow(Match(in_port=1), out_port=2, idle_timeout=10), now=0.0
        )
        table.expire(now=5_000.0)
        assert table.version == 1
        table.expire(now=20_000.0)
        assert table.version == 2


class TestOverlapPredicate:
    def test_disjoint_values(self):
        assert not matches_overlap(Match(in_port=1), Match(in_port=2))

    def test_wildcard_overlaps(self):
        assert matches_overlap(Match(), Match(in_port=1))

    def test_orthogonal_fields_overlap(self):
        assert matches_overlap(Match(in_port=1), Match(tcp_dst=80))

    def test_prefix_overlap(self):
        assert matches_overlap(
            Match(ipv4_dst="10.0.0.0/8"), Match(ipv4_dst="10.1.0.0/16")
        )
        assert not matches_overlap(
            Match(ipv4_dst="10.0.0.0/16"), Match(ipv4_dst="10.1.0.0/16")
        )
