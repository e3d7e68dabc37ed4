"""The coordinator's decisions, called on a bare ``FabricState``.

Each decision is a pure read of the state that returns the journal events
a request causes; no ``Coordinator``, journal, lock or clock is involved
here.  Events are applied the way replay applies them, through
``FabricState.apply``, and every decision is checked to leave the state
exactly as it found it.
"""

import copy

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.fabric.state import FabricState
from repro.campaign.runner import new_record
from tests.campaign.fabric_helpers import sealed

SPEC = CampaignSpec.from_dict({
    "name": "decide",
    "seed": 5,
    "timeout_s": 30,
    "families": [{"family": "reversal", "sizes": [4, 6, 8]}],
    "schedulers": ["peacock", "greedy-slf"],
})
CELLS = SPEC.expand()


def fresh(flushed=0) -> FabricState:
    """A run whose first ``flushed`` cells are in ``results.jsonl``."""
    return FabricState(CELLS, {cell.cell_id for cell in CELLS[:flushed]})


def record(state, index, touches=1):
    return {**new_record(state.cells[index].payload), "touches": touches}


def candidate(state, index, name, touches=1):
    state.apply({"kind": "audit_candidate", "index": index, "worker": name,
                 "record": record(state, index, touches),
                 "timing": {"id": CELLS[index].cell_id}}, 0.0)


def unchanged(state, decide):
    """Run ``decide(state)``; fail if it changed anything."""
    before = copy.deepcopy(vars(state))
    out = decide(state)
    assert vars(state) == before
    return out


class TestLeaseWindow:
    def test_starts_at_the_flushed_prefix(self):
        state = fresh(flushed=2)
        assert unchanged(state, lambda s: s.lease_window(2, 3, 0.0, "a")) == [
            2, 3, 4,
        ]

    def test_skips_leased_backed_off_and_settled_cells(self):
        state = fresh()
        state.apply({"kind": "lease", "cells": [0]}, 0.0)
        state.apply({"kind": "retry", "index": 1, "attempts": 1}, 5.0)
        state.cells[3].status = "done"
        assert state.lease_window(0, 3, 1.0, "a") == [2, 4, 5]
        assert state.lease_window(0, 9, 5.0, "a") == [1, 2, 4, 5]
        assert state.lease_window(0, 1, 5.0, "a") == [1]

    def test_an_audit_cell_goes_only_to_a_name_without_a_candidate(self):
        state = fresh()
        candidate(state, 0, "a")
        assert state.cells[0].status == "audit"
        assert state.lease_window(0, 2, 0.0, "a") == [1, 2]
        assert state.lease_window(0, 2, 0.0, "b") == [0, 1]

    def test_retry_after_is_the_nearest_backoff_end_capped(self):
        state = fresh(flushed=5)
        assert state.retry_after(5, 0.0, 2.0) == 0.01  # cell 5 is eligible
        state.apply({"kind": "lease", "cells": [5]}, 0.0)
        assert state.retry_after(5, 0.0, 2.0) == 2.0  # nothing pending
        state.apply({"kind": "retry", "index": 5, "attempts": 1}, 1.5)
        assert unchanged(state, lambda s: s.retry_after(5, 1.0, 2.0)) == 0.5


class TestAuditVerdict:
    def test_two_candidates_that_disagree_are_inconclusive(self):
        state = fresh()
        candidate(state, 0, "a", touches=1)
        candidate(state, 0, "b", touches=2)
        assert unchanged(state, lambda s: s.audit_verdict(0)) is None

    def test_two_matching_candidates_outvote_a_liar(self):
        state = fresh()
        candidate(state, 0, "a")
        candidate(state, 0, "liar", touches=9)
        candidate(state, 0, "b")
        losers, events = unchanged(state, lambda s: s.audit_verdict(0))
        assert losers == ["liar"]
        assert [e["kind"] for e in events] == ["accept", "quarantine"]
        assert events[0]["worker"] == "a" and events[0]["audited"]
        assert events[1]["worker"] == "liar"

    def test_three_way_deadlock_quarantines_every_claimant(self):
        state = fresh()
        for touches, name in enumerate("abc"):
            candidate(state, 0, name, touches=touches)
        losers, events = unchanged(state, lambda s: s.audit_verdict(0))
        assert losers == ["a", "b", "c"]
        assert [(e["kind"], e["worker"]) for e in events] == [
            ("quarantine", "a"), ("quarantine", "b"), ("quarantine", "c"),
        ]
        assert all("three-way" in e["reason"] for e in events)
        for event in events:
            state.apply(event, 0.0)
        # every candidate withdrawn: the cell recomputes from scratch
        assert 0 not in state.audit and state.cells[0].status == "pending"


class TestPoison:
    def test_the_threshold_is_settled_on_replay(self):
        """A crash between the kill that reaches the threshold and the
        poison record: the replayed kills alone decide the poisoning."""
        state = fresh()
        for name in ("a", "b"):
            state.apply({"kind": "kill", "index": 2, "worker": name}, 0.0)
        assert unchanged(state, lambda s: s.poison(2, 3)) == []
        (event,) = unchanged(state, lambda s: s.poison(2, 2))
        assert event["kind"] == "poison" and event["killers"] == ["a", "b"]
        assert event["record"]["status"] == "error"
        assert "killed 2 distinct workers (a, b)" in event["record"]["detail"]
        state.apply(event, 0.0)
        assert state.cells[2].status == "done" and state.cells[2].poisoned
        assert state.poison(2, 2) == []  # settled once

    def test_death_charges_a_new_killer_of_the_first_leased_cell(self):
        state = fresh()
        state.apply({"kind": "lease", "cells": [1, 2]}, 0.0)
        state.cells[1].status = "done"
        suspect, events = unchanged(state, lambda s: s.death([0, 1, 2], "a"))
        assert suspect == 2
        assert events == [{"kind": "kill", "index": 2, "worker": "a"}]
        state.apply(events[0], 0.0)
        assert state.death([0, 1, 2], "a") == (None, [])  # a repeat killer
        assert state.death([0], "b") == (None, [])  # nothing leased


class TestRetry:
    def test_retries_until_the_budget_then_gives_up(self):
        state = fresh()
        assert unchanged(state, lambda s: s.retry(0, 2, "boom")) == [
            {"kind": "retry", "index": 0, "attempts": 1}
        ]
        state.apply({"kind": "retry", "index": 0, "attempts": 2}, 0.0)
        (event,) = state.retry(0, 2, "boom")
        assert event["kind"] == "terminal"
        assert event["record"]["detail"] == "boom (gave up after 3 attempts)"
        state.apply(event, 0.0)
        assert state.retry(0, 2, "boom") == []


class TestSubmission:
    def submit(self, state, index, name, touches=1, **options):
        rec = record(state, index, touches)
        integrity = sealed(state.cells[index].payload, rec)
        options = {"sampled": False, "escalation_factor": 4.0, **options}
        return unchanged(state, lambda s: s.submission(
            index, name, "l1", rec, {"id": CELLS[index].cell_id}, integrity,
            **options,
        ))

    def test_verdicts(self):
        state = fresh()
        verdict, (event,) = self.submit(state, 0, "a")
        assert verdict == "accepted" and event["kind"] == "accept"
        state.apply(event, 0.0)
        assert self.submit(state, 0, "a") == ("duplicate", [])
        verdict, (event,) = self.submit(state, 1, "a", sampled=True)
        assert verdict == "candidate" and event["kind"] == "audit_candidate"
        state.apply(event, 0.0)
        assert self.submit(state, 1, "a") == ("held", [])
        verdict, events = self.submit(state, 1, "a", touches=2)
        assert verdict == "contradicted"
        assert [e["kind"] for e in events] == ["quarantine"]
        state.apply(events[0], 0.0)
        assert self.submit(state, 2, "a") == ("refused", [])

    def test_a_wrong_sidecar_is_rejected(self):
        state = fresh()
        rec = record(state, 0)
        verdict, events = unchanged(state, lambda s: s.submission(
            0, "a", "l1", rec, {}, {**sealed(state.cells[1].payload, rec)},
            sampled=False, escalation_factor=4.0,
        ))
        assert verdict == "rejected"
        assert events == [{"kind": "quarantine", "worker": "a",
                           "reason": f"integrity reject on {CELLS[0].cell_id}"}]

    @pytest.mark.parametrize("factor", [4.0, 0.0])
    def test_a_first_timeout_escalates_when_enabled(self, factor):
        state = fresh()
        rec = {**new_record(state.cells[0].payload, "timeout")}
        verdict, (event,) = unchanged(state, lambda s: s.submission(
            0, "a", "l1", rec, {}, sealed(state.cells[0].payload, rec),
            sampled=True, escalation_factor=factor,
        ))
        if factor:
            assert verdict == "escalated" and event["timeout_s"] == 120.0
        else:
            assert verdict == "accepted"  # a timeout is never audited
