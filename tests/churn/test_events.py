"""Tests for churn event types: validation and deterministic ordering."""

import pytest

from repro.churn.events import (
    ChurnError,
    LinkFailure,
    UpdateArrival,
    UpdateCancel,
    event_sort_key,
)


class TestValidation:
    def test_arrival_needs_ids(self):
        with pytest.raises(ChurnError):
            UpdateArrival(time_ms=0.0, request_id="", flow_id="f0",
                          target_path=(1, 2))
        with pytest.raises(ChurnError):
            UpdateArrival(time_ms=0.0, request_id="r0", flow_id="",
                          target_path=(1, 2))

    def test_arrival_needs_real_path(self):
        with pytest.raises(ChurnError):
            UpdateArrival(time_ms=0.0, request_id="r0", flow_id="f0",
                          target_path=(1,))

    def test_cancel_needs_request_id(self):
        with pytest.raises(ChurnError):
            UpdateCancel(time_ms=0.0, request_id="")

    def test_link_failure_needs_distinct_pair(self):
        with pytest.raises(ChurnError):
            LinkFailure(time_ms=0.0, link=(1,))
        with pytest.raises(ChurnError):
            LinkFailure(time_ms=0.0, link=(3, 3))


class TestOrdering:
    def test_time_dominates(self):
        early = LinkFailure(time_ms=1.0, link=(1, 2))
        late = UpdateArrival(time_ms=2.0, request_id="r0", flow_id="f0",
                             target_path=(1, 2))
        assert event_sort_key(early) < event_sort_key(late)

    def test_same_instant_kind_rank(self):
        arrival = UpdateArrival(time_ms=5.0, request_id="r0", flow_id="f0",
                                target_path=(1, 2))
        cancel = UpdateCancel(time_ms=5.0, request_id="r0")
        failure = LinkFailure(time_ms=5.0, link=(1, 2))
        ordered = sorted([failure, cancel, arrival], key=event_sort_key)
        assert ordered == [arrival, cancel, failure]

    def test_ties_broken_by_identity(self):
        a = UpdateArrival(time_ms=5.0, request_id="r1", flow_id="f0",
                          target_path=(1, 2))
        b = UpdateArrival(time_ms=5.0, request_id="r10", flow_id="f0",
                          target_path=(1, 2))
        c = UpdateArrival(time_ms=5.0, request_id="r2", flow_id="f0",
                          target_path=(1, 2))
        assert sorted([c, b, a], key=event_sort_key) == [a, b, c]

    def test_unknown_event_rejected(self):
        with pytest.raises(ChurnError):
            event_sort_key(object())
