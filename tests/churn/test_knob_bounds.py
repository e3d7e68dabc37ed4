"""``generate_trace`` checks its knobs, whoever calls it.

A library call, a campaign cell built without its spec, and the CLI all
meet ``TRACE_PARAMS``' bounds in the generator itself, and each knob is
cast to its default's type before it is used or recorded.
"""

import pytest

import repro.churn.traces as traces
from repro.campaign.families import build_unit
from repro.churn.traces import generate_trace
from repro.errors import ChurnError


@pytest.fixture
def no_generation(monkeypatch):
    """Fail the test if a trace starts being built before its knobs pass."""
    def build_topology(*args):
        raise AssertionError("the trace was generated before its knobs were checked")

    monkeypatch.setattr(traces, "_build_topology", build_topology)


@pytest.mark.parametrize("knobs", [
    {"flows": 0},
    {"cancel_prob": 7},
    {"waypoint_prob": -0.5},
    {"link_failures": -1},
    {"link_failures": True},
    {"rate_per_s": float("nan")},
    {"rate_per_s": 1e9, "duration_ms": 1e9},
    {"burst": 3},
])
def test_a_direct_call_meets_the_bounds(no_generation, knobs):
    with pytest.raises(ChurnError):
        generate_trace("fat-tree", 4, 1, **knobs)


def test_a_campaign_cell_meets_the_same_bounds(no_generation):
    with pytest.raises(ChurnError, match="'flows'"):
        build_unit("churn-fat-tree", 4, {"flows": 0}, 1)


def test_knobs_are_cast_to_their_defaults_types():
    trace = generate_trace("fat-tree", 4, 1, rate_per_s=20, duration_ms="100",
                           flows="3")
    assert trace.params == {
        "rate_per_s": 20.0, "duration_ms": 100.0, "flows": 3,
        "cancel_prob": 0.1, "link_failures": 1, "waypoint_prob": 0.5,
    }
    assert type(trace.params["rate_per_s"]) is float
    assert trace.duration_ms == 100.0 and len(trace.flows) == 3
