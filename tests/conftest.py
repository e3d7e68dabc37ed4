"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.core.problem import UpdateProblem
from repro.netlab.figure1 import figure1_problem
from repro.sim.simulator import Simulator
from repro.topology.builders import figure1, linear
from repro.topology.graph import Topology

# ``pytest --hypothesis-profile=nightly``: the budget of the generated
# tests that ask for it (tests/core/generated.py); tier-1 does not.
settings.register_profile(
    "nightly",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def triangle() -> Topology:
    """Three switches in a triangle."""
    topo = Topology(name="triangle")
    for dpid in (1, 2, 3):
        topo.add_switch(dpid)
    topo.add_link(1, 2)
    topo.add_link(2, 3)
    topo.add_link(1, 3)
    return topo


@pytest.fixture
def line5() -> Topology:
    return linear(5)


@pytest.fixture
def fig1_topo() -> Topology:
    return figure1(with_hosts=True)


@pytest.fixture
def fig1_problem() -> UpdateProblem:
    return figure1_problem()


@pytest.fixture
def simple_waypoint_problem() -> UpdateProblem:
    """Old 1-2-3-4-5, new 1-6-3-7-5, waypoint 3: installs on both sides."""
    return UpdateProblem([1, 2, 3, 4, 5], [1, 6, 3, 7, 5], waypoint=3)


@pytest.fixture
def plain_problem() -> UpdateProblem:
    """No waypoint: old 1-2-3-4, new 1-3-2-4 (one backward mover)."""
    return UpdateProblem([1, 2, 3, 4], [1, 3, 2, 4])
