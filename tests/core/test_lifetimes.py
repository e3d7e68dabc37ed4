"""A problem and everything cached on it die at reference count zero.

The problem's cache owns its oracles and precedence analyses, and
neither holds the problem strongly, so no request, churn update or
search leaves a cycle behind: with the collector off, a full collection
afterwards finds no ``UpdateProblem``, ``SafetyOracle`` or
``PrecedenceAnalysis``, and :func:`aggregate_stats` has counted the dead
oracles' work as they died.

The same holds for an executed update: the network owns its switches,
channels, controller and simulator, the controller its datapath handles
and apps, and every reference back (a channel's endpoint handlers, an
app's controller, the injector's completion hook, a control-plane
trace's channel wrappers) is weak, so a finished ``UpdateScenario``
leaves no ``Network`` and nothing of it, traced or not.  And a closed
campaign ``Coordinator`` leaves no ``Coordinator``, ``RunStore`` or
``CellState``, and nothing else either: its manifest and journal
snapshots are written by the C JSON encoder, not by the pure-Python one
(``indent=2``), whose closures form a cycle on every call.
"""

import gc
from collections import Counter

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.fabric import Coordinator, FabricWorker, LocalClient
from repro.churn.controller import run_churn
from repro.churn.traces import generate_trace
from repro.controller.ofctl_rest import OfctlRestApp
from repro.controller.ofctl_rest_own import TransientUpdateApp
from repro.controller.trace import ControlPlaneTrace
from repro.controller.update_queue import UpdateQueueApp
from repro.core.api import schedule_update
from repro.core.hardness import crossing_clash_instance, reversal_instance
from repro.core.oracle import aggregate_stats
from repro.core.problem import UpdateProblem
from repro.errors import ExactSearchBudgetError
from repro.netlab.figure1 import build_figure1_scenario, run_figure1
from repro.netlab.scenario import UpdateScenario
from repro.rest.api import build_rest_api
from repro.topology.builders import figure1
from repro.topology.random_graphs import random_update_instance
from tests.netlab.test_update_golden import reversal_topology

KINDS = ("UpdateProblem", "SafetyOracle", "PrecedenceAnalysis")
EXECUTED_KINDS = (
    "Network", "SwitchSim", "ControlChannel", "Controller", "Datapath",
    "FlowTable", "PeriodicInjector",
)
FABRIC_KINDS = ("Coordinator", "RunStore", "CellState")


def _unreachable(kinds=KINDS) -> Counter:
    """What a full collection finds, by type name, among ``kinds`` (or
    of every type, for ``kinds=None``)."""
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()  # what was saved is garbage again: free it now
    if kinds is None:
        return found
    return Counter({kind: found[kind] for kind in kinds if found[kind]})


def _schedule_over_rest(tmp_path):
    queue = UpdateQueueApp()
    api = build_rest_api(
        OfctlRestApp(), TransientUpdateApp(figure1(), queue), queue,
        campaign_root=str(tmp_path),
    )
    body = {"oldpath": [1, 2, 3, 4, 5], "newpath": [1, 6, 3, 7, 5], "wp": 3,
            "scheduler": "optimal:slf+wpe"}
    try:
        assert api.handle("POST", "/schedule", body).status == 200
    finally:
        api.campaigns.close()


def _over_budget(tmp_path):
    with pytest.raises(ExactSearchBudgetError):
        schedule_update(crossing_clash_instance(24), "optimal:rlf?node_budget=50")


RUNS = {
    "churn": lambda tmp_path: run_churn(
        generate_trace("fat-tree", 4, 7, duration_ms=200.0)
    ),
    "optimal:slf": lambda tmp_path: schedule_update(
        UpdateProblem(*random_update_instance(14, seed=5)[:2]), "optimal:slf"
    ),
    "optimal:rlf": lambda tmp_path: schedule_update(
        crossing_clash_instance(12), "optimal:rlf", verify=True
    ),
    "greedy-slf": lambda tmp_path: schedule_update(
        reversal_instance(12), "greedy-slf", verify=True
    ),
    "peacock": lambda tmp_path: schedule_update(
        reversal_instance(12), "peacock", verify=True
    ),
    "rest /schedule": _schedule_over_rest,
    "exact search over budget": _over_budget,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_nothing_waits_for_the_collector(name, tmp_path):
    gc.collect()
    before = aggregate_stats().as_dict()
    gc.disable()
    try:
        RUNS[name](tmp_path)
        assert _unreachable() == Counter()
    finally:
        gc.enable()
    after = aggregate_stats().as_dict()
    assert after["applies"] > before["applies"]
    assert all(after[key] >= value for key, value in before.items())


def _traced_figure1():
    scenario = build_figure1_scenario(algorithm="wayup", seed=1)
    ControlPlaneTrace().attach(scenario.network)
    scenario.run()


def _reversal_update():
    topo, problem = reversal_topology(20)
    UpdateScenario(topo, problem, "h1", "h2", algorithm="greedy-slf", seed=1).run()


EXECUTED = {
    "figure-1 wayup": lambda: run_figure1("wayup"),
    "figure-1 traced": _traced_figure1,
    "reversal-20 greedy-slf": _reversal_update,
    "figure-1 per-hop": lambda: run_figure1(
        "peacock", seed=3, packet_mode="perhop", channel_latency="uniform:0.5:6"
    ),
}


def _fabric_campaign(tmp_path):
    spec = CampaignSpec.from_dict({
        "name": "lifetime", "seed": 3,
        "families": [{"family": "reversal", "sizes": [4, 6], "repeats": 2}],
        "schedulers": ["peacock", "greedy-slf"],
    })
    coordinator = Coordinator(spec, root=str(tmp_path), journal_compact_every=4)
    FabricWorker(LocalClient(coordinator), name="only").run()
    assert coordinator.counters["journal_compactions"] > 0
    assert coordinator.status()["done"] == 8
    coordinator.close()


@pytest.mark.parametrize("name", sorted(EXECUTED))
def test_an_executed_update_waits_for_no_collector(name):
    gc.collect()
    gc.disable()
    try:
        EXECUTED[name]()
        assert _unreachable(EXECUTED_KINDS) == Counter()
    finally:
        gc.enable()


def test_a_closed_coordinator_waits_for_no_collector(tmp_path):
    gc.collect()
    gc.disable()
    try:
        _fabric_campaign(tmp_path)
        assert _unreachable(FABRIC_KINDS) == Counter()
    finally:
        gc.enable()


def test_a_closed_campaign_leaves_nothing_for_the_collector(tmp_path):
    gc.collect()
    gc.disable()
    try:
        _fabric_campaign(tmp_path)
        assert _unreachable(kinds=None) == Counter()
    finally:
        gc.enable()
