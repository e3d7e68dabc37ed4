"""Golden outcomes of the exact search, recorded at commit b5c71f6.

``data/exact_golden.json`` holds what ``minimal_round_schedule`` returned
under ``search="iddfs"`` and ``search="bnb"`` *before* the four engines
were folded into one depth-limited DFS: the rounds of every schedule, and
for budget-capped solves the proven interval and the node count.  The
search must reproduce every entry exactly -- same rounds, same
``lower``/``upper``, same ``nodes_expanded``.

Re-record (only from a commit whose results are the contract) with
``PYTHONPATH=src:. python tests/core/test_exact_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.hardness import (
    crossing_clash_instance,
    crossing_instance,
    double_diamond_instance,
    reversal_instance,
    sawtooth_instance,
    waypoint_slalom_instance,
)
from repro.core.optimal import minimal_round_schedule
from repro.core.oracle import clear_registry
from repro.core.problem import UpdateProblem
from repro.core.registry import parse_properties
from repro.errors import ExactSearchBudgetError, InfeasibleUpdateError
from repro.topology.random_graphs import random_update_instance
from tests.core.reference_exact import FILTERS, TwinFlows

GOLDEN = Path(__file__).parent / "data" / "exact_golden.json"

#: ``benchmarks/ledger/wl_exact.py::POOL`` -- (n, properties, generator seed).
LEDGER_POOL = (
    (12, "slf", 4), (12, "rlf", 4), (12, "wpe+slf", 1), (12, "slf+blackhole", 3),
    (20, "slf", 1), (14, "rlf", 1), (16, "wpe+slf", 5), (20, "slf+blackhole", 0),
    (14, "slf", 1), (14, "wpe+slf", 0), (14, "slf+blackhole", 3), (16, "slf", 5),
    (16, "rlf", 5), (16, "slf+blackhole", 0), (20, "rlf", 1), (20, "wpe+slf", 1),
    (12, "slf", 7), (12, "rlf", 7), (12, "wpe+slf", 2), (12, "slf+blackhole", 6),
    (14, "slf", 4), (14, "rlf", 4), (14, "wpe+slf", 2), (14, "slf+blackhole", 4),
    (20, "slf", 0), (20, "rlf", 31), (20, "wpe+slf", 0), (20, "slf+blackhole", 2),
    (12, "slf", 14), (12, "rlf", 14), (12, "wpe+slf", 3), (12, "slf+blackhole", 7),
)

#: The ledger's search-node cap for its n=20 rows.
NODE_BUDGET = 300

FAMILIES = {
    **{f"reversal-{n}": (lambda n=n: reversal_instance(n)) for n in range(6, 15)},
    "sawtooth-9-3": lambda: sawtooth_instance(9, 3),
    "sawtooth-12-3": lambda: sawtooth_instance(12, 3),
    "sawtooth-14-4": lambda: sawtooth_instance(14, 4),
    "sawtooth-16-4": lambda: sawtooth_instance(16, 4),
    "crossing": crossing_instance,
    "crossing-clash-9": lambda: crossing_clash_instance(9),
    "crossing-clash-12": lambda: crossing_clash_instance(12),
    "waypoint-slalom-2": lambda: waypoint_slalom_instance(2),
    "waypoint-slalom-3": lambda: waypoint_slalom_instance(3),
    "double-diamond": double_diamond_instance,
    "twin-flows": TwinFlows,
}

PLAIN_PROPERTIES = ("slf", "rlf", "slf+blackhole")
WAYPOINT_PROPERTIES = PLAIN_PROPERTIES + ("wpe", "wpe+slf", "wpe+rlf")

def cases() -> list[dict]:
    """Every (instance, properties, mode, options) row of the golden."""
    rows: list[dict] = []
    for n, properties, seed in LEDGER_POOL:
        instance = f"random-{n}-{seed}"
        if n >= 20:
            for budget in (50, NODE_BUDGET):
                rows.append({"instance": instance, "properties": properties,
                             "search": "bnb", "node_budget": budget})
        else:
            for search in ("iddfs", "bnb"):
                rows.append({"instance": instance, "properties": properties,
                             "search": search})
            rows.append({"instance": instance, "properties": properties,
                         "search": "bnb", "node_budget": 5})
    for name, factory in FAMILIES.items():
        waypointed = factory().waypoint is not None
        for properties in WAYPOINT_PROPERTIES if waypointed else PLAIN_PROPERTIES:
            for search in ("iddfs", "bnb"):
                rows.append({"instance": name, "properties": properties,
                             "search": search})
    for name, properties in (
        ("reversal-6", "slf"), ("reversal-8", "rlf"), ("sawtooth-9-3", "rlf"),
        ("crossing", "wpe"), ("double-diamond", "wpe+slf"), ("twin-flows", "slf"),
    ):
        for search in ("iddfs", "bnb"):
            for filter_name in FILTERS:
                rows.append({"instance": name, "properties": properties,
                             "search": search, "round_filter": filter_name})
            rows.append({"instance": name, "properties": properties,
                         "search": search, "max_rounds": 3})
        rows.append({"instance": name, "properties": properties, "search": "bnb",
                     "round_filter": "sequential", "node_budget": 4})
    return rows


def case_id(row: dict) -> str:
    options = "&".join(
        f"{key}={row[key]}"
        for key in ("round_filter", "max_rounds", "node_budget")
        if key in row
    )
    return f"{row['instance']}:{row['properties']}:{row['search']}" + (
        f"?{options}" if options else ""
    )


def build(instance: str, properties: str):
    if instance.startswith("random-"):
        _, n, seed = instance.split("-")
        old, new, waypoint = random_update_instance(
            int(n), seed=int(seed), with_waypoint="wpe" in properties
        )
        return UpdateProblem(old.nodes, new.nodes, waypoint=waypoint)
    return FAMILIES[instance]()


def outcome(row: dict) -> dict:
    """Solve one row cold and name what came back."""
    clear_registry()
    problem = build(row["instance"], row["properties"])
    properties = parse_properties(row["properties"])
    options = {key: row[key] for key in ("max_rounds", "node_budget") if key in row}
    if "round_filter" in row:
        options["round_filter"] = FILTERS[row["round_filter"]]
    try:
        schedule = minimal_round_schedule(
            problem, properties, search=row["search"], **options
        )
    except InfeasibleUpdateError:
        return {"status": "infeasible"}
    except ExactSearchBudgetError as exc:
        return {
            "status": "budget-capped",
            "lower": exc.lower,
            "upper": exc.upper,
            "nodes_expanded": exc.nodes_expanded,
        }
    return {
        "status": "ok",
        "rounds": [sorted(nodes, key=repr) for nodes in schedule.rounds],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(row) for row in cases())


@pytest.mark.parametrize("row", cases(), ids=case_id)
def test_search_reproduces_the_recorded_outcome(row, golden):
    assert outcome(row) == golden[case_id(row)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({case_id(row): outcome(row) for row in cases()},
                   indent=1, sort_keys=True) + "\n"
    )
    print(f"recorded {len(cases())} outcomes -> {GOLDEN}")
