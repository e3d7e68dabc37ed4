"""Exact-search identity sweep: 1,272 solves, one digest.

A change to the exact search that means to keep its behaviour must keep
this script's output: the status split, the oracle misses, the nogoods
learned and the digest over every outcome.  The grid:

* the ``exact_search`` ledger workload's ops (its 32-op pool) at ledger
  seeds 1, 7 and 13, taken from the workload itself and solved through
  its own ``solve`` and ``outcome_of``: 96 solves;
* ``random_update_instance`` with n = 8..14 x generator seeds 0..5 x the
  seven property sets of :data:`PROPERTY_SETS` (with a waypoint when WPE
  is among them) x four modes of ``minimal_round_schedule`` (default,
  ``search="iddfs"``, ``search="bnb"``, ``node_budget=40``): 1,176
  solves.

The outcome encoding, one object per solve in the order above:

* ``{"status": "ok", "rounds": [[node, ...], ...]}`` (each round sorted
  by ``repr``, as ``UpdateSchedule.to_dict`` writes it), plus
  ``"verified"`` for a pool solve;
* ``{"status": "infeasible"}``;
* ``{"status": "budget-capped", "lower": L, "upper": U, "nodes": N}``
  (``nodes`` is ``nodes_expanded``);

each with the keys that name the solve: ``"pool"`` (ledger seed, op
index in the workload's order, properties, old path, new path, waypoint)
or ``"grid"`` (n, generator seed, properties, mode).  The digest is the
first 16 hex digits of the SHA-256 of the outcomes written one per line
as ``json.dumps(outcome, sort_keys=True)``, joined by newlines.  Misses and nogoods learned are
the growth of :func:`repro.core.oracle.aggregate_stats` over the sweep.

Usage::

    PYTHONPATH=src python benchmarks/exact_identity_sweep.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).parent / "ledger"))

from wl_exact import ExactSearch, outcome_of, solve  # noqa: E402  (by path)

from repro.core.optimal import minimal_round_schedule  # noqa: E402
from repro.core.oracle import aggregate_stats, clear_registry  # noqa: E402
from repro.core.problem import UpdateProblem  # noqa: E402
from repro.core.registry import parse_properties  # noqa: E402
from repro.topology.random_graphs import random_update_instance  # noqa: E402

LEDGER_SEEDS = (1, 7, 13)
SIZES = range(8, 15)
GENERATOR_SEEDS = range(6)
PROPERTY_SETS = (
    "slf", "rlf", "wpe+slf", "slf+blackhole", "rlf+blackhole", "wpe+rlf",
    "wpe+slf+blackhole",
)
MODES = {
    "default": {},
    "iddfs": {"search": "iddfs"},
    "bnb": {"search": "bnb"},
    "node_budget=40": {"node_budget": 40},
}


def sweep(pools: dict):
    """Yield every outcome of the grid, in order; ``pools`` maps a ledger
    seed to the workload's ops at that seed."""
    for seed in LEDGER_SEEDS:
        for index, op in enumerate(pools[seed]):
            outcome = outcome_of(lambda: solve(op))
            result = outcome.pop("result", None)
            if result is not None:
                outcome["rounds"] = result.schedule.to_dict()["rounds"]
                outcome["verified"] = result.verified
            outcome["pool"] = [
                seed, index, op.properties, op.old, op.new, op.waypoint
            ]
            yield outcome
    for n in SIZES:
        for generator_seed in GENERATOR_SEEDS:
            for properties in PROPERTY_SETS:
                old, new, waypoint = random_update_instance(
                    n, seed=generator_seed, with_waypoint="wpe" in properties
                )
                for mode, params in MODES.items():
                    problem = UpdateProblem(old, new, waypoint=waypoint)
                    outcome = outcome_of(lambda: minimal_round_schedule(
                        problem, parse_properties(properties), **params
                    ))
                    schedule = outcome.pop("result", None)
                    if schedule is not None:
                        outcome["rounds"] = schedule.to_dict()["rounds"]
                    outcome["grid"] = [n, generator_seed, properties, mode]
                    yield outcome


def main() -> int:
    # the workload's set-up solves each op once; that is not the sweep's
    pools = {seed: ExactSearch(seed, 1.0, None).ops for seed in LEDGER_SEEDS}
    clear_registry()
    before = aggregate_stats()
    lines = [json.dumps(outcome, sort_keys=True) for outcome in sweep(pools)]
    after = aggregate_stats()
    statuses = Counter(json.loads(line)["status"] for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]
    print(
        f"solves {len(lines)}: ok {statuses['ok']}, "
        f"budget-capped {statuses['budget-capped']}, "
        f"infeasible {statuses['infeasible']}"
    )
    print(f"oracle misses {after.memo_misses - before.memo_misses}")
    print(f"nogoods learned {after.nogoods_learned - before.nogoods_learned}")
    print(f"digest {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
