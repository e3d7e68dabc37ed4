"""``exact_search``: in-process ``optimal:<props>`` with verification.

An op is ``schedule_update(problem, "optimal:<props>", verify=True)`` on a
fresh ``random-update`` problem: n=12/14/16 on the registry's default
engine (iterative deepening) and n=20 with a deterministic ``node_budget``
(which selects branch and bound), under four property sets.  It is the
only workload where ``core.optimal``/``core.bnb`` and the oracle's
*memoized-query* style do the work -- the same ``SafetyOracle`` that
``serve_large`` drives through delta walks.

Exact-search cost is heavy-tailed: over freely drawn instances the
seed-to-seed spread of p50/p90 was 15-45% (n=16 ranges from 2 ms to 8 s).
So the instances are a fixed pool -- generator seeds whose solve cost at
this benchmark's first commit lay between 5 and 100 ms -- and ``--seed``
moves what cost does not depend on: the node ids and the op order.
"""

from __future__ import annotations

import random

from repro.core.api import schedule_update
from repro.core.optimal import minimal_round_schedule
from repro.core.oracle import SafetyOracle, aggregate_stats
from repro.core.problem import UpdateProblem
from repro.core.registry import parse_properties
from repro.core.verify import verify_schedule
from repro.errors import ExactSearchBudgetError, InfeasibleUpdateError
from repro.topology.random_graphs import random_update_instance

from harness import Tracer, Workload, alternate, median, no_gc, paired_share

#: Search-node cap of the n=20 ops; most of them exhaust it.
NODE_BUDGET = 300

#: (n, properties, generator seed of ``random_update_instance``), ordered
#: so that any prefix is a usable mix (``--scale`` takes a prefix).
POOL = (
    (12, "slf", 4), (12, "rlf", 4), (12, "wpe+slf", 1), (12, "slf+blackhole", 3),
    (20, "slf", 1), (14, "rlf", 1), (16, "wpe+slf", 5), (20, "slf+blackhole", 0),
    (14, "slf", 1), (14, "wpe+slf", 0), (14, "slf+blackhole", 3), (16, "slf", 5),
    (16, "rlf", 5), (16, "slf+blackhole", 0), (20, "rlf", 1), (20, "wpe+slf", 1),
    (12, "slf", 7), (12, "rlf", 7), (12, "wpe+slf", 2), (12, "slf+blackhole", 6),
    (14, "slf", 4), (14, "rlf", 4), (14, "wpe+slf", 2), (14, "slf+blackhole", 4),
    (20, "slf", 0), (20, "rlf", 31), (20, "wpe+slf", 0), (20, "slf+blackhole", 2),
    (12, "slf", 14), (12, "rlf", 14), (12, "wpe+slf", 3), (12, "slf+blackhole", 7),
)


class ExactOp:
    """One pool instance with the run seed's id shift applied."""

    def __init__(self, n: int, properties: str, generator_seed: int, shift: int):
        old, new, waypoint = random_update_instance(
            n, seed=generator_seed, with_waypoint="wpe" in properties
        )
        self.old = [node + shift for node in old.nodes]
        self.new = [node + shift for node in new.nodes]
        self.waypoint = None if waypoint is None else waypoint + shift
        self.properties = properties
        self.spec = f"optimal:{properties}"
        self.params = {"node_budget": NODE_BUDGET} if n >= 20 else {}

    def problem(self) -> UpdateProblem:
        """Fresh per call: a reused problem would measure memo hits."""
        return UpdateProblem(self.old, self.new, waypoint=self.waypoint)


def solve(op: ExactOp, verify: bool = True):
    return schedule_update(
        op.problem(), op.spec, verify=verify, params=op.params
    )


def outcome_of(call) -> dict:
    """Run ``call`` and name what came back: a schedule, a proof that
    none exists, or the interval proven when the node budget ran out."""
    try:
        result = call()
    except InfeasibleUpdateError:
        return {"status": "infeasible"}
    except ExactSearchBudgetError as exc:
        return {
            "status": "budget-capped",
            "lower": exc.lower,
            "upper": exc.upper,
            "nodes": exc.nodes_expanded,
        }
    return {"status": "ok", "rounds": result.n_rounds, "result": result}


class ExactSearch(Workload):
    name = "exact_search"

    def __init__(self, seed: int, scale: float, root) -> None:
        rng = random.Random(f"{self.name}-{seed}")
        # a multiple of 1024 keeps every id's low bits, hence the iteration
        # order of the engines' node sets, hence the search order and cost
        shift = 1024 * rng.randrange(1, 1000)
        self.ops = [
            ExactOp(n, properties, generator_seed, shift)
            for n, properties, generator_seed in POOL[
                : max(5, round(len(POOL) * scale))
            ]
        ]
        rng.shuffle(self.ops)
        self.expected = []
        for op in self.ops:
            want = outcome_of(lambda: solve(op, verify=False))
            want.pop("result", None)
            self.expected.append(want)

    def warm_up(self) -> None:
        self.run_op(min(self.ops, key=lambda op: len(op.old)))

    def run_op(self, op: ExactOp):
        return outcome_of(lambda: solve(op))

    def outcome(self, op: ExactOp, found: dict) -> dict:
        result = found.pop("result", None)
        found["ok"] = result is None or result.verified is True
        if result is not None:
            found["schedule"] = result.schedule.to_dict()
        return found

    # ------------------------------------------------------------------
    def trace(self, tracer: Tracer, budget_s: float) -> dict[str, float]:
        calls: list[dict] = []  # per sampled op: the spans round each call
        counters: dict[str, int] = {}
        for index in self.sampled_rounds(tracer, budget_s):
            op = self.ops[index]
            call: dict = {}

            def plain():
                with no_gc(), tracer.plain() as call["untraced"]:
                    found = self.run_op(op)
                self.check(index, found)

            def traced():
                # counters come from the live-oracle totals, not from the
                # result: a budget-capped solve raises and returns none;
                # the collector is held off for them, so for both runs
                with no_gc():
                    before = aggregate_stats().as_dict()
                    with tracer.span("core.api.execute") as call["traced"]:
                        self.run_op(op)
                    for key, value in aggregate_stats().as_dict().items():
                        counters[key] = counters.get(key, 0) + value - before[key]

            with tracer.span("op", op=f"{self.name}#{index}"):
                alternate(len(calls), plain, traced)
                call["parts"] = self._reenact(tracer, op)
            calls.append(call)
        n = len(calls)
        lookups = counters.get("memo_hits", 0) + counters.get("memo_misses", 0)
        return {
            "core.problem.build_us": tracer.p50("core.problem.build", 1e6),
            "core.oracle.build_us": tracer.p50("core.oracle.build", 1e6),
            "core.verify.verify_us": tracer.p50("core.verify.verify", 1e6),
            "core.optimal.solve_ms": tracer.p50("core.optimal.solve", 1e3),
            "core.bnb.solve_ms": tracer.p50("core.bnb.solve", 1e3),
            "core.oracle.memo_hit_ratio": (
                counters.get("memo_hits", 0) / lookups if lookups else 0.0
            ),
            "core.oracle.memo_misses_per_op": counters.get("memo_misses", 0) / n,
            "core.oracle.memo_evictions_per_op": counters.get("memo_evictions", 0) / n,
            "core.oracle.nogood_hits_per_op": counters.get("nogood_hits", 0) / n,
            "core.oracle.nogoods_learned_per_op": counters.get("nogoods_learned", 0) / n,
            "trace.coverage": median(
                sum(span.seconds for span in call["parts"])
                / call["untraced"].seconds
                for call in calls
            ),
            "trace.overhead_share": paired_share(
                (call["untraced"], call["traced"]) for call in calls),
            "trace.sampled_ops": self.sample_size(),
        }

    @staticmethod
    def _reenact(tracer: Tracer, op: ExactOp) -> list:
        """The layers under ``schedule_update`` called directly; returns
        the spans of the ones the op itself runs (build, its own engine,
        verify).  Both engines solve every instance the default
        engine gets, so the two ``solve_ms`` compare like with like."""
        properties = parse_properties(op.properties)
        with tracer.span("core.problem.build") as build:
            problem = op.problem()
        with tracer.span("core.oracle.build"):
            SafetyOracle(op.problem(), properties)
        own_engine = "bnb" if op.params else "iddfs"
        own = [build]
        schedule = None
        for engine, name in (("iddfs", "core.optimal.solve"), ("bnb", "core.bnb.solve")):
            if op.params and engine == "iddfs":
                continue  # unbounded deepening at n=20 can run for minutes
            target = problem if engine == own_engine else op.problem()
            with tracer.span(name) as span:
                found = outcome_of(lambda: minimal_round_schedule(
                    target, properties, search=engine, **op.params
                ))
            if engine == own_engine:
                own.append(span)
                schedule = found.get("result")
        if schedule is not None:
            with tracer.span("core.verify.verify") as span:
                verify_schedule(schedule.with_cleanup(), properties=properties)
            own.append(span)
        return own
