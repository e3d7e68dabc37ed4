"""``update_exec``: the paper's demo path, one executed update per op.

An op is one ``UpdateScenario(...).run()``: boot a network, install the
old route, start probe traffic, submit the update, run the rounds with
barriers over the asynchronous channels, flush.  It is the only workload
that exercises ``netlab``/``sim``/``channel``/``switch``/``controller``/
``dataplane``; computing the schedule is a minor share of it.  Rounds,
simulated update time, flow-mod and violation counters are functions of
the seed and enter the digest.
"""

from __future__ import annotations

import random

from repro.controller.rules import compile_initial_rules
from repro.core.hardness import reversal_instance
from repro.dataplane.injector import FlowSpec, PeriodicInjector
from repro.netlab.figure1 import build_figure1_scenario
from repro.netlab.scenario import UpdateScenario
from repro.topology.graph import Topology

from harness import Tracer, Workload, alternate, median, paired_share

#: (topology, algorithm, copies per block).  Weighted so that p50 falls
#: inside the figure-1 cluster (~6 ms) and p90 inside the reversal-50
#: greedy-slf cluster (~45 ms, 48 rounds) instead of on a boundary
#: between two op types, where a quantile would jump with the seed.
MIX = (
    ("figure1", "wayup", 3),
    ("figure1", "peacock", 3),
    ("figure1", "two-phase", 3),
    ("figure1", "oneshot", 3),
    (20, "peacock", 2),
    (50, "peacock", 2),
    (20, "greedy-slf", 3),
    (50, "greedy-slf", 3),
)
BLOCKS_PER_CYCLE = 6


def reversal_scenario(n: int, algorithm: str, seed: int) -> UpdateScenario:
    """The reversal-``n`` update on the graph its two paths span."""
    problem = reversal_instance(n)
    topo = Topology(name=f"reversal-{n}")
    for node in sorted(problem.nodes):
        topo.add_switch(node)
    for path in (problem.old_path, problem.new_path):
        for a, b in path.edges():
            if not topo.has_link(a, b):
                topo.add_link(a, b)
    topo.add_host("h1")
    topo.add_host("h2")
    topo.add_link("h1", problem.source)
    topo.add_link("h2", problem.destination)
    return UpdateScenario(
        topo=topo,
        problem=problem,
        source_host="h1",
        destination_host="h2",
        algorithm=algorithm,
        seed=seed,
    )


def build(op) -> UpdateScenario:
    topology, algorithm, seed = op
    if topology == "figure1":
        return build_figure1_scenario(algorithm=algorithm, seed=seed)
    return reversal_scenario(topology, algorithm, seed)


class UpdateExec(Workload):
    name = "update_exec"
    expected = None  # deterministic per seed; later cycles must repeat the first

    def __init__(self, seed: int, scale: float, root) -> None:
        rng = random.Random(f"{self.name}-{seed}")
        self.ops = [
            (topology, algorithm, rng.getrandbits(32))
            for _ in range(max(1, round(BLOCKS_PER_CYCLE * scale)))
            for topology, algorithm, copies in MIX
            for _ in range(copies)
        ]
        rng.shuffle(self.ops)

    def run_op(self, op):
        return build(op).run()

    def outcome(self, op, result) -> dict:
        fields = result.as_dict()
        del fields["update_id"]  # a process-wide counter, not an output
        # a scheduler is held to its own guarantee (two-phase reports
        # "by-construction"); one-shot promises none and verifies False
        fields["ok"] = result.rounds >= 1 and (
            bool(result.verified) or op[1] == "oneshot"
        )
        return fields

    # ------------------------------------------------------------------
    def trace(self, tracer: Tracer, budget_s: float) -> dict[str, float]:
        calls: list[dict] = []  # per sampled op: the spans round each call
        totals = dict.fromkeys(
            ("events", "flush_events", "msgs", "flowmods", "probes"), 0
        )
        for index in self.sampled_rounds(tracer, budget_s):
            op = self.ops[index]
            call: dict = {}

            def plain():
                with tracer.plain() as call["untraced"]:
                    raw = self.run_op(op)
                self.check(index, raw)

            def reenacted():
                call["traced"], call["parts"] = self._reenact(
                    tracer, op, f"{self.name}#{index}", totals)

            alternate(len(calls), plain, reenacted)
            calls.append(call)
        updates = len(calls)
        flush_s = tracer.total("netlab.network.flush")
        return {
            "netlab.network.boot_ms": tracer.p50("netlab.network.boot", 1e3),
            "netlab.scenario.prepare_ms": tracer.p50("netlab.scenario.prepare", 1e3),
            "controller.rules.compile_us": tracer.p50("controller.rules.compile", 1e6),
            "controller.ofctl_rest_own.submit_ms": tracer.p50(
                "controller.ofctl_rest_own.submit", 1e3),
            "netlab.network.flush_ms": tracer.p50("netlab.network.flush", 1e3),
            "sim.simulator.events_per_update": totals["events"] / updates,
            "sim.simulator.us_per_event": flush_s / totals["flush_events"] * 1e6,
            "channel.base.msgs_per_update": totals["msgs"] / updates,
            "switch.flow_table.flowmods_per_update": totals["flowmods"] / updates,
            "dataplane.injector.probes_per_update": totals["probes"] / updates,
            "netlab.network.probe_walk_us": tracer.p50("netlab.network.probe_walk", 1e6),
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
    def _reenact(tracer: Tracer, op, label: str, totals: dict) -> tuple:
        """``UpdateScenario.run()`` step by step, a span per layer call;
        returns the span round the whole op and the layer spans in it."""
        spans = []

        def layer(name: str):
            spans.append(tracer.span(name))
            return spans[-1]

        with tracer.span("op", op=label) as whole:
            with layer("netlab.network.boot"):
                scenario = build(op)
            network = scenario.network
            with layer("netlab.scenario.prepare"):
                scenario.prepare()
            before = _counts(network)
            flow = FlowSpec(
                source_host=scenario.source_host,
                destination_host=scenario.destination_host,
                waypoint=scenario.problem.waypoint,
            )
            with layer("dataplane.injector.arm"):
                injector = PeriodicInjector(
                    network, flow, interval_ms=scenario.probe_interval_ms
                )
                injector.stop_when_update_completes(
                    scenario.update_queue, extra_probes=scenario.warmup_probes
                )
                injector.start()
            request = {
                "oldpath": list(scenario.problem.old_path.nodes),
                "newpath": list(scenario.problem.new_path.nodes),
                "interval": scenario.interval_ms,
                "algorithm": scenario.algorithm,
                "barriers": scenario.use_barriers,
            }
            if scenario.problem.waypoint is not None:
                request["wp"] = scenario.problem.waypoint
            with layer("controller.ofctl_rest_own.submit"):
                scenario.update_app.submit_update(request)
            events_at_flush = network.sim.events_processed
            with layer("netlab.network.flush"):
                network.flush()
            injector.result.finalize()
        after = _counts(network)
        totals["flush_events"] += network.sim.events_processed - events_at_flush
        for key in ("events", "msgs", "flowmods"):
            totals[key] += after[key] - before[key]
        totals["probes"] += injector.result.counters.injected
        # direct calls on the settled network, outside the op's own time
        destination = network.host(scenario.destination_host)
        with tracer.span("controller.rules.compile", op=label):
            compile_initial_rules(
                scenario.topo, scenario.problem, scenario.match,
                egress_port=destination.switch_port,
            )
        packet = network.default_packet(
            scenario.source_host, scenario.destination_host
        )
        with tracer.span("netlab.network.probe_walk", op=label):
            network.inject_from_host(
                scenario.source_host, packet,
                waypoint=scenario.problem.waypoint,
                destination_host=scenario.destination_host,
            )
        return whole, spans


def _counts(network) -> dict[str, int]:
    return {
        "events": network.sim.events_processed,
        "msgs": sum(
            stats.to_switch_sent + stats.to_controller_sent
            for stats in network.channel_stats().values()
        ),
        "flowmods": network.total_flow_mods_applied(),
    }
