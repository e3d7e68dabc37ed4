"""End-to-end update scenarios: the paper's demo as a callable.

An :class:`UpdateScenario` wires everything together: it boots a
:class:`~repro.netlab.network.Network`, installs the old route, starts
probe traffic, submits the policy change through the paper's REST-style
update app, lets the round FSM run it with barriers over the asynchronous
channels, and reports update time, per-round timings and any transient
violations observed in the dataplane.

This is the workhorse behind examples and benchmarks E1/E2/E4/E5/E6/E8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ScenarioError
from repro.channel.latency_models import LatencyModel
from repro.controller.ofctl_rest import OfctlRestApp
from repro.controller.ofctl_rest_own import TransientUpdateApp
from repro.controller.rules import compile_initial_rules
from repro.controller.update_queue import UpdateQueueApp
from repro.core.problem import UpdateProblem
from repro.dataplane.injector import FlowSpec, InjectionResult, PeriodicInjector
from repro.netlab.network import Network
from repro.openflow.match import Match
from repro.switch.latency import OVS_PROFILE, SwitchTimingProfile
from repro.topology.graph import NodeId, Topology


@dataclass
class ScenarioResult:
    """Everything a scenario run produces."""

    algorithm: str
    update_id: str
    rounds: int
    update_duration_ms: float
    round_durations_ms: list[float]
    verified: Any
    traffic: InjectionResult
    flow_mods: int
    summary: dict[str, Any] = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return self.traffic.counters.violations

    def as_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "update_id": self.update_id,
            "rounds": self.rounds,
            "update_duration_ms": round(self.update_duration_ms, 3),
            "round_durations_ms": [round(d, 3) for d in self.round_durations_ms],
            "verified": self.verified,
            "flow_mods": self.flow_mods,
            **self.traffic.counters.as_dict(),
        }


class UpdateScenario:
    """One policy change executed over a freshly booted network."""

    #: Milliseconds between two probes, and the probes sent once the
    #: update has completed.
    probe_interval_ms = 0.25
    warmup_probes = 5

    def __init__(
        self,
        topo: Topology,
        problem: UpdateProblem,
        source_host: str,
        destination_host: str,
        match: Match | None = None,
        algorithm: str = "wayup",
        seed: int = 0,
        timing: SwitchTimingProfile | Mapping[NodeId, SwitchTimingProfile] = OVS_PROFILE,
        channel_latency: LatencyModel | float | str = 1.0,
        fifo: bool = True,
        drop_prob: float = 0.0,
        packet_mode: str = "instant",
        interval_ms: float = 0.0,
        verify: bool = True,
        use_barriers: bool = True,
    ) -> None:
        self.topo = topo
        self.problem = problem
        self.source_host = source_host
        self.destination_host = destination_host
        self.algorithm = algorithm
        self.interval_ms = interval_ms
        self.use_barriers = use_barriers

        self.network = Network(
            topo,
            seed=seed,
            timing=timing,
            channel_latency=channel_latency,
            fifo=fifo,
            drop_prob=drop_prob,
            packet_mode=packet_mode,
        )
        destination = self.network.host(destination_host)
        self.match = (
            match
            if match is not None
            else Match(eth_type=0x0800, ipv4_dst=destination.ip)
        )
        self.update_queue = UpdateQueueApp()
        self.update_app = TransientUpdateApp(
            topo, self.update_queue, default_match=self.match, verify=verify
        )
        self.ofctl_app = OfctlRestApp()
        self.network.controller.register_app(self.update_queue)
        self.network.controller.register_app(self.update_app)
        self.network.controller.register_app(self.ofctl_app)

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Boot the network and install the old route."""
        self.network.start()
        destination = self.network.host(self.destination_host)
        egress_port = destination.switch_port
        initial = compile_initial_rules(
            self.topo, self.problem, self.match, egress_port=egress_port
        )
        self.network.send_flow_mods(initial)
        self.network.flush()
        self._check_initial_path()

    def _check_initial_path(self) -> None:
        probe = self.network.default_packet(self.source_host, self.destination_host)
        trace = self.network.inject_from_host(
            self.source_host,
            probe,
            waypoint=self.problem.waypoint,
            destination_host=self.destination_host,
        )
        if self.network.packet_mode == "perhop":
            self.network.flush()
        if trace.fate.value != "delivered":
            raise ScenarioError(
                f"old route broken before the update: {trace.fate.value} "
                f"via {trace.path!r}"
            )

    def run(self) -> ScenarioResult:
        """Execute the update under continuous probing; returns the result."""
        self.prepare()
        flow = FlowSpec(
            source_host=self.source_host,
            destination_host=self.destination_host,
            waypoint=self.problem.waypoint,
        )
        injector = PeriodicInjector(
            self.network, flow, interval_ms=self.probe_interval_ms
        )
        injector.stop_when_update_completes(
            self.update_queue, extra_probes=self.warmup_probes
        )
        injector.start()

        request: dict[str, Any] = {
            "oldpath": list(self.problem.old_path.nodes),
            "newpath": list(self.problem.new_path.nodes),
            "interval": self.interval_ms,
            "algorithm": self.algorithm,
            "barriers": self.use_barriers,
        }
        if self.problem.waypoint is not None:
            request["wp"] = self.problem.waypoint
        summary = self.update_app.submit_update(request)
        self.network.flush()

        execution = self.update_queue.find_completed(summary["update_id"])
        injector.result.finalize()
        return ScenarioResult(
            algorithm=self.algorithm,
            update_id=execution.update_id,
            rounds=execution.n_rounds,
            update_duration_ms=execution.duration_ms,
            round_durations_ms=[t.duration_ms for t in execution.round_timings],
            verified=summary.get("verified"),
            traffic=injector.result,
            flow_mods=summary.get("flow_mods", 0),
            summary=summary,
        )


def final_path_of(network: Network, source_host: str, destination_host: str) -> list:
    """Trace the settled path after an update (sanity checks in tests)."""
    probe = network.default_packet(source_host, destination_host)
    trace = network.inject_from_host(
        source_host, probe, destination_host=destination_host
    )
    if network.packet_mode == "perhop":
        network.flush()
    return list(trace.path)
