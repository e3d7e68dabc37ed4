"""Traffic injection during network updates.

A :class:`PeriodicInjector` pushes probe packets into the network at a
fixed cadence while the controller is busy updating rules, exactly like the
demo's ``h1 ping h2`` running across the transition.  Every probe's fate is
recorded; the counters feed experiment E4.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.dataplane.packets import Packet
from repro.dataplane.violations import TraceRecord, ViolationCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netlab.network import Network


@dataclass
class FlowSpec:
    """What correct delivery means for the injected flow."""

    source_host: str
    destination_host: str
    waypoint: object | None = None
    packet_factory: Callable[[], Packet] | None = None


@dataclass
class InjectionResult:
    counters: ViolationCounters = field(default_factory=ViolationCounters)
    traces: list[TraceRecord] = field(default_factory=list)

    def finalize(self) -> ViolationCounters:
        """Re-tally fates from traces (per-hop mode resolves them late)."""
        counters = ViolationCounters(injected=len(self.traces))
        for trace in self.traces:
            counters.record(trace.fate)
        self.counters = counters
        return counters


#: Probes one :class:`PeriodicInjector` sends at most.
MAX_PACKETS = 100_000


class PeriodicInjector:
    """Inject one probe every ``interval_ms`` until stopped (or after
    :data:`MAX_PACKETS`)."""

    def __init__(
        self,
        network: "Network",
        flow: FlowSpec,
        interval_ms: float = 0.5,
    ) -> None:
        self.network = network
        self.flow = flow
        self.interval_ms = interval_ms
        self.result = InjectionResult()
        #: the probe every tick sends, built once (a replayed walk then
        #: matches its key by identity); a flow's factory makes one per tick
        self._packet = (
            None if flow.packet_factory is not None
            else network.default_packet(flow.source_host, flow.destination_host)
        )
        self._stopped = False
        self._started = False

    def start(self) -> None:
        """Arm the injector on the network's simulator."""
        if self._started:
            return
        self._started = True
        self.network.sim.schedule_at(self.network.sim.now, self._tick)

    def stop(self) -> None:
        """Stop after the current tick (pending probes still complete)."""
        self._stopped = True

    def stop_when_update_completes(self, update_queue, extra_probes: int = 3) -> None:
        """Wire to the round FSM: keep probing a little past completion.

        A few extra probes confirm the final state forwards correctly.
        The queue's hook holds this injector weakly: the queue belongs to
        the network's controller, which the injector refers to.
        """
        injector = weakref.ref(self)

        def on_complete(_event) -> None:
            live = injector()
            if live is not None:
                live.network.sim.schedule(live.interval_ms * extra_probes, live.stop)

        update_queue.on_update_complete.append(on_complete)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._stopped or len(self.result.traces) >= MAX_PACKETS:
            return
        flow = self.flow
        packet = self._packet if self._packet is not None else flow.packet_factory()
        trace = self.network.inject_from_host(
            flow.source_host,
            packet,
            waypoint=flow.waypoint,
            destination_host=flow.destination_host,
        )
        self.result.traces.append(trace)
        self.network.sim.schedule(self.interval_ms, self._tick)
