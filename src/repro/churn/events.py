"""Churn-trace event types.

A churn trace is a timed sequence of control-plane stimuli delivered to
the online controller over the deterministic simulator
(:class:`repro.sim.simulator.Simulator`): update *arrivals* (a flow wants
a new path), *cancellations* (an earlier request is withdrawn), and
*link failures* (the topology changes underneath in-flight rounds).
Each event type is a frozen dataclass so traces are hashable-by-parts,
picklable across campaign pool workers, and trivially serializable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ChurnError


@dataclass(frozen=True)
class ChurnEvent:
    """Base: something that happens at a simulated instant (ms)."""

    time_ms: float


@dataclass(frozen=True)
class UpdateArrival(ChurnEvent):
    """A request to move ``flow_id`` onto ``target_path``.

    ``waypointed`` asks the controller to enforce waypoint traversal
    through a deterministic common interior node of the current and
    target paths (when one exists); the concrete waypoint is resolved at
    processing time because only the controller knows the flow's current
    path.
    """

    request_id: str = ""
    flow_id: str = ""
    target_path: tuple = ()
    waypointed: bool = False

    def __post_init__(self) -> None:
        if not self.request_id or not self.flow_id:
            raise ChurnError("an arrival needs request_id and flow_id")
        if len(self.target_path) < 2:
            raise ChurnError(
                f"arrival {self.request_id!r} needs a target path of >= 2 "
                f"nodes, got {self.target_path!r}"
            )


@dataclass(frozen=True)
class UpdateCancel(ChurnEvent):
    """Withdraw an earlier request (no-op if it already settled)."""

    request_id: str = ""

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ChurnError("a cancellation needs a request_id")


@dataclass(frozen=True)
class LinkFailure(ChurnEvent):
    """Bidirectional link ``(u, v)`` goes down and stays down.

    In-flight updates whose target path crosses the link are invalidated
    and must re-plan; idle flows whose installed path crosses it get a
    restoration update synthesized by the controller.
    """

    link: tuple = ()

    def __post_init__(self) -> None:
        if len(self.link) != 2 or self.link[0] == self.link[1]:
            raise ChurnError(f"a link failure needs a (u, v) pair, got {self.link!r}")


def event_sort_key(event: ChurnEvent) -> tuple:
    """Deterministic trace order: time, then kind rank, then identity.

    Simultaneous events process arrivals before cancellations before
    failures, so a same-instant cancel of a same-instant arrival is
    well-defined (it cancels it) on every run.
    """
    if isinstance(event, UpdateArrival):
        return (event.time_ms, 0, event.request_id)
    if isinstance(event, UpdateCancel):
        return (event.time_ms, 1, event.request_id)
    if isinstance(event, LinkFailure):
        return (event.time_ms, 2, repr(event.link))
    raise ChurnError(f"unknown churn event {event!r}")
