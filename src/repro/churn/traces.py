"""Deterministic seeded churn-trace generators.

A :class:`ChurnTrace` bundles a topology, a set of long-lived flows with
installed initial paths, and a time-ordered event sequence (arrivals,
cancellations, link failures).  Two topology shapes are provided:

``fat-tree``
    A k-ary fat-tree (``size`` = k, even) -- the data-center shape whose
    pod/core structure produces realistic partial-overlap reroutes.
``wan``
    A connected Waxman random graph (``size`` = node count) -- the
    classic ISP-like wide-area shape.

Generation is a pure function of ``(kind, size, params, seed)``: one
``random.Random(seed)`` drives every sample in a fixed order, so the
same inputs reproduce the byte-identical trace on every run, machine,
and worker -- the campaign determinism contract extended to churn.
:func:`generate_trace` is the one place ``params`` are checked, against
:data:`repro.churn_options.TRACE_PARAMS`, whoever calls it.

Arrival times follow a Poisson process at ``rate_per_s`` over
``duration_ms``; each arrival targets a uniformly chosen flow with a
freshly sampled simple path between the flow's fixed endpoints.  Each
arrival is independently cancelled with probability ``cancel_prob`` at a
uniform later instant, and ``link_failures`` random links fail at
uniform instants over the trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.churn.events import (
    ChurnEvent,
    LinkFailure,
    UpdateArrival,
    UpdateCancel,
    event_sort_key,
)
from repro.churn_options import TRACE_KNOBS, trace_params
from repro.errors import ChurnError
from repro.topology import builders
from repro.topology.graph import Topology
from repro.topology.random_graphs import sample_simple_path, waxman

TRACE_KINDS = ("fat-tree", "wan")


@dataclass(frozen=True)
class FlowSpec:
    """One long-lived flow: fixed endpoints, an installed initial path."""

    flow_id: str
    path: tuple

    @property
    def source(self):
        return self.path[0]

    @property
    def destination(self):
        return self.path[-1]


@dataclass
class ChurnTrace:
    """A topology, its flows, and the timed churn events against them."""

    name: str
    kind: str
    size: int
    seed: int
    topology: Topology
    flows: tuple
    events: tuple
    duration_ms: float
    params: dict = field(default_factory=dict)

    @property
    def arrivals(self) -> tuple:
        return tuple(e for e in self.events if isinstance(e, UpdateArrival))

    def summary(self) -> dict:
        """JSON-compatible shape record (no topology dump)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "size": self.size,
            "seed": self.seed,
            "switches": len(self.topology.switches()),
            "links": len(self.topology.links()),
            "flows": len(self.flows),
            "arrivals": sum(
                1 for e in self.events if isinstance(e, UpdateArrival)
            ),
            "cancels": sum(
                1 for e in self.events if isinstance(e, UpdateCancel)
            ),
            "link_failures": sum(
                1 for e in self.events if isinstance(e, LinkFailure)
            ),
            "duration_ms": self.duration_ms,
            "params": dict(self.params),
        }


def _sample_flows(
    topo: Topology, n_flows: int, rng: random.Random
) -> tuple:
    switches = topo.switches()
    if len(switches) < 2:
        raise ChurnError("churn traces need at least two switches")
    flows = []
    for index in range(n_flows):
        for _ in range(200):
            source, destination = rng.sample(switches, 2)
            path = sample_simple_path(topo, source, destination, rng)
            if path is not None and len(path) >= 3:
                flows.append(FlowSpec(flow_id=f"f{index}", path=path))
                break
        else:
            raise ChurnError(
                f"could not sample an initial path for flow {index}"
            )
    return tuple(flows)


def _build_topology(kind: str, size: int, seed: int) -> Topology:
    if kind == "fat-tree":
        return builders.fat_tree(size)
    if kind == "wan":
        return waxman(size, seed=random.Random(seed))
    raise ChurnError(f"unknown churn topology kind {kind!r}; known: {TRACE_KINDS}")


def generate_trace(kind: str, size: int, seed: int, **knobs: Any) -> ChurnTrace:
    """Generate one deterministic churn trace (see module docstring).

    ``knobs`` are :data:`~repro.churn_options.TRACE_KNOBS` by name, each
    defaulting to its row's default.  This is the one place they are
    checked: the CLI, a campaign cell and a library call all meet
    :data:`~repro.churn_options.TRACE_PARAMS`' bounds here, and each
    value is cast to its default's type.
    """
    given = trace_params(knobs)
    params = {row.name: given.get(row.name, row.default) for row in TRACE_KNOBS}
    duration_ms = params["duration_ms"]
    rng = random.Random(seed)
    topo = _build_topology(kind, size, seed)
    flow_specs = _sample_flows(topo, params["flows"], rng)

    events: list[ChurnEvent] = []
    clock_ms = 0.0
    request_index = 0
    rate_per_ms = params["rate_per_s"] / 1000.0
    while True:
        clock_ms += rng.expovariate(rate_per_ms)
        if clock_ms >= duration_ms:
            break
        flow = rng.choice(flow_specs)
        target = sample_simple_path(topo, flow.source, flow.destination, rng)
        if target is None:  # pragma: no cover - connected generators
            continue
        arrival = UpdateArrival(
            time_ms=round(clock_ms, 6),
            request_id=f"r{request_index}",
            flow_id=flow.flow_id,
            target_path=target,
            waypointed=rng.random() < params["waypoint_prob"],
        )
        request_index += 1
        events.append(arrival)
        if rng.random() < params["cancel_prob"]:
            cancel_at = rng.uniform(arrival.time_ms, duration_ms)
            events.append(
                UpdateCancel(
                    time_ms=round(cancel_at, 6), request_id=arrival.request_id
                )
            )
    switches = set(topo.switches())
    fabric_links = [
        link
        for link in topo.links()
        if link.a in switches and link.b in switches
    ]
    for _ in range(params["link_failures"]):
        if not fabric_links:
            break
        link = rng.choice(fabric_links)
        events.append(
            LinkFailure(
                time_ms=round(rng.uniform(0.0, duration_ms), 6),
                link=tuple(sorted(link.endpoints(), key=repr)),
            )
        )
    events.sort(key=event_sort_key)
    return ChurnTrace(
        name=f"churn-{kind}-{size}-s{seed}",
        kind=kind,
        size=size,
        seed=seed,
        topology=topo,
        flows=flow_specs,
        events=tuple(events),
        duration_ms=duration_ms,
        params=params,
    )
