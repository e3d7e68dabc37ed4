"""Analytic update-time model.

The demo's measured quantity is the *update time of flow tables*: how long
the controller needs from the first FlowMod to the last barrier reply.  For
a round schedule over an asynchronous control channel this decomposes per
round into (a) shipping the round's FlowMods (half an RTT), (b) the slowest
switch of the round applying its rule changes, and (c) the barrier exchange
confirming the round (half an RTT back plus barrier processing).

The model here predicts that time from a handful of parameters; E5 checks
it against the event-driven simulation.  It intentionally ignores
controller compute time and message serialization, which the simulation
includes, so expect the model to be a slight *under*-estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.schedule import UpdateSchedule

#: Rules one switch changes per round: a round schedule updates one rule
#: at each of its switches.
RULES_PER_SWITCH = 1


@dataclass(frozen=True)
class CostModel:
    """Latency parameters, all in milliseconds.

    ``rtt_ms`` is controller<->switch round-trip time; ``install_ms`` the
    per-FlowMod application time on a switch (Kuzniar et al. report
    anything from well under a millisecond on OVS to tens or hundreds of
    milliseconds on hardware tables); ``barrier_ms`` the barrier processing
    overhead on the switch.  ``per_switch_install_ms`` can pin individual
    switches to other speeds (heterogeneous hardware).
    """

    rtt_ms: float = 2.0
    install_ms: float = 0.5
    barrier_ms: float = 0.1
    per_switch_install_ms: dict = field(default_factory=dict)

    def install_time(self, node) -> float:
        base = self.per_switch_install_ms.get(node, self.install_ms)
        return base * RULES_PER_SWITCH

    def round_time(self, nodes) -> float:
        """Duration of one barrier-fenced round over ``nodes``."""
        slowest = max((self.install_time(node) for node in nodes), default=0.0)
        return self.rtt_ms + slowest + self.barrier_ms


def schedule_update_time(schedule: UpdateSchedule, cost: CostModel) -> float:
    """Predicted update time of a round schedule, in milliseconds."""
    return sum(cost.round_time(round_nodes) for round_nodes in schedule.rounds)


def round_time_breakdown(
    schedule: UpdateSchedule, cost: CostModel
) -> list[dict]:
    """Per-round component table used by E5's report."""
    rows = []
    for index, round_nodes in enumerate(schedule.rounds):
        slowest = max(
            (cost.install_time(node) for node in round_nodes), default=0.0
        )
        rows.append(
            {
                "round": index,
                "switches": len(round_nodes),
                "rtt_ms": cost.rtt_ms,
                "slowest_install_ms": slowest,
                "barrier_ms": cost.barrier_ms,
                "total_ms": cost.rtt_ms + slowest + cost.barrier_ms,
            }
        )
    return rows


#: Install-latency presets, loosely after Kuzniar et al., PAM'15 ("What you
#: need to know about SDN flow tables"): software switches apply FlowMods in
#: well under a millisecond, hardware TCAM updates take orders of magnitude
#: longer and vary wildly between vendors.
OVS_FAST = CostModel(rtt_ms=2.0, install_ms=0.3, barrier_ms=0.05)
HARDWARE_TCAM = CostModel(rtt_ms=5.0, install_ms=30.0, barrier_ms=1.0)
