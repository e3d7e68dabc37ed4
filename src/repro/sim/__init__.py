"""Deterministic discrete-event simulation substrate."""

from repro.sim.events import ScheduledEvent
from repro.sim.random_source import RandomStreams, derive_seed
from repro.sim.simulator import Simulator

__all__ = [
    "RandomStreams",
    "ScheduledEvent",
    "Simulator",
    "derive_seed",
]
