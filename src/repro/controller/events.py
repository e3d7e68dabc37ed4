"""Controller-side events dispatched to apps (Ryu's event model, simplified)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ControllerEvent:
    """Base class for events handed to apps."""

    time_ms: float


@dataclass(frozen=True)
class UpdateRoundCompleted(ControllerEvent):
    """One round of a queued update finished (all barriers in)."""

    update_id: str
    round_index: int
    duration_ms: float


@dataclass(frozen=True)
class UpdateCompleted(ControllerEvent):
    """A queued update finished all its rounds."""

    update_id: str
    rounds: int
    duration_ms: float
