"""Fault injection for the campaign fabric.

A :class:`ChaosConfig` declares, deterministically, the faults one worker
will suffer: dying mid-cell (SIGKILL for process workers, a raised
:class:`ChaosKill` for in-thread test workers), freezing its heartbeats,
and dropping / duplicating / delaying shard submissions.  The
:class:`Chaos` runtime object counts events and answers "what happens to
the Nth submission?" -- faults are keyed on ordinals, never wall clock or
randomness, so a fault scenario replays identically every run.

The fabric's robustness claims are exactly the ones this module attacks:

* a killed or frozen worker's leases expire and its cells are reclaimed;
* a dropped submission is indistinguishable from a death between compute
  and submit -- the cell is re-leased and re-run;
* a duplicated or delayed (possibly post-reclaim) submission is absorbed
  by the coordinator's idempotent at-least-once accept path.

PR 10 adds the *integrity* adversaries: ``corrupt_submits`` damages a
record after its checksum is computed (wire corruption -- the
coordinator's checksum validation must reject it), ``lie_after_cells``
falsifies records *before* checksumming (a plausible lie only audit
re-execution can catch), and ``die_on_cells`` kills the worker whenever
it draws a named cell (the poison-cell scenario: every fresh worker that
leases the cell dies the same way).

PR 8 extends the attack to the *coordinator* tier:
:class:`CoordinatorChaosConfig` kills the serving process right after the
Nth accept is journaled but before it is acknowledged or flushed -- the
worst spot for the write-ahead journal: the worker never saw the ack, the
results file never saw the record.  Recovery must replay the journal,
re-admit the shard, and never re-run the cell.
:class:`CoordinatorKillSchedule` strings several such deaths (plus
restart delays) into the deterministic script the crash smoke drives.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field
from typing import Mapping


class ChaosKill(Exception):
    """An injected worker death (exception mode, for in-thread workers)."""


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic fault plan for one worker.

    ``kill_after_cells=k`` kills the worker mid-cell -- after it computed
    its ``k``-th record but before submitting it, the worst spot: work
    done, coordinator unaware.  ``kill_mode`` picks SIGKILL (process
    workers) or :class:`ChaosKill` (thread workers, which cannot be
    SIGKILLed individually).  ``freeze_heartbeats_after=n`` silences the
    heartbeat loop after ``n`` beats (``0`` freezes it from the start).
    ``drop_submits`` / ``duplicate_submits`` are 0-based submission
    ordinals to lose or send twice; ``delay_submits`` maps ordinals to a
    delay in seconds applied before the submission goes out.
    """

    kill_after_cells: int | None = None
    kill_mode: str = "sigkill"  # "sigkill" | "exception"
    freeze_heartbeats_after: int | None = None
    drop_submits: tuple[int, ...] = ()
    duplicate_submits: tuple[int, ...] = ()
    delay_submits: Mapping[int, float] = field(default_factory=dict)
    #: 0-based submission ordinals whose record is bit-flipped *after*
    #: the integrity checksum is computed -- wire corruption, caught by
    #: the coordinator's checksum validation.
    corrupt_submits: tuple[int, ...] = ()
    #: After this many honest cells the worker *lies*: it mutates the
    #: record plausibly before checksumming, so the checksum matches and
    #: only audit re-execution can catch it.  ``0`` lies from the start.
    lie_after_cells: int | None = None
    #: Cell ids the worker dies on (before computing them) -- the
    #: poison-cell scenario: same cell, fresh worker, same death.
    die_on_cells: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Plain-JSON form (process workers receive their plan as args)."""
        return {
            "kill_after_cells": self.kill_after_cells,
            "kill_mode": self.kill_mode,
            "freeze_heartbeats_after": self.freeze_heartbeats_after,
            "drop_submits": list(self.drop_submits),
            "duplicate_submits": list(self.duplicate_submits),
            "delay_submits": {str(k): v for k, v in self.delay_submits.items()},
            "corrupt_submits": list(self.corrupt_submits),
            "lie_after_cells": self.lie_after_cells,
            "die_on_cells": list(self.die_on_cells),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ChaosConfig":
        return cls(
            kill_after_cells=data.get("kill_after_cells"),
            kill_mode=data.get("kill_mode", "sigkill"),
            freeze_heartbeats_after=data.get("freeze_heartbeats_after"),
            drop_submits=tuple(data.get("drop_submits", ())),
            duplicate_submits=tuple(data.get("duplicate_submits", ())),
            delay_submits={
                int(k): float(v)
                for k, v in dict(data.get("delay_submits", {})).items()
            },
            corrupt_submits=tuple(data.get("corrupt_submits", ())),
            lie_after_cells=data.get("lie_after_cells"),
            die_on_cells=tuple(data.get("die_on_cells", ())),
        )


@dataclass
class SubmitPlan:
    """What chaos decided for one submission."""

    drop: bool = False
    duplicate: bool = False
    delay_s: float = 0.0
    corrupt: bool = False


class Chaos:
    """Per-worker fault runtime: counts events, applies the config."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self.cells_computed = 0
        self.submits_attempted = 0
        self.heartbeats_sent = 0

    def on_cell_computed(self) -> None:
        """Called between computing a record and submitting it; the
        configured death point."""
        self.cells_computed += 1
        if self.config.kill_after_cells is None:
            return
        if self.cells_computed >= self.config.kill_after_cells:
            if self.config.kill_mode == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ChaosKill(
                f"worker killed mid-cell #{self.cells_computed}"
            )

    def submit_plan(self) -> SubmitPlan:
        ordinal = self.submits_attempted
        self.submits_attempted += 1
        return SubmitPlan(
            drop=ordinal in self.config.drop_submits,
            duplicate=ordinal in self.config.duplicate_submits,
            delay_s=float(self.config.delay_submits.get(ordinal, 0.0)),
            corrupt=ordinal in self.config.corrupt_submits,
        )

    def maybe_die_on(self, cell_id: str) -> None:
        """Die before computing a configured poison cell."""
        if cell_id not in self.config.die_on_cells:
            return
        if self.config.kill_mode == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise ChaosKill(f"worker killed on poison cell {cell_id}")

    def lying(self) -> bool:
        """Whether the *current* cell's record should be falsified.

        Keyed on cells computed so far (``on_cell_computed`` has already
        counted the current cell when this is consulted), so
        ``lie_after_cells=k`` means the first ``k`` records are honest.
        """
        lie_after = self.config.lie_after_cells
        return lie_after is not None and self.cells_computed > lie_after

    @staticmethod
    def lie(record: Mapping) -> dict:
        """A *plausible* falsification: well-formed, correctly
        checksummed, only byte-comparison against an honest re-run can
        expose it."""
        lied = dict(record)
        if isinstance(lied.get("rounds"), int):
            lied["rounds"] = lied["rounds"] + 1
        else:
            lied["detail"] = f"{lied.get('detail') or ''}~"
        return lied

    @staticmethod
    def corrupt(record: Mapping) -> dict:
        """Post-checksum bit damage (wire corruption): the checksum the
        worker attached no longer matches what arrives."""
        damaged = dict(record)
        damaged["seed"] = int(damaged.get("seed") or 0) ^ 1
        return damaged

    def heartbeat_allowed(self) -> bool:
        frozen_after = self.config.freeze_heartbeats_after
        if frozen_after is not None and self.heartbeats_sent >= frozen_after:
            return False
        self.heartbeats_sent += 1
        return True


@dataclass(frozen=True)
class CoordinatorChaosConfig:
    """Deterministic fault plan for one coordinator incarnation.

    ``kill_after_accepts=n`` kills the coordinator immediately after its
    ``n``-th accept is *journaled* but before it is acknowledged to the
    worker or flushed to ``results.jsonl`` -- the exact window the
    write-ahead journal exists to cover.  ``kill_mode`` is ``"sigkill"``
    (process coordinators, the crash smoke) or ``"exception"`` (raise
    :class:`ChaosKill`, for in-process tests that cannot lose the
    interpreter).  Ordinal-keyed, so a schedule replays identically.
    """

    kill_after_accepts: int | None = None
    kill_mode: str = "sigkill"  # "sigkill" | "exception"


class CoordinatorChaos:
    """Coordinator-side fault runtime; ``on_accept`` is called by the
    coordinator right after journaling an accept, before acking it."""

    def __init__(self, config: CoordinatorChaosConfig) -> None:
        self.config = config
        self.accepts = 0

    def on_accept(self) -> None:
        self.accepts += 1
        if self.config.kill_after_accepts is None:
            return
        if self.accepts >= self.config.kill_after_accepts:
            if self.config.kill_mode == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ChaosKill(
                f"coordinator killed after accept #{self.accepts}"
            )


@dataclass(frozen=True)
class CoordinatorKillSchedule:
    """One scripted coordinator death in a crash scenario: SIGKILL after
    ``kill_after_accepts`` journaled accepts, then restart the serving
    process ``restart_delay_s`` later.  A scenario is a list of these;
    the final incarnation runs with no kill and finishes the campaign.
    """

    kill_after_accepts: int
    restart_delay_s: float = 1.0

    def to_dict(self) -> dict:
        return {
            "kill_after_accepts": self.kill_after_accepts,
            "restart_delay_s": self.restart_delay_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CoordinatorKillSchedule":
        return cls(
            kill_after_accepts=int(data["kill_after_accepts"]),
            restart_delay_s=float(data.get("restart_delay_s", 1.0)),
        )
