"""The paper's update message queue and round FSM (section 2, verbatim).

Quoting the prototype description: REST messages are enqueued; the
controller processes the head message starting at its first round; it sends
every switch of the round its OpenFlow messages, then a barrier request to
each, and waits.  Every barrier reply removes its source switch from the
round's pending set; when the set empties, the next round starts (after the
optional ``interval``); when no round remains, the message is dequeued and
the next message processed.

:class:`UpdateQueueApp` implements exactly that FSM on top of the
controller runtime, with timing instrumentation for the E2/E5 benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ControllerError
from repro.controller.app import RyuLikeApp
from repro.controller.datapath_handle import Datapath
from repro.controller.events import UpdateCompleted, UpdateRoundCompleted
from repro.controller.rules import CompiledUpdate
from repro.openflow.messages import BarrierReply
from repro.sim.events import RoundTiming


@dataclass
class UpdateExecution:
    """One queued update message plus its execution state."""

    update_id: str
    compiled: CompiledUpdate
    interval_ms: float = 0.0
    use_barriers: bool = True
    metadata: dict = field(default_factory=dict)
    current_round: int = -1
    pending_dpids: set = field(default_factory=set)
    barrier_xids: dict[int, Any] = field(default_factory=dict)  # xid -> dpid
    started_ms: float | None = None
    finished_ms: float | None = None
    round_timings: list[RoundTiming] = field(default_factory=list)
    errors: list[Any] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        return len(self.compiled.rounds)

    @property
    def done(self) -> bool:
        return self.finished_ms is not None

    @property
    def duration_ms(self) -> float:
        if self.started_ms is None or self.finished_ms is None:
            raise ControllerError(f"update {self.update_id!r} not finished")
        return self.finished_ms - self.started_ms


class UpdateQueueApp(RyuLikeApp):
    """FIFO queue of compiled updates, executed round-by-round with barriers."""

    name = "update-queue"

    def __init__(self) -> None:
        super().__init__()
        self.queue: list[UpdateExecution] = []
        self.completed: list[UpdateExecution] = []
        self._id_counter = itertools.count(1)
        #: observers called with the completion events
        self.on_update_complete: list[Callable[[UpdateCompleted], None]] = []
        self.on_round_complete: list[Callable[[UpdateRoundCompleted], None]] = []

    # ------------------------------------------------------------------
    # enqueue / drive
    # ------------------------------------------------------------------
    def submit(
        self,
        compiled: CompiledUpdate,
        interval_ms: float = 0.0,
        update_id: str | None = None,
        metadata: dict | None = None,
        use_barriers: bool = True,
    ) -> UpdateExecution:
        """Queue a compiled update; starts immediately if the queue was idle.

        ``use_barriers=False`` is the E6 ablation: rounds are paced purely
        by ``interval_ms`` timers with no barrier fencing, so a slow switch
        can still be applying round ``r`` while round ``r+1`` ships --
        exactly the failure mode barriers exist to prevent.
        """
        if update_id is None:
            update_id = f"update-{next(self._id_counter)}"
        execution = UpdateExecution(
            update_id=update_id,
            compiled=compiled,
            interval_ms=interval_ms,
            use_barriers=use_barriers,
            metadata=dict(metadata or {}),
        )
        self.queue.append(execution)
        if len(self.queue) == 1:
            self._start_head()
        return execution

    def _controller(self):
        if self.controller is None:
            raise ControllerError("update queue app is not registered")
        return self.controller

    def _start_head(self) -> None:
        controller = self._controller()
        if not self.queue:
            return
        execution = self.queue[0]
        execution.started_ms = controller.sim.now
        self._start_round(execution, 0)

    def _start_round(self, execution: UpdateExecution, index: int) -> None:
        controller = self._controller()
        if index >= execution.n_rounds:
            self._finish_head(execution)
            return
        execution.current_round = index
        compiled_round = execution.compiled.rounds[index]
        execution.round_timings.append(
            RoundTiming(index=index, started_ms=controller.sim.now)
        )
        execution.pending_dpids = set(compiled_round.mods_by_dpid)
        if not execution.pending_dpids:
            self._complete_round(execution)
            return
        # Send each switch its FlowMods, then fence the round with barriers.
        for dpid in compiled_round.switches():
            datapath = controller.datapath(dpid)
            for mod in compiled_round.mods_by_dpid[dpid]:
                datapath.send_msg(mod.with_xid(0))
        if not execution.use_barriers:
            # Ablation: no fencing; the round "completes" immediately and
            # pacing falls entirely to the inter-round interval timer.
            execution.pending_dpids.clear()
            self._complete_round(execution)
            return
        for dpid in compiled_round.switches():
            datapath = controller.datapath(dpid)
            xid = datapath.send_barrier()
            execution.barrier_xids[xid] = dpid

    def on_barrier_reply(self, datapath: Datapath, message: BarrierReply) -> None:
        if not self.queue:
            return
        execution = self.queue[0]
        dpid = execution.barrier_xids.pop(message.xid, None)
        if dpid is None:
            return  # barrier from someone else's round
        execution.pending_dpids.discard(dpid)
        if not execution.pending_dpids:
            self._complete_round(execution)

    def _complete_round(self, execution: UpdateExecution) -> None:
        controller = self._controller()
        timing = execution.round_timings[-1]
        timing.finished_ms = controller.sim.now
        event = UpdateRoundCompleted(
            time_ms=controller.sim.now,
            update_id=execution.update_id,
            round_index=execution.current_round,
            duration_ms=timing.duration_ms,
        )
        for observer in self.on_round_complete:
            observer(event)
        next_round = execution.current_round + 1
        if execution.interval_ms > 0 and next_round < execution.n_rounds:
            controller.sim.schedule(
                execution.interval_ms, self._start_round, execution, next_round
            )
        else:
            self._start_round(execution, next_round)

    def _finish_head(self, execution: UpdateExecution) -> None:
        controller = self._controller()
        execution.finished_ms = controller.sim.now
        self.queue.pop(0)
        self.completed.append(execution)
        event = UpdateCompleted(
            time_ms=controller.sim.now,
            update_id=execution.update_id,
            rounds=execution.n_rounds,
            duration_ms=execution.duration_ms,
        )
        for observer in self.on_update_complete:
            observer(event)
        if self.queue:
            self._start_head()

    def on_error(self, datapath: Datapath, message: Any) -> None:
        if self.queue:
            self.queue[0].errors.append((datapath.dpid, message))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def find_completed(self, update_id: str) -> UpdateExecution:
        for execution in self.completed:
            if execution.update_id == update_id:
                return execution
        raise ControllerError(f"no completed update {update_id!r}")
