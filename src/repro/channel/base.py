"""Asynchronous control channels between the controller and switches.

The channel is where the paper's problem lives: OpenFlow commands travel
over an asynchronous network, so the time between *sending* a FlowMod and
the rule *taking effect* varies per switch and per message.  A
:class:`ControlChannel` is a duplex, event-driven pipe with a pluggable
latency model, optional loss (modelled as retransmission delay, as TCP
would surface it) and a choice between FIFO delivery (TCP-like, per
direction) and free reordering (the adversarial end-to-end behaviour the
demo guards against).

A channel's endpoints own it, so it holds a method bound as a handler
weakly, through the method's object: a network dies by reference count.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from types import MethodType
from typing import Any, Callable

from repro.errors import ChannelClosedError, ChannelError
from repro.channel.latency_models import Constant, LatencyModel
from repro.sim.simulator import Simulator

#: Retransmissions after which a lossy channel gives up on a message.
MAX_RETRIES = 16
#: Milliseconds a dropped transmission costs before it is sent again.
RTO_MS = 50.0


@dataclass
class ChannelStats:
    """Counters kept per channel, per direction."""

    to_switch_sent: int = 0
    to_switch_delivered: int = 0
    to_controller_sent: int = 0
    to_controller_delivered: int = 0
    retransmissions: int = 0
    latency_sum_ms: float = 0.0

    def mean_latency_ms(self) -> float:
        delivered = self.to_switch_delivered + self.to_controller_delivered
        return self.latency_sum_ms / delivered if delivered else 0.0


class ControlChannel:
    """Duplex controller<->switch channel on a shared simulator.

    Parameters
    ----------
    sim:
        The shared :class:`~repro.sim.simulator.Simulator`.
    latency:
        Per-message one-way delay distribution.
    rng:
        Dedicated random stream (see :class:`~repro.sim.random_source.RandomStreams`).
    fifo:
        When True (default, TCP-like) each direction delivers in send
        order; when False messages may overtake each other.
    drop_prob:
        Loss is surfaced the way TCP surfaces it: a dropped transmission
        costs one retransmission timeout (:data:`RTO_MS`) and is retried,
        so the message arrives late rather than never (up to
        :data:`MAX_RETRIES` times).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | float = 1.0,
        rng: random.Random | None = None,
        name: str = "chan",
        fifo: bool = True,
        drop_prob: float = 0.0,
    ) -> None:
        if not 0.0 <= drop_prob < 1.0:
            raise ChannelError(f"drop_prob must be in [0, 1), got {drop_prob}")
        self.sim = sim
        self.latency = Constant(float(latency)) if isinstance(latency, (int, float)) else latency
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name
        self.fifo = fifo
        self.drop_prob = drop_prob
        self.stats = ChannelStats()
        self._closed = False
        #: per side, ``(owner, receive)`` as :func:`_endpoint` makes it
        self._switch_end: tuple | None = None
        self._controller_end: tuple | None = None
        # per-direction FIFO horizon: nothing may be delivered before it
        self._horizon = {"switch": 0.0, "controller": 0.0}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind_switch(self, handler: Callable[[Any], None]) -> None:
        """Register the switch-side receive callback."""
        self._switch_end = _endpoint(handler)

    def bind_controller(self, handler: Callable[[Any], None]) -> None:
        """Register the controller-side receive callback."""
        self._controller_end = _endpoint(handler)

    def close(self) -> None:
        """Stop accepting messages (in-flight ones still deliver)."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def to_switch(self, message: Any) -> float:
        """Send ``message`` controller->switch; returns the delivery time."""
        self.stats.to_switch_sent += 1
        return self._send(message, "switch")

    def to_controller(self, message: Any) -> float:
        """Send ``message`` switch->controller; returns the delivery time."""
        self.stats.to_controller_sent += 1
        return self._send(message, "controller")

    def _send(self, message: Any, direction: str) -> float:
        if self._closed:
            raise ChannelClosedError(f"channel {self.name!r} is closed")
        delay = self.latency.sample(self.rng)
        retries = 0
        while self.drop_prob and self.rng.random() < self.drop_prob:
            retries += 1
            if retries > MAX_RETRIES:
                raise ChannelError(
                    f"channel {self.name!r} exceeded {MAX_RETRIES} retries"
                )
            delay += RTO_MS + self.latency.sample(self.rng)
        self.stats.retransmissions += retries
        deliver_at = self.sim.now + delay
        if self.fifo:
            deliver_at = max(deliver_at, self._horizon[direction])
            self._horizon[direction] = deliver_at
        self.stats.latency_sum_ms += deliver_at - self.sim.now
        self.sim.schedule_at(deliver_at, self._deliver, message, direction)
        return deliver_at

    def _deliver(self, message: Any, direction: str) -> None:
        if direction == "switch":
            end = self._switch_end
            self.stats.to_switch_delivered += 1
        else:
            end = self._controller_end
            self.stats.to_controller_delivered += 1
        if end is None:
            raise ChannelError(
                f"channel {self.name!r} has no {direction}-side handler bound"
            )
        owner, receive = end
        if owner is None:
            receive(message)
            return
        receiver = owner()
        if receiver is None:
            raise ChannelError(f"channel {self.name!r}: its {direction} is gone")
        receive(receiver, message)


def _endpoint(handler: Callable[[Any], None]) -> tuple:
    """``(owner, receive)``: a bound method as a weak reference to its
    object and its function; any other callable (a list's ``append``, a
    lambda) as it is, ``owner`` ``None``."""
    if isinstance(handler, MethodType):
        return weakref.ref(handler.__self__), handler.__func__
    return None, handler
