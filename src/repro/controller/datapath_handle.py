"""Controller-side handle for one connected switch (Ryu's ``Datapath``)."""

from __future__ import annotations

from typing import Iterator

from repro.channel.base import ControlChannel
from repro.openflow.messages import BarrierRequest, OpenFlowMessage


class Datapath:
    """Send-side view of a switch connection; xids come from its
    controller's counter, which it shares rather than the controller."""

    def __init__(self, dpid: int, channel: ControlChannel, xids: Iterator[int]) -> None:
        self.dpid = dpid
        self.channel = channel
        self._xids = xids
        self.messages_sent = 0

    def send_msg(self, message: OpenFlowMessage) -> int:
        """Assign an xid (when unset) and ship the message; returns the xid."""
        if message.xid == 0:
            message.xid = next(self._xids)
        self.messages_sent += 1
        self.channel.to_switch(message)
        return message.xid

    def send_barrier(self) -> int:
        """Send a BarrierRequest; returns its xid for reply matching."""
        return self.send_msg(BarrierRequest())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Datapath(dpid={self.dpid})"
