"""OpenFlow control messages (everything except FlowMod and stats).

Messages are plain dataclasses with an ``xid`` transaction id.  Barrier
request/reply are the stars of the show -- the paper's rounds are fenced
with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.openflow.constants import (
    OFP_NO_BUFFER,
    ErrorType,
    FlowRemovedReason,
    MsgType,
    PacketInReason,
    Port,
)
from repro.openflow.actions import Action
from repro.openflow.match import Match


@dataclass
class OpenFlowMessage:
    """Base class: every message carries a transaction id."""

    xid: int = 0

    msg_type: ClassVar[MsgType]

    def type_name(self) -> str:
        return self.msg_type.name


@dataclass
class Hello(OpenFlowMessage):
    """Version negotiation opener (we only speak 1.3)."""

    msg_type: ClassVar[MsgType] = MsgType.HELLO


@dataclass
class EchoRequest(OpenFlowMessage):
    """Liveness probe; the payload is echoed back."""

    data: bytes = b""

    msg_type: ClassVar[MsgType] = MsgType.ECHO_REQUEST


@dataclass
class EchoReply(OpenFlowMessage):
    data: bytes = b""

    msg_type: ClassVar[MsgType] = MsgType.ECHO_REPLY


@dataclass
class FeaturesRequest(OpenFlowMessage):
    msg_type: ClassVar[MsgType] = MsgType.FEATURES_REQUEST


@dataclass
class FeaturesReply(OpenFlowMessage):
    """Switch self-description; ``datapath_id`` is the switch identity."""

    datapath_id: int = 0
    n_buffers: int = 256
    n_tables: int = 254
    auxiliary_id: int = 0
    capabilities: int = 0x4F

    msg_type: ClassVar[MsgType] = MsgType.FEATURES_REPLY


@dataclass
class BarrierRequest(OpenFlowMessage):
    """Fence: the switch must finish all earlier messages before replying."""

    msg_type: ClassVar[MsgType] = MsgType.BARRIER_REQUEST


@dataclass
class BarrierReply(OpenFlowMessage):
    """Acknowledges a :class:`BarrierRequest` with the same xid."""

    msg_type: ClassVar[MsgType] = MsgType.BARRIER_REPLY


@dataclass
class ErrorMsg(OpenFlowMessage):
    """Switch-side rejection of a request."""

    err_type: int = int(ErrorType.BAD_REQUEST)
    err_code: int = 0
    data: bytes = b""

    msg_type: ClassVar[MsgType] = MsgType.ERROR

    def describe(self) -> str:
        try:
            type_name = ErrorType(self.err_type).name
        except ValueError:  # pragma: no cover - unknown vendor type
            type_name = f"type-{self.err_type}"
        return f"{type_name}/code-{self.err_code}"


@dataclass
class PacketIn(OpenFlowMessage):
    """A data packet punted to the controller."""

    buffer_id: int = OFP_NO_BUFFER
    total_len: int = 0
    reason: int = int(PacketInReason.NO_MATCH)
    table_id: int = 0
    cookie: int = 0
    match: Match = field(default_factory=Match)
    data: bytes = b""

    msg_type: ClassVar[MsgType] = MsgType.PACKET_IN

    def __post_init__(self) -> None:
        if self.total_len == 0 and self.data:
            self.total_len = len(self.data)


@dataclass
class PacketOut(OpenFlowMessage):
    """A controller-originated packet injected into the dataplane."""

    buffer_id: int = OFP_NO_BUFFER
    in_port: int = int(Port.CONTROLLER)
    actions: tuple[Action, ...] = ()
    data: bytes = b""

    msg_type: ClassVar[MsgType] = MsgType.PACKET_OUT


@dataclass
class FlowRemoved(OpenFlowMessage):
    """Notification that a flow entry expired or was deleted."""

    cookie: int = 0
    priority: int = 0
    reason: int = int(FlowRemovedReason.DELETE)
    table_id: int = 0
    duration_sec: int = 0
    duration_nsec: int = 0
    idle_timeout: int = 0
    hard_timeout: int = 0
    packet_count: int = 0
    byte_count: int = 0
    match: Match = field(default_factory=Match)

    msg_type: ClassVar[MsgType] = MsgType.FLOW_REMOVED


def summarize(message: Any) -> str:
    """One-line human summary used by traces and logs."""
    if isinstance(message, OpenFlowMessage):
        return f"{message.type_name()}(xid={message.xid})"
    return repr(message)
