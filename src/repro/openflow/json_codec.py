"""JSON-dict codec for OpenFlow messages (trace export / REST bodies).

The human-readable form used by the REST layer, scenario traces and the CLI
(the simulator passes message objects; there is no binary framing).
Only the message types that travel through those layers are covered.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import OpenFlowError
from repro.openflow.constants import FlowModCommand, MsgType
from repro.openflow.flowmod import FlowMod
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    Hello,
    OpenFlowMessage,
)

_SIMPLE_TYPES: dict[MsgType, type[OpenFlowMessage]] = {
    MsgType.HELLO: Hello,
    MsgType.FEATURES_REQUEST: FeaturesRequest,
    MsgType.BARRIER_REQUEST: BarrierRequest,
    MsgType.BARRIER_REPLY: BarrierReply,
}


def message_to_dict(message: OpenFlowMessage) -> dict[str, Any]:
    """Serialize a message to a JSON-compatible dict (keyed by ``type``)."""
    data: dict[str, Any] = {"type": message.type_name(), "xid": message.xid}
    if isinstance(message, FlowMod):
        data["flow"] = message.to_ofctl()
        data["command"] = message.command.name
    elif isinstance(message, (EchoRequest, EchoReply)):
        data["data"] = message.data.hex()
    elif isinstance(message, ErrorMsg):
        data["err_type"] = message.err_type
        data["err_code"] = message.err_code
    elif isinstance(message, FeaturesReply):
        data["datapath_id"] = message.datapath_id
        data["n_tables"] = message.n_tables
    return data


def message_from_dict(data: Mapping[str, Any]) -> OpenFlowMessage:
    """Inverse of :func:`message_to_dict` for the supported types."""
    try:
        msg_type = MsgType[str(data["type"]).upper()]
    except KeyError:
        raise OpenFlowError(f"unknown message type {data.get('type')!r}") from None
    xid = int(data.get("xid", 0))
    if msg_type in _SIMPLE_TYPES:
        message: OpenFlowMessage = _SIMPLE_TYPES[msg_type]()
    elif msg_type == MsgType.FLOW_MOD:
        command = data.get("command", FlowModCommand.ADD)
        message = FlowMod.from_ofctl(data.get("flow", {}), command=command)
    elif msg_type in (MsgType.ECHO_REQUEST, MsgType.ECHO_REPLY):
        cls = EchoRequest if msg_type == MsgType.ECHO_REQUEST else EchoReply
        message = cls(data=bytes.fromhex(data.get("data", "")))
    elif msg_type == MsgType.ERROR:
        message = ErrorMsg(
            err_type=int(data.get("err_type", 0)),
            err_code=int(data.get("err_code", 0)),
        )
    elif msg_type == MsgType.FEATURES_REPLY:
        message = FeaturesReply(
            datapath_id=int(data.get("datapath_id", 0)),
            n_tables=int(data.get("n_tables", 254)),
        )
    else:
        raise OpenFlowError(f"no dict codec for message type {msg_type.name}")
    message.xid = xid
    return message


def match_to_dict(match: Match) -> dict[str, Any]:
    """Alias for :meth:`Match.to_ofctl` (symmetry with the other helpers)."""
    return match.to_ofctl()


def match_from_dict(data: Mapping[str, Any]) -> Match:
    """Alias for :meth:`Match.from_ofctl`."""
    return Match.from_ofctl(data)
