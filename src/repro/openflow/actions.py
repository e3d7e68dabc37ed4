"""OpenFlow actions and instructions (the subset the prototype uses).

Actions are what a flow entry *does* to a packet (output it, rewrite a
field, push/pop a VLAN tag); instructions are the per-table containers
around them.  The two-phase-commit baseline leans on PUSH_VLAN/SET_FIELD/
POP_VLAN for version tagging, so those are first-class here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import OpenFlowError
from repro.openflow.constants import (
    ETH_TYPE_VLAN,
    ActionType,
    InstructionType,
    Port,
)
from repro.openflow.match import iter_supported_fields


class Action:
    """Base class for actions."""

    action_type: ActionType

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError


@dataclass(frozen=True)
class OutputAction(Action):
    """Forward the packet out of ``port`` (possibly a reserved port)."""

    port: int
    max_len: int = 0xFFE5  # OFPCML_MAX, what Ryu sends by default

    action_type = ActionType.OUTPUT

    def to_dict(self) -> dict[str, Any]:
        port = self.port
        name = Port(port).name if port in set(Port) else port
        return {"type": "OUTPUT", "port": name if isinstance(name, str) else port}


@dataclass(frozen=True)
class SetFieldAction(Action):
    """Rewrite one header field (field names as in :class:`Match`)."""

    field_name: str
    value: Any

    action_type = ActionType.SET_FIELD

    def __post_init__(self) -> None:
        if self.field_name not in set(iter_supported_fields()):
            raise OpenFlowError(f"cannot set unsupported field {self.field_name!r}")

    def to_dict(self) -> dict[str, Any]:
        return {"type": "SET_FIELD", "field": self.field_name, "value": self.value}


@dataclass(frozen=True)
class PushVlanAction(Action):
    """Push an 802.1Q tag (the VID is set by a following SET_FIELD)."""

    ethertype: int = ETH_TYPE_VLAN

    action_type = ActionType.PUSH_VLAN

    def to_dict(self) -> dict[str, Any]:
        return {"type": "PUSH_VLAN", "ethertype": self.ethertype}


@dataclass(frozen=True)
class PopVlanAction(Action):
    """Remove the outermost 802.1Q tag."""

    action_type = ActionType.POP_VLAN

    def to_dict(self) -> dict[str, Any]:
        return {"type": "POP_VLAN"}


@dataclass(frozen=True)
class GroupAction(Action):
    """Hand the packet to a group (modelled but not expanded further)."""

    group_id: int

    action_type = ActionType.GROUP

    def to_dict(self) -> dict[str, Any]:
        return {"type": "GROUP", "group_id": self.group_id}


def _uint(value: Any, most: int, what: str) -> int:
    """``value`` if it is an int in ``0..most`` (bools are not)."""
    if type(value) is not int or not 0 <= value <= most:
        raise OpenFlowError(f"bad {what} {value!r}")
    return value


def _kind(data: Any, what: str) -> str:
    """The ``type`` of an action or instruction object, upper-cased."""
    if not isinstance(data, Mapping):
        raise OpenFlowError(f"{what} must be an object, got {type(data).__name__}")
    return str(data.get("type", "")).upper()


def action_from_dict(data: Mapping[str, Any]) -> Action:
    """Parse an ofctl-style action dict."""
    kind = _kind(data, "action")
    if kind == "OUTPUT":
        port = data.get("port")
        if port is None:
            raise OpenFlowError("OUTPUT action without port")
        if isinstance(port, str) and port.upper() in Port.__members__:
            port = int(Port[port.upper()])
        elif (isinstance(port, str) and port.isascii() and port.isdigit()
              and len(port) <= 10):
            port = int(port)
        return OutputAction(port=_uint(port, 0xFFFFFFFF, "output port"))
    if kind == "SET_FIELD":
        name, value = data.get("field"), data.get("value")
        if not isinstance(name, str) or not isinstance(value, (str, int)):
            raise OpenFlowError("SET_FIELD action needs a 'field' and a 'value'")
        return SetFieldAction(field_name=name, value=value)
    if kind == "PUSH_VLAN":
        ethertype = data.get("ethertype", ETH_TYPE_VLAN)
        return PushVlanAction(ethertype=_uint(ethertype, 0xFFFF, "ethertype"))
    if kind == "POP_VLAN":
        return PopVlanAction()
    if kind == "GROUP":
        return GroupAction(group_id=_uint(data.get("group_id"), 0xFFFFFFFF, "group id"))
    raise OpenFlowError(f"unsupported action type {data.get('type')!r}")


# ---------------------------------------------------------------------------
# instructions
# ---------------------------------------------------------------------------

class Instruction:
    """Base class for instructions."""

    instruction_type: InstructionType

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError


@dataclass(frozen=True)
class ApplyActions(Instruction):
    """Apply ``actions`` immediately, in order."""

    actions: tuple[Action, ...] = field(default_factory=tuple)

    instruction_type = InstructionType.APPLY_ACTIONS

    def __init__(self, actions: Sequence[Action] = ()) -> None:
        object.__setattr__(self, "actions", tuple(actions))

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "APPLY_ACTIONS",
            "actions": [action.to_dict() for action in self.actions],
        }


@dataclass(frozen=True)
class WriteActions(Instruction):
    """Write ``actions`` into the action set (applied at pipeline end)."""

    actions: tuple[Action, ...] = field(default_factory=tuple)

    instruction_type = InstructionType.WRITE_ACTIONS

    def __init__(self, actions: Sequence[Action] = ()) -> None:
        object.__setattr__(self, "actions", tuple(actions))

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "WRITE_ACTIONS",
            "actions": [action.to_dict() for action in self.actions],
        }


@dataclass(frozen=True)
class ClearActions(Instruction):
    """Clear the pipeline action set."""

    instruction_type = InstructionType.CLEAR_ACTIONS

    def to_dict(self) -> dict[str, Any]:
        return {"type": "CLEAR_ACTIONS"}


@dataclass(frozen=True)
class GotoTable(Instruction):
    """Continue matching in a later table."""

    table_id: int

    instruction_type = InstructionType.GOTO_TABLE

    def __post_init__(self) -> None:
        if not 0 <= self.table_id <= 0xFE:
            raise OpenFlowError(f"bad goto table id {self.table_id}")

    def to_dict(self) -> dict[str, Any]:
        return {"type": "GOTO_TABLE", "table_id": self.table_id}


def instruction_from_dict(data: Mapping[str, Any]) -> Instruction:
    """Parse an ofctl-style instruction dict."""
    kind = _kind(data, "instruction")
    if kind in ("APPLY_ACTIONS", "WRITE_ACTIONS"):
        actions = data.get("actions", [])
        if not isinstance(actions, list):
            raise OpenFlowError(f"{kind} needs a list of actions")
        parsed = [action_from_dict(action) for action in actions]
        return ApplyActions(parsed) if kind == "APPLY_ACTIONS" else WriteActions(parsed)
    if kind == "CLEAR_ACTIONS":
        return ClearActions()
    if kind == "GOTO_TABLE":
        return GotoTable(table_id=_uint(data.get("table_id"), 0xFE, "goto table id"))
    raise OpenFlowError(f"unsupported instruction type {data.get('type')!r}")
