"""The FlowMod message: the unit of every network update in the paper.

An ofctl flow-entry body -- Ryu's ``POST /stats/flowentry/<op>`` body,
and each entry of an update request's ``add`` / ``modify`` / ``delete``
lists -- has one reader, :func:`flow_entry`: the :data:`FLOWENTRY`
table states its keys, shapes, defaults and the command parse once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.errors import BadRequestError, OpenFlowError
from repro.openflow.actions import (
    ApplyActions,
    Instruction,
    OutputAction,
    action_from_dict,
    instruction_from_dict,
)
from repro.openflow.constants import (
    DEFAULT_PRIORITY,
    OFP_NO_BUFFER,
    FlowModCommand,
    GroupId,
    MsgType,
    Port,
)
from repro.openflow.match import Match
from repro.openflow.messages import OpenFlowMessage
from repro.schema import Field, Schema, datapath_id, integer, is_object, list_of


@dataclass
class FlowMod(OpenFlowMessage):
    """Add / modify / delete one flow entry on a switch.

    Field semantics follow OpenFlow 1.3: ``command`` selects the operation,
    ``match`` + ``priority`` identify entries for the strict variants,
    ``out_port``/``out_group`` further filter deletes.
    """

    cookie: int = 0
    cookie_mask: int = 0
    table_id: int = 0
    command: FlowModCommand = FlowModCommand.ADD
    idle_timeout: int = 0
    hard_timeout: int = 0
    priority: int = DEFAULT_PRIORITY
    buffer_id: int = OFP_NO_BUFFER
    out_port: int = int(Port.ANY)
    out_group: int = int(GroupId.ANY)
    flags: int = 0
    match: Match = field(default_factory=Match)
    instructions: tuple[Instruction, ...] = ()

    msg_type: ClassVar[MsgType] = MsgType.FLOW_MOD

    def __post_init__(self) -> None:
        self.command = FlowModCommand(self.command)
        if not 0 <= self.priority <= 0xFFFF:
            raise OpenFlowError(f"priority {self.priority} out of range")
        if not 0 <= self.table_id <= 0xFF:
            raise OpenFlowError(f"table id {self.table_id} out of range")
        self.instructions = tuple(self.instructions)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def is_add(self) -> bool:
        return self.command is FlowModCommand.ADD

    def is_delete(self) -> bool:
        return self.command in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT)

    def is_modify(self) -> bool:
        return self.command in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT)

    def is_strict(self) -> bool:
        return self.command in (
            FlowModCommand.MODIFY_STRICT,
            FlowModCommand.DELETE_STRICT,
        )

    def output_ports(self) -> list[int]:
        """Ports this FlowMod's apply-actions would output to."""
        ports = []
        for instruction in self.instructions:
            if isinstance(instruction, ApplyActions):
                ports.extend(
                    action.port
                    for action in instruction.actions
                    if isinstance(action, OutputAction)
                )
        return ports

    def with_xid(self, xid: int) -> "FlowMod":
        """A shallow copy with transaction id ``xid``: a FlowMod is checked
        once, at construction, and nothing changes it past its xid."""
        mod = object.__new__(type(self))
        mod.__dict__.update(self.__dict__, xid=xid)
        return mod


_COMMANDS = set(map(int, FlowModCommand))
_U16 = integer(0, 0xFFFF)
#: The default of ``actions`` and ``instructions``: the key was left out
#: (a JSON list is never this object), so the entry has no instructions.
_LEFT_OUT: tuple = ()


def _command(value: Any) -> FlowModCommand | None:
    """A FlowMod command by name (any case) or number; a bool is neither."""
    if isinstance(value, str):
        return FlowModCommand.__members__.get(value.upper())
    return FlowModCommand(value) if type(value) is int and value in _COMMANDS else None


#: An ofctl flow-entry body; unknown keys pass, as in ofctl.  What is
#: nested under ``match`` / ``actions`` / ``instructions`` is the codec's
#: to refuse (an :class:`~repro.errors.OpenFlowError`).
FLOWENTRY = Schema("flow entry", (
    Field("dpid", datapath_id, "a numeric datapath id"),
    Field("match", is_object, "an object", {}),
    Field("actions", list_of(is_object), "a list of action objects", _LEFT_OUT),
    Field("instructions", list_of(is_object), "a list of instruction objects",
          _LEFT_OUT),
    Field("command", lambda value: _command(value) is not None,
          "a FlowMod command name or number", None),
    Field("cookie", integer(0, (1 << 64) - 1), "an int in 0..2**64-1", 0),
    Field("table_id", integer(0, 0xFF), "an int in 0..255", 0),
    Field("idle_timeout", _U16, "an int in 0..65535", 0),
    Field("hard_timeout", _U16, "an int in 0..65535", 0),
    Field("priority", _U16, "an int in 0..65535", DEFAULT_PRIORITY),
    Field("flags", _U16, "an int in 0..65535", 0),
), BadRequestError, closed=False)


def flow_entry(body: Any, command: FlowModCommand) -> tuple[int, FlowMod]:
    """An ofctl flow-entry body's datapath id and FlowMod.

    The body's own ``command`` wins over ``command`` (the route's);
    ``actions`` is Ryu's shorthand for one APPLY_ACTIONS instruction, read
    when ``instructions`` is left out.  A body :data:`FLOWENTRY` refuses
    raises :class:`~repro.errors.BadRequestError`; a nested value the
    codec cannot read, :class:`~repro.errors.OpenFlowError`.
    """
    entry = FLOWENTRY.decode(body)
    dpid, raw = int(entry.pop("dpid")), entry.pop("command")
    instructions, actions = entry.pop("instructions"), entry.pop("actions")
    if instructions is not _LEFT_OUT:
        instructions = tuple(map(instruction_from_dict, instructions))
    elif actions is not _LEFT_OUT:
        instructions = (ApplyActions(list(map(action_from_dict, actions))),)
    return dpid, FlowMod(
        command=command if raw is None else _command(raw),
        match=Match.from_ofctl(entry.pop("match")),
        instructions=instructions,
        **entry,
    )


def add_flow(
    match: Match,
    out_port: int,
    priority: int = DEFAULT_PRIORITY,
    table_id: int = 0,
    cookie: int = 0,
    idle_timeout: int = 0,
    hard_timeout: int = 0,
) -> FlowMod:
    """Shorthand for the dominant case: match -> output(port)."""
    return FlowMod(
        command=FlowModCommand.ADD,
        match=match,
        priority=priority,
        table_id=table_id,
        cookie=cookie,
        idle_timeout=idle_timeout,
        hard_timeout=hard_timeout,
        instructions=(ApplyActions([OutputAction(port=out_port)]),),
    )


def delete_flow(
    match: Match,
    priority: int | None = None,
    table_id: int = 0,
    strict: bool = False,
) -> FlowMod:
    """Shorthand for deleting entries matching ``match``.

    Strict deletes require the exact priority; non-strict ignore it.
    """
    if strict and priority is None:
        raise OpenFlowError("strict delete needs an explicit priority")
    return FlowMod(
        command=FlowModCommand.DELETE_STRICT if strict else FlowModCommand.DELETE,
        match=match,
        priority=priority if priority is not None else 0,
        table_id=table_id,
    )
