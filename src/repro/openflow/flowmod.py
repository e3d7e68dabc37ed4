"""The FlowMod message: the unit of every network update in the paper."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Mapping, Sequence

from repro.errors import OpenFlowError
from repro.openflow.actions import (
    ApplyActions,
    Instruction,
    OutputAction,
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
        return replace(self, xid=xid)

    # ------------------------------------------------------------------
    # ofctl-style dict codec (the paper's REST body items)
    # ------------------------------------------------------------------
    def to_ofctl(self, dpid: int | None = None) -> dict[str, Any]:
        data: dict[str, Any] = {
            "cookie": self.cookie,
            "table_id": self.table_id,
            "priority": self.priority,
            "idle_timeout": self.idle_timeout,
            "hard_timeout": self.hard_timeout,
            "match": self.match.to_ofctl(),
            "instructions": [ins.to_dict() for ins in self.instructions],
        }
        if dpid is not None:
            data["dpid"] = dpid
        if self.command is not FlowModCommand.ADD:
            data["command"] = self.command.name
        return data

    @classmethod
    def from_ofctl(
        cls,
        data: Mapping[str, Any],
        command: FlowModCommand | str = FlowModCommand.ADD,
    ) -> "FlowMod":
        """Parse an ofctl_rest-style body (``actions`` is accepted as a
        shorthand for a single APPLY_ACTIONS instruction, as Ryu does)."""
        raw = data.get("command")
        if raw is None:
            raw = command
        try:
            command = (FlowModCommand[raw.upper()] if isinstance(raw, str)
                       else FlowModCommand(raw))
        except (KeyError, ValueError):
            raise OpenFlowError(f"unknown FlowMod command {raw!r}") from None
        match = Match.from_ofctl(data.get("match", {}))
        instructions: Sequence[Instruction]
        if "instructions" in data:
            instructions = tuple(
                instruction_from_dict(item) for item in data["instructions"]
            )
        elif "actions" in data:
            from repro.openflow.actions import action_from_dict

            instructions = (
                ApplyActions([action_from_dict(item) for item in data["actions"]]),
            )
        else:
            instructions = ()
        return cls(
            cookie=int(data.get("cookie", 0)),
            table_id=int(data.get("table_id", 0)),
            command=command,
            idle_timeout=int(data.get("idle_timeout", 0)),
            hard_timeout=int(data.get("hard_timeout", 0)),
            priority=int(data.get("priority", DEFAULT_PRIORITY)),
            flags=int(data.get("flags", 0)),
            match=match,
            instructions=instructions,
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
