"""Multi-table packet processing pipeline (OpenFlow 1.3 semantics subset).

Packets enter at table 0; instructions either apply actions immediately
(APPLY_ACTIONS), stage them in the action set (WRITE_ACTIONS, executed when
the pipeline ends), clear that set, or jump to a later table (GOTO_TABLE).
A table miss punts to the controller or drops, depending on switch
configuration (real switches express this with a table-miss entry; the
simulator makes it a knob).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SwitchError
from repro.openflow.actions import (
    Action,
    ApplyActions,
    ClearActions,
    GotoTable,
    OutputAction,
    PopVlanAction,
    PushVlanAction,
    SetFieldAction,
    WriteActions,
)
from repro.dataplane.packets import Packet
from repro.switch.flow_table import FlowEntry, FlowTable


@dataclass
class PipelineResult:
    """What happened to one packet inside the switch."""

    packet: Packet
    out_ports: list[int] = field(default_factory=list)
    punt: bool = False            # table miss -> PacketIn
    dropped: bool = False         # explicit or implicit drop
    matched: list[FlowEntry] = field(default_factory=list)
    #: the tables looked up, in order: table 0, then each GOTO_TABLE target
    read: list[FlowTable] = field(default_factory=list)

    @property
    def forwarded(self) -> bool:
        return bool(self.out_ports)


class Pipeline:
    """Drives a packet through a switch's flow tables."""

    def __init__(self, tables: list[FlowTable], miss_behavior: str = "drop") -> None:
        if miss_behavior not in ("drop", "controller"):
            raise SwitchError(f"unknown miss behavior {miss_behavior!r}")
        self.tables = tables
        self.miss_behavior = miss_behavior

    def process(self, packet: Packet, in_port: int, now: float = 0.0) -> PipelineResult:
        """Run ``packet`` (arriving on ``in_port``) through the pipeline."""
        result = PipelineResult(packet=packet)
        action_set: list[Action] = []
        table_index = 0
        while table_index < len(self.tables):
            table = self.tables[table_index]
            result.read.append(table)
            entry = table.lookup(
                result.packet.fields(in_port=in_port),
                now=now,
                n_bytes=len(result.packet.payload) + 54,
            )
            if entry is None:
                if table_index == 0 and self.miss_behavior == "controller":
                    result.punt = True
                else:
                    result.dropped = not result.out_ports
                return result
            result.matched.append(entry)
            goto: int | None = None
            for instruction in entry.instructions:
                if isinstance(instruction, ApplyActions):
                    self._apply_actions(instruction.actions, result)
                elif isinstance(instruction, WriteActions):
                    action_set.extend(instruction.actions)
                elif isinstance(instruction, ClearActions):
                    action_set.clear()
                elif isinstance(instruction, GotoTable):
                    if instruction.table_id <= table_index:
                        raise SwitchError(
                            f"GOTO_TABLE must move forward "
                            f"({table_index} -> {instruction.table_id})"
                        )
                    goto = instruction.table_id
                else:  # pragma: no cover - closed set of instruction types
                    raise SwitchError(f"unsupported instruction {instruction!r}")
            if goto is None:
                break
            table_index = goto
        if action_set:
            self._apply_actions(tuple(action_set), result)
        result.dropped = not result.out_ports and not result.punt
        return result

    @staticmethod
    def _apply_actions(actions: tuple[Action, ...], result: PipelineResult) -> None:
        for action in actions:
            if isinstance(action, OutputAction):
                result.out_ports.append(action.port)
            elif isinstance(action, SetFieldAction):
                result.packet = result.packet.with_field(
                    action.field_name, action.value
                )
            elif isinstance(action, PushVlanAction):
                result.packet = result.packet.with_vlan(0)
            elif isinstance(action, PopVlanAction):
                result.packet = result.packet.without_vlan()
            else:
                raise SwitchError(f"unsupported action {action!r}")
