"""Tests for message classes, FlowMod semantics and the action codecs."""

import dataclasses

import pytest

from repro.errors import BadRequestError, OpenFlowError
from repro.openflow.actions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    GroupAction,
    OutputAction,
    PopVlanAction,
    PushVlanAction,
    SetFieldAction,
    WriteActions,
    action_from_dict,
    instruction_from_dict,
)
from repro.openflow.constants import FlowModCommand, MsgType, Port
from repro.openflow.flowmod import FlowMod, add_flow, delete_flow, flow_entry
from repro.openflow.match import Match
from repro.netlab.network import Network
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    ErrorMsg,
    Hello,
    PacketIn,
    summarize,
)
from repro.topology.builders import linear


class TestActions:
    def test_output_dict_roundtrip(self):
        action = OutputAction(port=3)
        assert action_from_dict(action.to_dict()) == action

    def test_output_reserved_port_name(self):
        action = OutputAction(port=int(Port.CONTROLLER))
        data = action.to_dict()
        assert data["port"] == "CONTROLLER"
        assert action_from_dict(data).port == int(Port.CONTROLLER)

    def test_set_field_roundtrip(self):
        action = SetFieldAction(field_name="vlan_vid", value=2)
        assert action_from_dict(action.to_dict()) == action

    def test_set_field_validates_name(self):
        with pytest.raises(OpenFlowError):
            SetFieldAction(field_name="nonsense", value=1)

    def test_vlan_actions_roundtrip(self):
        for action in (PushVlanAction(), PopVlanAction(), GroupAction(group_id=5)):
            assert action_from_dict(action.to_dict()) == action

    def test_unknown_action_rejected(self):
        with pytest.raises(OpenFlowError):
            action_from_dict({"type": "TELEPORT"})

    def test_output_requires_port(self):
        with pytest.raises(OpenFlowError):
            action_from_dict({"type": "OUTPUT"})


class TestInstructions:
    def test_apply_actions_roundtrip(self):
        ins = ApplyActions([OutputAction(port=1), PopVlanAction()])
        assert instruction_from_dict(ins.to_dict()) == ins

    def test_write_clear_goto_roundtrip(self):
        for ins in (WriteActions([OutputAction(port=2)]), ClearActions(), GotoTable(table_id=2)):
            assert instruction_from_dict(ins.to_dict()) == ins

    def test_goto_validates_table(self):
        with pytest.raises(OpenFlowError):
            GotoTable(table_id=400)


class TestFlowMod:
    def test_defaults(self):
        mod = FlowMod()
        assert mod.command is FlowModCommand.ADD
        assert mod.is_add() and not mod.is_delete()

    def test_command_coercion(self):
        mod = FlowMod(command=3)
        assert mod.command is FlowModCommand.DELETE
        assert mod.is_delete() and not mod.is_strict()

    def test_strict_flags(self):
        assert FlowMod(command=FlowModCommand.DELETE_STRICT).is_strict()
        assert FlowMod(command=FlowModCommand.MODIFY_STRICT).is_modify()

    def test_priority_range(self):
        with pytest.raises(OpenFlowError):
            FlowMod(priority=70000)

    def test_output_ports(self):
        mod = add_flow(Match(), out_port=9)
        assert mod.output_ports() == [9]

    @pytest.mark.parametrize("field, most", [("table_id", 0xFF), ("priority", 0xFFFF)])
    def test_range_edges(self, field, most):
        assert getattr(FlowMod(**{field: most}), field) == most
        assert getattr(FlowMod(**{field: 0}), field) == 0
        for bad in (most + 1, -1):
            with pytest.raises(OpenFlowError, match="out of range"):
                FlowMod(**{field: bad})

    def test_with_xid(self):
        mod = add_flow(Match(), out_port=1)
        stamped = mod.with_xid(42)
        assert stamped.xid == 42 and mod.xid == 0

    def test_with_xid_is_a_copy_that_differs_only_in_the_xid(self):
        mod = FlowMod(
            xid=5, table_id=3, priority=9, idle_timeout=2, cookie=7,
            match=Match(in_port=1), instructions=[GotoTable(table_id=4)],
        )
        copy = mod.with_xid(0)
        assert copy is not mod and type(copy) is FlowMod
        assert copy.xid == 0 and mod.xid == 5
        assert copy == dataclasses.replace(mod, xid=0)
        assert copy.instructions is mod.instructions  # shared, never re-built

    def test_the_xid_send_msg_assigns_leaves_the_compiled_original_at_zero(self):
        net = Network(linear(2, with_hosts=True), seed=0)
        net.start()
        sent = []
        net.channels[1].bind_switch(sent.append)
        compiled = [add_flow(Match(in_port=1), out_port=2), delete_flow(Match())]
        net.send_flow_mods({1: compiled})
        net.flush()
        assert [mod.xid for mod in compiled] == [0, 0]
        assert [type(mod) for mod in sent] == [FlowMod, FlowMod]
        assert all(mod.xid for mod in sent) and sent[0].xid != sent[1].xid
        assert [dataclasses.replace(mod, xid=0) for mod in sent] == compiled

    def test_add_flow_shorthand(self):
        mod = add_flow(Match(in_port=1), out_port=2, priority=7)
        assert mod.priority == 7
        assert mod.match.in_port == 1

    def test_delete_flow_shorthand(self):
        mod = delete_flow(Match(tcp_dst=80), priority=5, strict=True)
        assert mod.command is FlowModCommand.DELETE_STRICT
        assert mod.priority == 5
        with pytest.raises(OpenFlowError):
            delete_flow(Match(), strict=True)

    def test_ofctl_body_decodes(self):
        mod = add_flow(Match(eth_type=0x0800, ipv4_dst="10.0.0.2"), out_port=4)
        body = {"dpid": "7", "match": mod.match.to_ofctl(),
                "instructions": [ins.to_dict() for ins in mod.instructions]}
        dpid, back = flow_entry(body, FlowModCommand.ADD)
        assert dpid == 7
        assert back.match == mod.match
        assert back.instructions == mod.instructions
        assert back.priority == mod.priority

    def test_ofctl_actions_shorthand(self):
        _, mod = flow_entry(
            {"dpid": 1, "match": {"in_port": 1},
             "actions": [{"type": "OUTPUT", "port": 2}]},
            FlowModCommand.ADD,
        )
        assert mod.output_ports() == [2]

    def test_ofctl_command_field(self):
        _, mod = flow_entry({"dpid": 1, "command": "delete", "match": {}},
                            FlowModCommand.ADD)
        assert mod.is_delete()

    @pytest.mark.parametrize("command", ["EXPLODE", 99, True, ""])
    def test_bad_command_rejected(self, command):
        with pytest.raises(BadRequestError, match="'command'"):
            flow_entry({"dpid": 1, "command": command}, FlowModCommand.ADD)

    def test_bool_priority_rejected(self):
        # int(True) would install priority 1
        with pytest.raises(BadRequestError, match="'priority'"):
            flow_entry({"dpid": 1, "priority": True}, FlowModCommand.ADD)

    def test_empty_action_list_is_one_empty_instruction(self):
        _, left_out = flow_entry({"dpid": 1}, FlowModCommand.ADD)
        _, empty = flow_entry({"dpid": 1, "actions": []}, FlowModCommand.ADD)
        assert left_out.instructions == ()
        assert empty.instructions == (ApplyActions([]),)


class TestMessages:
    def test_type_names(self):
        assert Hello().type_name() == "HELLO"
        assert BarrierRequest().msg_type is MsgType.BARRIER_REQUEST
        assert BarrierReply().msg_type is MsgType.BARRIER_REPLY

    def test_error_describe(self):
        err = ErrorMsg(err_type=5, err_code=1)
        assert "FLOW_MOD_FAILED" in err.describe()

    def test_packet_in_total_len(self):
        msg = PacketIn(data=b"abcd")
        assert msg.total_len == 4

    def test_summarize(self):
        assert "BARRIER_REQUEST" in summarize(BarrierRequest(xid=7))
        assert "xid=7" in summarize(BarrierRequest(xid=7))
