"""Tests for the controller runtime: handshake, dispatch, datapaths."""

import random

import pytest

from repro.channel.base import ControlChannel
from repro.controller.app import RyuLikeApp
from repro.controller.core import Controller
from repro.errors import UnknownDatapathError
from repro.openflow.flowmod import add_flow
from repro.openflow.match import Match
from repro.openflow.messages import BarrierRequest
from repro.sim.simulator import Simulator
from repro.switch.datapath import SwitchSim


class RecordingApp(RyuLikeApp):
    name = "recorder"

    def __init__(self):
        super().__init__()
        self.connected = []
        self.barriers = []
        self.errors = []

    def on_datapath_connected(self, datapath):
        self.connected.append(datapath.dpid)

    def on_barrier_reply(self, datapath, message):
        self.barriers.append((datapath.dpid, message.xid))

    def on_error(self, datapath, message):
        self.errors.append((datapath.dpid, message))


@pytest.fixture
def rig():
    """Controller + two switches over independent channels."""
    sim = Simulator()
    controller = Controller(sim)
    app = controller.register_app(RecordingApp())
    switches = {}
    for dpid in (1, 2):
        channel = ControlChannel(sim, latency=1.0, rng=random.Random(dpid))
        switches[dpid] = SwitchSim(sim, dpid=dpid, channel=channel)
        controller.connect_switch(channel)
    sim.run()
    return sim, controller, app, switches


class TestHandshake:
    def test_both_switches_connect(self, rig):
        _, controller, app, _ = rig
        assert controller.connected_dpids == [1, 2]
        assert sorted(app.connected) == [1, 2]

    def test_datapath_lookup(self, rig):
        _, controller, _, _ = rig
        assert controller.datapath(1).dpid == 1
        with pytest.raises(UnknownDatapathError):
            controller.datapath(99)

    def test_xids_unique(self, rig):
        _, controller, _, _ = rig
        xids = {controller.next_xid() for _ in range(100)}
        assert len(xids) == 100


class TestDispatch:
    def test_barrier_reply_routed_to_app(self, rig):
        sim, controller, app, _ = rig
        xid = controller.datapath(1).send_barrier()
        sim.run()
        assert app.barriers == [(1, xid)]

    def test_flowmod_applied_on_switch(self, rig):
        sim, controller, _, switches = rig
        controller.datapath(2).send_msg(add_flow(Match(in_port=1), out_port=3))
        sim.run()
        assert switches[2].flow_count() == 1
        assert switches[1].flow_count() == 0

    def test_error_routed(self, rig):
        sim, controller, app, _ = rig
        bad = add_flow(Match(in_port=1), out_port=3)
        bad.table_id = 99
        controller.datapath(1).send_msg(bad)
        sim.run()
        assert app.errors and app.errors[0][0] == 1

    def test_send_assigns_xid(self, rig):
        _, controller, _, _ = rig
        message = BarrierRequest()
        xid = controller.datapath(1).send_msg(message)
        assert xid != 0 and message.xid == xid

    def test_explicit_xid_preserved(self, rig):
        _, controller, _, _ = rig
        message = BarrierRequest(xid=777)
        assert controller.datapath(1).send_msg(message) == 777
