"""The SDN controller runtime (the Ryu stand-in).

Owns switch connections (handshake, dispatch), allocates transaction ids
and fans incoming messages out to registered apps.  One controller serves
any number of switches, each over its own asynchronous control channel --
exactly the deployment the demo runs (Ryu + one TCP connection per OVS).

It owns its datapath handles and apps, and nothing refers back to it
strongly, so a controller dies by reference count.
"""

from __future__ import annotations

import itertools
from types import MethodType

from repro.errors import UnknownDatapathError
from repro.channel.base import ControlChannel
from repro.controller.app import RyuLikeApp
from repro.controller.datapath_handle import Datapath
from repro.openflow.messages import (
    BarrierReply,
    EchoReply,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowRemoved,
    Hello,
    OpenFlowMessage,
    PacketIn,
)
from repro.openflow.stats import FlowStatsReply
from repro.sim.simulator import Simulator


class Controller:
    """Event-driven controller bound to a shared simulator."""

    def __init__(self, sim: Simulator, name: str = "ryu") -> None:
        self.sim = sim
        self.name = name
        self.datapaths: dict[int, Datapath] = {}
        self.apps: list[RyuLikeApp] = []
        self._xids = itertools.count(1)  # shared with every Datapath
        self._pending_channels: dict[int, ControlChannel] = {}
        self._conn_to_dpid: dict[int, int] = {}
        self._next_conn_id = 0

    # ------------------------------------------------------------------
    # app management
    # ------------------------------------------------------------------
    def register_app(self, app: RyuLikeApp) -> RyuLikeApp:
        """Attach an app; returns it for chaining."""
        app.controller = self
        self.apps.append(app)
        app.on_registered(self)
        return app

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    def connect_switch(self, channel: ControlChannel) -> None:
        """Begin the OpenFlow handshake over ``channel``.

        The datapath id is learned from the FeaturesReply, as in the real
        protocol; apps hear about the switch only after the handshake.
        """
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        self._pending_channels[conn_id] = channel

        def receive(controller: Controller, message: OpenFlowMessage) -> None:
            controller._on_message(conn_id, message)

        # a method of this controller, so the channel holds it weakly
        channel.bind_controller(MethodType(receive, self))
        channel.to_switch(Hello(xid=self.next_xid()))

    def next_xid(self) -> int:
        return next(self._xids)

    def datapath(self, dpid: int) -> Datapath:
        try:
            return self.datapaths[dpid]
        except KeyError:
            raise UnknownDatapathError(f"no connected switch with dpid {dpid}") from None

    @property
    def connected_dpids(self) -> list[int]:
        return sorted(self.datapaths)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _on_message(self, conn_id: int, message: OpenFlowMessage) -> None:
        if isinstance(message, Hello):
            channel = self._pending_channels.get(conn_id)
            if channel is not None:
                channel.to_switch(FeaturesRequest(xid=self.next_xid()))
            return
        if isinstance(message, FeaturesReply):
            channel = self._pending_channels.pop(conn_id, None)
            if channel is None:
                return
            datapath = Datapath(message.datapath_id, channel, self._xids)
            self.datapaths[message.datapath_id] = datapath
            self._conn_to_dpid[conn_id] = message.datapath_id
            for app in self.apps:
                app.on_datapath_connected(datapath)
            return
        datapath = self._datapath_for_channel(conn_id, message)
        if datapath is None:
            return
        if isinstance(message, BarrierReply):
            for app in self.apps:
                app.on_barrier_reply(datapath, message)
        elif isinstance(message, PacketIn):
            for app in self.apps:
                app.on_packet_in(datapath, message)
        elif isinstance(message, ErrorMsg):
            for app in self.apps:
                app.on_error(datapath, message)
        elif isinstance(message, FlowRemoved):
            for app in self.apps:
                app.on_flow_removed(datapath, message)
        elif isinstance(message, EchoReply):
            for app in self.apps:
                app.on_echo_reply(datapath, message)
        elif isinstance(message, FlowStatsReply):
            for app in self.apps:
                app.on_flow_stats(datapath, message)
        # other message types are ignored, as Ryu does without a handler

    def _datapath_for_channel(
        self, conn_id: int, message: OpenFlowMessage
    ) -> Datapath | None:
        dpid = self._conn_to_dpid.get(conn_id)
        if dpid is None:
            return None  # message raced ahead of the handshake; drop it
        return self.datapaths.get(dpid)
