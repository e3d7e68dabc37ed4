"""The network lab: topology + switches + channels + controller + hosts.

This is the Mininet stand-in: it instantiates one simulated switch per
topology node, a dedicated asynchronous control channel per switch, a
controller, and host attachments -- all on one deterministic event loop.
Packets can be injected from hosts and traced hop-by-hop while the
controller is mid-update, which is the measurement the demo performs.

Two packet-transit modes:

* ``"instant"`` (default) -- a packet crosses the whole network at one
  simulated instant, matching the model assumption of the scheduling
  papers (forwarding is fast relative to control-plane rounds);
* ``"perhop"`` -- each link hop takes its topology latency, so a packet in
  flight can observe *different* configurations at different switches (the
  E8 ablation).

An instant-mode walk depends only on the packet, the ingress port, the
versions of the flow tables it read and the topology's version -- as
long as no table of a visited switch holds an entry with a timeout, no
visited switch punts to the controller and none has ``on_output`` set.
A pipeline reads table 0 and then the ``GOTO_TABLE`` target of each entry
it matches; any other table can change the walk only after a table it
read has changed.  So the network remembers the last such walk per
ingress (switch, port) and, while its key and every version it read still
hold, serves the next probe by replaying it: the same entry counters
touched, the same switch log counters bumped, the same path and fate,
without re-running a pipeline.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Mapping

from repro.errors import ScenarioError, TopologyError
from repro.channel.base import ControlChannel
from repro.channel.latency_models import LatencyModel, from_spec
from repro.controller.core import Controller
from repro.controller.datapath_handle import Datapath
from repro.dataplane.packets import Packet
from repro.dataplane.violations import PacketFate, TraceRecord
from repro.openflow.constants import Port
from repro.openflow.flowmod import FlowMod
from repro.sim.random_source import RandomStreams
from repro.sim.simulator import Simulator
from repro.switch.datapath import SwitchLog, SwitchSim
from repro.switch.flow_table import FlowEntry, FlowTable
from repro.switch.latency import OVS_PROFILE, SwitchTimingProfile
from repro.switch.pipeline import PipelineResult
from repro.topology.graph import NodeId, Topology

_version = attrgetter("version")


@dataclass(frozen=True)
class Host:
    """A host attached to one switch port."""

    name: str
    switch_dpid: NodeId
    switch_port: int  # port on the switch that faces this host
    ip: str
    mac: str


@dataclass(frozen=True)
class _Walk:
    """One instant-mode walk: what it did, and what that depended on.

    ``tables`` are the tables the walk's pipelines read, once each
    (:attr:`PipelineResult.read`; on a reversal-50 path, 50 tables where
    the switches hold 200).  :meth:`holds` compares their versions and
    the topology's.
    """

    key: tuple  # (packet, waypoint, destination host, hop budget)
    #: per hop: the switch's log, the entries matched, the bytes charged to
    #: each, and whether the packet was forwarded
    hops: tuple[tuple[SwitchLog, tuple[FlowEntry, ...], int, bool], ...]
    path: tuple[NodeId, ...]
    fate: PacketFate
    tables: tuple[FlowTable, ...]
    versions: tuple[int, ...]
    topo_version: int

    def holds(self, topo: Topology) -> bool:
        """Would walking again now do exactly what this walk did?"""
        return (
            topo.version == self.topo_version
            and tuple(map(_version, self.tables)) == self.versions
        )

    def replay(self, now: float) -> None:
        """Apply the walk's side effects to the counters once more."""
        for log, entries, n_bytes, forwarded in self.hops:
            for entry in entries:
                entry.touch(now, n_bytes)
            if forwarded:
                log.packets_forwarded += 1
            else:
                log.packets_dropped += 1


class Network:
    """A runnable network lab over a shared simulator."""

    def __init__(
        self,
        topo: Topology,
        seed: int = 0,
        timing: SwitchTimingProfile | Mapping[NodeId, SwitchTimingProfile] = OVS_PROFILE,
        channel_latency: LatencyModel | float | str = 1.0,
        fifo: bool = True,
        drop_prob: float = 0.0,
        packet_mode: str = "instant",
        miss_behavior: str = "drop",
    ) -> None:
        if packet_mode not in ("instant", "perhop"):
            raise ScenarioError(f"unknown packet mode {packet_mode!r}")
        self.topo = topo
        self.packet_mode = packet_mode
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.controller = Controller(self.sim)
        self.switches: dict[NodeId, SwitchSim] = {}
        self.channels: dict[NodeId, ControlChannel] = {}
        self.hosts: dict[str, Host] = {}
        self._packet_ids = itertools.count(1)
        self._started = False
        self._walks: dict[tuple[NodeId, int], _Walk] = {}  # by ingress
        self._replays = 0

        latency_model = from_spec(channel_latency)
        owners: dict[int, NodeId] = {}
        for dpid in topo.switches():
            # an integer id is its own dpid; any other gets a CRC of its
            # repr, the same in every process (hash() of a str is not)
            number = dpid if isinstance(dpid, int) else zlib.crc32(repr(dpid).encode())
            owner = owners.setdefault(number, dpid)
            if owner != dpid:
                raise ScenarioError(
                    f"switches {owner!r} and {dpid!r} share datapath id {number}"
                )
            profile = (
                timing.get(dpid, OVS_PROFILE) if isinstance(timing, Mapping) else timing
            )
            channel = ControlChannel(
                self.sim,
                latency=latency_model,
                rng=self.streams.stream(f"chan-{dpid}"),
                name=f"chan-{dpid}",
                fifo=fifo,
                drop_prob=drop_prob,
            )
            switch = SwitchSim(
                self.sim,
                dpid=number,
                channel=channel,
                timing=profile,
                rng=self.streams.stream(f"switch-{dpid}"),
                miss_behavior=miss_behavior,
            )
            self.channels[dpid] = channel
            self.switches[dpid] = switch
        self._attach_hosts()

    def _attach_hosts(self) -> None:
        host_counter = 0
        for name in self.topo.hosts():
            neighbors = self.topo.neighbors(name)
            if len(neighbors) != 1:
                raise ScenarioError(
                    f"host {name!r} must attach to exactly one switch, "
                    f"got {neighbors!r}"
                )
            switch_dpid = neighbors[0]
            if switch_dpid not in self.switches:
                raise ScenarioError(f"host {name!r} attaches to non-switch")
            host_counter += 1
            self.hosts[str(name)] = Host(
                name=str(name),
                switch_dpid=switch_dpid,
                switch_port=self.topo.port_between(switch_dpid, name),
                ip=f"10.0.0.{host_counter}",
                mac=f"00:00:00:00:00:{host_counter:02x}",
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run the OpenFlow handshakes; afterwards all switches are usable."""
        if self._started:
            return
        for dpid in sorted(self.channels, key=repr):
            self.controller.connect_switch(self.channels[dpid])
        self.sim.run()
        missing = [
            dpid
            for dpid, switch in self.switches.items()
            if switch.dpid not in self.controller.datapaths
        ]
        if missing:
            raise ScenarioError(f"handshake incomplete for switches {missing!r}")
        self._started = True

    def datapath(self, dpid: NodeId) -> Datapath:
        return self.controller.datapath(self.switches[dpid].dpid)

    def switch(self, dpid: NodeId) -> SwitchSim:
        try:
            return self.switches[dpid]
        except KeyError:
            raise ScenarioError(f"no switch {dpid!r} in this network") from None

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise ScenarioError(f"no host {name!r} in this network") from None

    # ------------------------------------------------------------------
    # rule management
    # ------------------------------------------------------------------
    def send_flow_mods(self, mods_by_dpid: Mapping[NodeId, list[FlowMod]]) -> None:
        """Ship FlowMods (asynchronously); call :meth:`flush` to settle."""
        for dpid in sorted(mods_by_dpid, key=repr):
            datapath = self.datapath(dpid)
            for mod in mods_by_dpid[dpid]:
                datapath.send_msg(mod.with_xid(0))

    def flush(self, until: float | None = None) -> None:
        """Drain the event loop (all in-flight control traffic settles)."""
        self.sim.run(until=until)

    # ------------------------------------------------------------------
    # packet injection and tracing
    # ------------------------------------------------------------------
    def default_packet(self, source_host: str, destination_host: str) -> Packet:
        src, dst = self.host(source_host), self.host(destination_host)
        return Packet(
            eth_src=src.mac, eth_dst=dst.mac, ipv4_src=src.ip, ipv4_dst=dst.ip
        )

    def inject_from_host(
        self,
        source_host: str,
        packet: Packet,
        waypoint: NodeId | None = None,
        destination_host: str | None = None,
    ) -> TraceRecord:
        """Inject ``packet`` at the source host's switch and trace its fate.

        In instant mode the trace resolves before this returns; in per-hop
        mode it resolves as the simulator advances (fate stays IN_FLIGHT
        until then).
        """
        host = self.host(source_host)
        destination = (
            self.host(destination_host) if destination_host is not None else None
        )
        trace = TraceRecord(
            packet_id=next(self._packet_ids), injected_ms=self.sim.now
        )
        hop_budget = 4 * max(len(self.switches), 1)
        if self.packet_mode == "perhop":
            self._hop_scheduled(
                trace, packet, host.switch_dpid, host.switch_port, waypoint,
                destination, hop_budget,
            )
            return trace
        ingress = (host.switch_dpid, host.switch_port)
        key = (packet, waypoint, destination, hop_budget)
        walk = self._walks.get(ingress)
        if walk is not None and walk.key == key and walk.holds(self.topo):
            walk.replay(self.sim.now)
            self._replays += 1
        else:
            walk, replayable = self._walk(key, *ingress)
            if replayable:
                self._walks[ingress] = walk
        trace.path.extend(walk.path)
        self._finish(trace, walk.fate)
        return trace

    # -- instant mode ----------------------------------------------------
    def _walk(self, key: tuple, dpid: NodeId, in_port: int) -> tuple[_Walk, bool]:
        """Walk ``key``'s packet from ``dpid:in_port`` at this instant;
        returns the walk and whether replaying it later is exact."""
        packet, waypoint, destination, hop_budget = key
        hops = []
        path: list[NodeId] = []
        visited: set[tuple[NodeId, int]] = set()
        switches: dict[NodeId, SwitchSim] = {}
        read: list[FlowTable] = []
        fate, punted = PacketFate.LOOPED, False
        current, port = dpid, in_port
        for _ in range(hop_budget):
            if (current, port) in visited:
                break
            visited.add((current, port))
            path.append(current)
            n_bytes = len(packet.payload) + 54  # what Pipeline.process charges
            result, peer, peer_port = self._process_at(current, packet, port)
            switch = switches[current] = self.switches[current]
            hops.append((switch.log, tuple(result.matched), n_bytes, result.forwarded))
            read += result.read
            if peer is None:
                fate, punted = PacketFate.DROPPED, result.punt
                break
            if peer in self.hosts:
                fate = self._fate_at_host(path, str(peer), waypoint, destination)
                break
            packet, current, port = result.packet, peer, peer_port
        tables = tuple(dict.fromkeys(read))  # each table read, once
        walk = _Walk(
            key, tuple(hops), tuple(path), fate,
            tables, tuple(map(_version, tables)), self.topo.version,
        )
        replayable = not (
            punted
            or any(switch.on_output is not None for switch in switches.values())
            or any(
                table.has_timeouts()
                for switch in switches.values() for table in switch.tables
            )
        )
        return walk, replayable

    # -- per-hop mode ------------------------------------------------------
    def _hop_scheduled(
        self,
        trace: TraceRecord,
        packet: Packet,
        dpid: NodeId,
        in_port: int,
        waypoint: NodeId | None,
        destination: Host | None,
        hop_budget: int,
    ) -> None:
        if hop_budget <= 0:
            self._finish(trace, PacketFate.LOOPED)
            return
        trace.path.append(dpid)
        result, peer, peer_port = self._process_at(dpid, packet, in_port)
        if peer is None:
            self._finish(trace, PacketFate.DROPPED)
            return
        link = self.topo.link_between(dpid, peer)
        if peer in self.hosts:
            fate = self._fate_at_host(trace.path, str(peer), waypoint, destination)
            self.sim.schedule(link.latency_ms, self._finish, trace, fate)
            return
        self.sim.schedule(
            link.latency_ms,
            self._hop_scheduled,
            trace,
            result.packet,
            peer,
            peer_port,
            waypoint,
            destination,
            hop_budget - 1,
        )

    # -- shared helpers ----------------------------------------------------
    def _process_at(
        self, dpid: NodeId, packet: Packet, in_port: int
    ) -> tuple[PipelineResult, NodeId | None, int]:
        """Run ``packet`` through ``dpid``'s pipeline; returns the verdict
        and the (peer, peer port) it is forwarded to, the peer ``None`` when
        the packet is dropped or leaves by a port without a link."""
        result = self.switch(dpid).receive_packet(packet, in_port)
        if not result.forwarded:
            return result, None, 0
        out_port = result.out_ports[0]
        if out_port == Port.IN_PORT:  # a hairpin, as SwitchSim emits it
            out_port = in_port
        try:
            return (result, *self.topo.peer(dpid, out_port))
        except TopologyError:
            return result, None, 0

    @staticmethod
    def _fate_at_host(
        path: list, host_name: str, waypoint: NodeId | None, destination: Host | None
    ) -> PacketFate:
        if destination is not None and host_name != destination.name:
            return PacketFate.DROPPED
        if waypoint is not None and waypoint not in path:
            return PacketFate.BYPASSED_WAYPOINT
        return PacketFate.DELIVERED

    def _finish(self, trace: TraceRecord, fate: PacketFate) -> None:
        trace.fate = fate
        trace.completed_ms = self.sim.now

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def channel_stats(self) -> dict[NodeId, Any]:
        return {dpid: channel.stats for dpid, channel in self.channels.items()}

    def total_flow_mods_applied(self) -> int:
        return sum(switch.log.flow_mods_applied for switch in self.switches.values())
