"""Instant-mode probe walks are replayed exactly, or not at all.

A :class:`Network` remembers the last instant-mode walk per ingress port
and replays it while the walk's key and every version it saw still hold.
Each test runs one script twice -- as is, and with ``_Walk.holds``
patched to answer ``False``, so that every probe walks the pipelines
again -- and requires the same traces and the same switch, entry and
channel counters after every step.  The replaying run also reports which
probes were served by replay, so a test can name the probes a change
must have forced to re-walk.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dataplane import injector as injector_mod
from repro.dataplane.injector import FlowSpec, PeriodicInjector
from repro.dataplane.packets import Packet
from repro.dataplane.violations import PacketFate
from repro.netlab.network import Network, _Walk
from repro.openflow.actions import ApplyActions, GotoTable, OutputAction
from repro.openflow.constants import DEFAULT_PRIORITY, FlowModCommand, Port
from repro.openflow.flowmod import FlowMod, add_flow, delete_flow
from repro.openflow.match import Match
from repro.topology.builders import linear
from tests.core.generated import budget
from tests.netlab.test_update_golden import build as golden_scenario

TO_H2 = Match(eth_type=0x0800, ipv4_dst="10.0.0.2")
TO_H1 = Match(eth_type=0x0800, ipv4_dst="10.0.0.1")

DELIVERED, DROPPED, LOOPED = PacketFate.DELIVERED, PacketFate.DROPPED, PacketFate.LOOPED
HIGH = DEFAULT_PRIORITY + 1


def snapshot(net: Network) -> dict:
    return {
        repr(node): (
            dataclasses.astuple(switch.log),
            dataclasses.astuple(net.channels[node].stats),
            [
                (table.table_id, entry.priority, entry.match, entry.packet_count,
                 entry.byte_count, entry.last_match_time)
                for table in switch.tables
                for entry in table
            ],
        )
        for node, switch in net.switches.items()
    }


def execute(build, script) -> tuple[list, list[bool]]:
    """Run ``script`` on a fresh network: an observation per step, and
    per probe whether it was served by replay."""
    net = build()
    net.start()
    seen, replayed = [], []
    for step in script:
        before = net._replays
        trace = step(net)
        if trace is not None:
            replayed.append(net._replays > before)
            seen.append((trace.packet_id, list(trace.path), trace.fate,
                         trace.injected_ms, trace.completed_ms))
        seen.append(snapshot(net))
    return seen, replayed


def check(script, build=lambda: Network(linear(3, with_hosts=True), seed=0)):
    """Replaying and re-walking agree on every step; returns which probes
    were replayed and the fates they met."""
    seen, replayed = execute(build, script)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Walk, "holds", lambda self, topo: False)
        rewalked, none = execute(build, script)
    assert not any(none)
    assert seen == rewalked
    fates = [item[2] for item in seen if isinstance(item, tuple)]
    return replayed, fates


# -- script steps ------------------------------------------------------------
def probe(source="h1", destination="h2", waypoint=None):
    def step(net):
        return net.inject_from_host(
            source, net.default_packet(source, destination),
            waypoint=waypoint, destination_host=destination,
        )
    return step


def send(dpid, *mods):
    def step(net):
        net.send_flow_mods({dpid: list(mods)})
        net.flush()
    return step


def forward(dpid, towards, match=TO_H2, **kwargs):
    """``dpid`` sends ``match`` out of its port facing ``towards``."""
    def step(net):
        port = net.topo.port_between(dpid, towards)
        send(dpid, add_flow(match, out_port=port, **kwargs))(net)
    return step


def line(**kwargs):
    """h1 -> 1 -> 2 -> 3 -> h2 on ``linear(3)``."""
    return [forward(1, 2, **kwargs), forward(2, 3, **kwargs), forward(3, "h2", **kwargs)]


def wait(ms):
    def step(net):
        net.sim.schedule(ms, lambda: None)
        net.flush()
    return step


def goto(dpid, table, target, match=TO_H2, priority=DEFAULT_PRIORITY):
    """``dpid``'s ``table`` sends ``match`` on to table ``target``."""
    return send(dpid, FlowMod(
        table_id=table, match=match, priority=priority,
        instructions=(GotoTable(table_id=target),),
    ))


def modify_strict(match, priority, out_port):
    return FlowMod(
        command=FlowModCommand.MODIFY_STRICT, match=match, priority=priority,
        instructions=(ApplyActions([OutputAction(port=out_port)]),),
    )


# -- invalidation cases -------------------------------------------------------
class TestInvalidation:
    def test_add_modify_delete_between_probes(self):
        script = [
            *line(), probe(), probe(),
            # a higher-priority rule at 2 sends the packet back to 1
            send(2, add_flow(TO_H2, out_port=1, priority=HIGH)), probe(), probe(),
            send(2, modify_strict(TO_H2, HIGH, out_port=2)), probe(), probe(),
            send(2, delete_flow(TO_H2, priority=HIGH, strict=True)), probe(),
            send(3, delete_flow(Match())), probe(), probe(),
        ]
        replayed, fates = check(script)
        assert replayed == [False, True, False, True, False, True, False, False, True]
        assert fates == [DELIVERED] * 2 + [LOOPED] * 2 + [DELIVERED] * 3 + [DROPPED] * 2

    def test_strict_delete_put_back_and_noop_modify_force_a_rewalk(self):
        put_back = FlowMod(
            command=FlowModCommand.DELETE_STRICT, match=TO_H2,
            priority=DEFAULT_PRIORITY, out_port=99,
        )
        script = [
            *line(), probe(), probe(),
            send(2, put_back), probe(), probe(),
            send(2, modify_strict(TO_H2, 7, out_port=1)), probe(), probe(),
        ]
        replayed, fates = check(script)
        assert replayed == [False, True] * 3
        assert fates == [DELIVERED] * 6

    def test_idle_timeout_entry_expires_between_probes(self):
        script = [
            forward(1, 2), forward(2, 3, idle_timeout=50), forward(3, "h2"),
            probe(), probe(), wait(100_000), probe(), probe(),
        ]
        replayed, fates = check(script)
        # a table with a timeout is never remembered; once the entry has
        # expired (removed at its deadline) the table is static again
        assert replayed == [False, False, False, True]
        assert fates == [DELIVERED, DELIVERED, DROPPED, DROPPED]

    def test_link_removed_on_a_live_network(self):
        def unlink(net):
            net.topo.remove_link(2, 3)

        replayed, fates = check([*line(), probe(), probe(), unlink, probe(), probe()])
        assert replayed == [False, True, False, True]
        assert fates == [DELIVERED, DELIVERED, DROPPED, DROPPED]

    def test_controller_miss_sends_a_packet_in_per_probe(self):
        def build():
            return Network(linear(3, with_hosts=True), seed=0, miss_behavior="controller")

        booted = build()
        booted.start()
        handshake = booted.channels[1].stats.to_controller_sent

        def punted(count):
            def step(net):
                assert net.switch(1).log.packets_punted == count
                assert net.channels[1].stats.to_controller_sent == handshake + count
            return step

        script = [
            probe(), probe(), probe(), punted(3),
            *line(), probe(), probe(),
            send(1, delete_flow(Match())), probe(), probe(), punted(5),
        ]
        replayed, fates = check(script, build)
        assert replayed == [False, False, False, False, True, False, False]
        assert fates == [DROPPED] * 3 + [DELIVERED] * 2 + [DROPPED] * 2

    def test_a_switch_with_on_output_is_walked_every_time(self):
        emitted = []

        def build():
            net = Network(linear(3, with_hosts=True), seed=0)
            net.switch(2).on_output = lambda switch, packet, port, now: emitted.append(port)
            return net

        replayed, fates = check([*line(), probe(), probe(), probe()], build)
        assert not any(replayed)
        assert emitted == [2] * 6  # three probes, in each of the two runs

    def test_a_varying_packet_factory_walks_every_time_in_constant_memory(
        self, monkeypatch
    ):
        monkeypatch.setattr(injector_mod, "MAX_PACKETS", 8)

        def inject(net):
            ports = itertools.count(40000)
            flow = FlowSpec("h1", "h2", packet_factory=lambda: Packet(tcp_src=next(ports)))
            injector = PeriodicInjector(net, flow, interval_ms=1.0)
            injector.start()
            net.flush()
            assert [trace.fate for trace in injector.result.traces] == [DELIVERED] * 8
            assert net._replays == 0 and len(net._walks) == 1

        check([*line(), inject])

    def test_each_ingress_keeps_its_own_walk(self):
        script = [
            *line(), forward(3, 2, TO_H1), forward(2, 1, TO_H1), forward(1, "h1", TO_H1),
            probe(), probe("h2", "h1"), probe(), probe("h2", "h1"),
        ]
        replayed, fates = check(script)
        assert replayed == [False, False, True, True]
        assert fates == [DELIVERED] * 4


# -- multi-table pipelines ----------------------------------------------------
class TestTablesRead:
    """A walk depends on the tables it read: table 0 of each switch it
    crossed and the ``GOTO_TABLE`` target of each entry it matched."""

    def test_a_mod_in_a_table_the_walk_read_forces_a_rewalk(self):
        script = [
            forward(1, 2), goto(2, 0, 1), forward(2, 3, table_id=1), forward(3, "h2"),
            probe(), probe(),
            # table 1 is read through switch 2's GOTO_TABLE: even a rule
            # the probe does not match there forces a re-walk
            forward(2, 1, TO_H1, table_id=1), probe(), probe(),
            forward(2, 1, table_id=1, priority=HIGH), probe(), probe(),
        ]
        replayed, fates = check(script)
        assert replayed == [False, True] * 3
        assert fates == [DELIVERED] * 4 + [LOOPED] * 2

    def test_a_mod_in_a_table_the_walk_never_read_keeps_the_replay(self):
        script = [
            *line(), probe(), probe(),
            # no entry the probe matches jumps to table 1 or 2
            forward(2, 1, table_id=1, priority=HIGH), probe(),
            send(2, delete_flow(Match(), table_id=2)), probe(),
            goto(3, 2, 3), probe(),
        ]
        replayed, fates = check(script)
        assert replayed == [False, True, True, True, True]
        assert fates == [DELIVERED] * 5

    def test_a_new_goto_table_in_table_0_forces_a_rewalk(self):
        script = [
            *line(), forward(2, 1, table_id=1), probe(), probe(),
            # switch 2 now reads table 1, which sends the packet back
            goto(2, 0, 1, priority=HIGH), probe(), probe(),
            # ... and table 1 is now one the walk read
            forward(2, 3, table_id=1, priority=HIGH), probe(), probe(),
        ]
        replayed, fates = check(script)
        assert replayed == [False, True] * 3
        assert fates == [DELIVERED] * 2 + [LOOPED] * 2 + [DELIVERED] * 2


def test_a_replay_compares_one_table_version_per_switch_crossed():
    """Work count: a replayed probe on reversal-50 compares the versions of
    the tables its walk read -- 50 on the 50-switch old path -- not those
    of every table of the switches it crossed (200)."""
    compared = []
    replay = _Walk.replay

    def counted(self, now):
        compared.append((len(set(self.path)), len(self.versions)))
        replay(self, now)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Walk, "replay", counted)
        golden_scenario((50, "greedy-slf", 1, "default")).run()
    assert len(compared) == 452
    assert all(switches == versions for switches, versions in compared)
    assert max(compared) == (50, 50)


# -- generated interleavings --------------------------------------------------
COMMANDS = (
    FlowModCommand.ADD, FlowModCommand.MODIFY_STRICT,
    FlowModCommand.DELETE_STRICT, FlowModCommand.DELETE,
)

#: a mod goes to one of four tables; a goto names how many tables further
#: on its entry continues (0: no GOTO_TABLE; past table 3 the pipeline ends)
mod_steps = st.tuples(
    st.just("mod"), st.integers(0, 3), st.sampled_from(COMMANDS),
    st.sampled_from((TO_H2, TO_H1, Match())), st.sampled_from((100, 200)),
    st.integers(0, 4), st.sampled_from((0, 0, 0, 0, 0, 15)),
    st.integers(0, 3), st.sampled_from((0, 0, 1, 2, 4)),
)
probe_steps = st.tuples(st.just("probe"), st.booleans(), st.booleans())
unlink_steps = st.tuples(st.just("unlink"), st.integers(0, 10))
wait_steps = st.tuples(st.just("wait"), st.sampled_from((1.0, 20_000.0)))


def scripted(n: int, draws, staged: bool = False) -> list:
    def mod(index, command, match, priority, port_choice, timeout, table, jump):
        def step(net):
            dpid = 1 + index % n
            ports = [*sorted(net.topo.ports(dpid)), int(Port.IN_PORT), 99]
            out_port = ports[port_choice % len(ports)]
            instructions = (ApplyActions([OutputAction(port=out_port)]),)
            if jump:
                instructions += (GotoTable(table_id=table + jump),)
            send(dpid, FlowMod(
                command=command, match=match, priority=priority,
                idle_timeout=timeout, table_id=table, instructions=instructions,
            ))(net)
        return step

    def unlink(index):
        def step(net):
            links = net.topo.links()
            if links:
                link = links[index % len(links)]
                net.topo.remove_link(link.a, link.b)
        return step

    def route(dpid, towards, match):
        # a staged route jumps from table 0 to table 1, which forwards at a
        # priority the drawn mods share, so that they can replace it there
        if not staged:
            return [forward(dpid, towards, match)]
        return [goto(dpid, 0, 1, match), forward(dpid, towards, match, table_id=1, priority=100)]

    # start from working routes both ways, so that probes deliver and repeat
    script = []
    for d in range(1, n + 1):
        script += route(d, d + 1 if d < n else "h2", TO_H2)
        script += route(d, d - 1 if d > 1 else "h1", TO_H1)
    for kind, *args in draws:
        if kind == "mod":
            script.append(mod(*args))
        elif kind == "probe":
            from_h1, waypoint = args
            ends = ("h1", "h2") if from_h1 else ("h2", "h1")
            script.append(probe(*ends, waypoint=2 if waypoint else None))
        elif kind == "unlink":
            script.append(unlink(*args))
        else:
            script.append(wait(*args))
    return script


@budget(40)
@given(
    n=st.integers(2, 4),
    chord=st.booleans(),
    staged=st.booleans(),
    draws=st.lists(
        st.one_of(mod_steps, probe_steps, probe_steps, probe_steps, wait_steps),
        min_size=10, max_size=30,
    ),
    # link removals come apart, a few at most: on these few-link lines the
    # first one cuts every route, so drawn among the steps they left most
    # scripts no route whose staged table a later mod could change
    unlinks=st.lists(st.tuples(st.integers(0, 29), unlink_steps), max_size=3),
)
def test_generated_interleavings_replay_exactly(n, chord, staged, draws, unlinks):
    for at, step in unlinks:
        draws.insert(at % len(draws), step)
    def build():
        topo = linear(n, with_hosts=True)
        if chord and n >= 3:
            topo.add_link(1, n)
        return Network(topo, seed=0)

    check(scripted(n, draws, staged), build)
