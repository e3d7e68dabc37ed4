"""Tests for switch timing profiles and their effect on barrier timing."""

import random

import pytest

from repro.channel.base import ControlChannel
from repro.channel.latency_models import Constant
from repro.openflow.flowmod import add_flow
from repro.openflow.match import Match
from repro.openflow.messages import BarrierReply, BarrierRequest
from repro.sim.simulator import Simulator
from repro.switch.latency import (
    HARDWARE_PROFILE,
    OVS_LOADED_PROFILE,
    OVS_PROFILE,
    PROFILES,
    SLOW_VENDOR_PROFILE,
    SwitchTimingProfile,
)
from repro.switch.datapath import SwitchSim


class TestProfiles:
    def test_registry_complete(self):
        assert set(PROFILES) == {"ovs", "ovs-loaded", "hardware", "slow-vendor"}
        for name, profile in PROFILES.items():
            assert profile.name == name

    def test_means_ordered(self):
        assert (
            OVS_PROFILE.mean_install_ms()
            < OVS_LOADED_PROFILE.mean_install_ms()
            < HARDWARE_PROFILE.mean_install_ms()
            < SLOW_VENDOR_PROFILE.mean_install_ms()
        )

    def test_samples_nonnegative(self):
        rng = random.Random(1)
        for profile in PROFILES.values():
            for _ in range(50):
                assert profile.flowmod_install.sample(rng) >= 0


def _barrier_time(profile: SwitchTimingProfile, n_mods: int) -> float:
    sim = Simulator()
    channel = ControlChannel(sim, latency=Constant(0.0), rng=random.Random(0))
    received = []
    channel.bind_controller(received.append)
    # held here: a channel refers to its switch weakly (the switch owns it)
    switch = SwitchSim(sim, dpid=1, channel=channel, timing=profile,
                       rng=random.Random(7))
    for index in range(n_mods):
        channel.to_switch(add_flow(Match(in_port=index + 1), out_port=1))
    channel.to_switch(BarrierRequest(xid=1))
    sim.run()
    assert any(isinstance(m, BarrierReply) for m in received)
    assert switch.log.barriers_answered == 1
    return sim.now


class TestInstallSerialization:
    def test_installs_serialize(self):
        """n FlowMods take roughly n x install time before the barrier."""
        one = _barrier_time(OVS_PROFILE, 1)
        ten = _barrier_time(OVS_PROFILE, 10)
        assert ten > 5 * one

    def test_hardware_much_slower(self):
        assert _barrier_time(HARDWARE_PROFILE, 5) > 10 * _barrier_time(OVS_PROFILE, 5)

    def test_busy_time_accounted(self):
        sim = Simulator()
        channel = ControlChannel(sim, latency=Constant(0.0), rng=random.Random(0))
        channel.bind_controller(lambda m: None)
        switch = SwitchSim(sim, dpid=1, channel=channel, timing=OVS_PROFILE,
                           rng=random.Random(7))
        for index in range(4):
            channel.to_switch(add_flow(Match(in_port=index + 1), out_port=1))
        sim.run()
        assert switch.log.busy_time_ms > 0
        assert switch.busy_until <= sim.now
