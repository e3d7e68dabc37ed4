"""Tests for latency models and control channels."""

import random

import pytest

from repro.channel import base as channel_base
from repro.channel.base import ControlChannel
from repro.channel.latency_models import (
    Constant,
    Exponential,
    LogNormal,
    Pareto,
    Uniform,
    from_spec,
)
from repro.errors import ChannelClosedError, ChannelError
from repro.sim.simulator import Simulator


class TestLatencyModels:
    def test_constant(self):
        rng = random.Random(0)
        model = Constant(2.5)
        assert model.sample(rng) == 2.5
        assert model.mean() == 2.5

    def test_constant_rejects_negative(self):
        with pytest.raises(ChannelError):
            Constant(-1.0)

    def test_uniform_bounds(self):
        rng = random.Random(0)
        model = Uniform(1.0, 5.0)
        samples = [model.sample(rng) for _ in range(200)]
        assert all(1.0 <= s <= 5.0 for s in samples)
        assert model.mean() == 3.0

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ChannelError):
            Uniform(5.0, 1.0)

    def test_exponential_floor(self):
        rng = random.Random(0)
        model = Exponential(mean_ms=2.0, floor=1.0)
        assert all(model.sample(rng) >= 1.0 for _ in range(100))
        assert model.mean() == 3.0

    def test_lognormal_positive(self):
        rng = random.Random(0)
        model = LogNormal(median=3.0, sigma=0.5)
        assert all(model.sample(rng) > 0 for _ in range(100))
        assert model.mean() > 3.0  # lognormal mean exceeds median

    def test_pareto_capped(self):
        rng = random.Random(0)
        model = Pareto(scale=1.0, alpha=1.1, cap=50.0)
        assert all(model.sample(rng) <= 50.0 for _ in range(500))

    def test_empirical_mean_close(self):
        rng = random.Random(7)
        model = Uniform(2.0, 4.0)
        samples = [model.sample(rng) for _ in range(5000)]
        assert abs(sum(samples) / len(samples) - model.mean()) < 0.1

    @pytest.mark.parametrize("spec,expected_type", [
        (2.0, Constant),
        ("3.5", Constant),
        ("const:2", Constant),
        ("uniform:1:5", Uniform),
        ("exp:3", Exponential),
        ("lognormal:2:0.4", LogNormal),
        ("pareto:1:2:100", Pareto),
    ])
    def test_from_spec(self, spec, expected_type):
        assert isinstance(from_spec(spec), expected_type)

    def test_from_spec_passthrough(self):
        model = Constant(1.0)
        assert from_spec(model) is model

    def test_from_spec_rejects_unknown(self):
        with pytest.raises(ChannelError):
            from_spec("warp:9")
        with pytest.raises(ChannelError):
            from_spec("uniform:1:2:3:4")


class TestControlChannel:
    def _channel(self, **kwargs) -> tuple[Simulator, ControlChannel, list, list]:
        sim = Simulator()
        channel = ControlChannel(sim, rng=random.Random(0), **kwargs)
        at_switch, at_controller = [], []
        channel.bind_switch(at_switch.append)
        channel.bind_controller(at_controller.append)
        return sim, channel, at_switch, at_controller

    def test_delivery_both_directions(self):
        sim, channel, at_switch, at_controller = self._channel(latency=2.0)
        channel.to_switch("down")
        channel.to_controller("up")
        sim.run()
        assert at_switch == ["down"]
        assert at_controller == ["up"]
        assert sim.now == 2.0

    def test_fifo_preserves_order(self):
        sim, channel, at_switch, _ = self._channel(
            latency=Uniform(0.1, 10.0), fifo=True
        )
        for index in range(50):
            channel.to_switch(index)
        sim.run()
        assert at_switch == list(range(50))

    def test_reordering_channel_can_reorder(self):
        sim, channel, at_switch, _ = self._channel(
            latency=Uniform(0.1, 10.0), fifo=False
        )
        for index in range(50):
            channel.to_switch(index)
        sim.run()
        assert sorted(at_switch) == list(range(50))
        assert at_switch != list(range(50))  # seed 0 does reorder

    def test_directions_independent_fifo(self):
        sim, channel, at_switch, at_controller = self._channel(latency=1.0)
        channel.to_switch("a")
        channel.to_controller("b")
        sim.run()
        assert at_switch and at_controller

    def test_loss_inflates_latency(self, monkeypatch):
        monkeypatch.setattr(channel_base, "RTO_MS", 100.0)
        sim, channel, at_switch, _ = self._channel(latency=1.0, drop_prob=0.9)
        channel.to_switch("x")
        sim.run()
        assert at_switch == ["x"]
        assert sim.now > 100.0  # at least one retransmission happened
        assert channel.stats.retransmissions >= 1

    def test_closed_channel_rejects(self):
        _, channel, _, _ = self._channel()
        channel.close()
        with pytest.raises(ChannelClosedError):
            channel.to_switch("x")

    def test_unbound_handler_raises(self):
        sim = Simulator()
        channel = ControlChannel(sim)
        channel.to_switch("x")
        with pytest.raises(ChannelError, match="handler"):
            sim.run()

    def test_stats(self):
        sim, channel, _, _ = self._channel(latency=1.0)
        channel.to_switch("a")
        channel.to_switch("b")
        channel.to_controller("c")
        sim.run()
        assert channel.stats.to_switch_sent == 2
        assert channel.stats.to_switch_delivered == 2
        assert channel.stats.to_controller_delivered == 1
        assert channel.stats.mean_latency_ms() == pytest.approx(1.0)

    def test_bad_drop_prob(self):
        with pytest.raises(ChannelError):
            ControlChannel(Simulator(), drop_prob=1.0)
