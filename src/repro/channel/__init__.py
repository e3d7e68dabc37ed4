"""Asynchronous control-channel substrate."""

from repro.channel.base import ChannelStats, ControlChannel
from repro.channel.latency_models import (
    Constant,
    Exponential,
    LatencyModel,
    LogNormal,
    Pareto,
    Uniform,
    from_spec,
)

__all__ = [
    "ChannelStats",
    "Constant",
    "ControlChannel",
    "Exponential",
    "LatencyModel",
    "LogNormal",
    "Pareto",
    "Uniform",
    "from_spec",
]
