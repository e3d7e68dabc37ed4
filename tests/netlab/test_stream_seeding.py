"""A network seeds only the random streams it draws from.

Every channel and switch draws from its own named stream
(:class:`~repro.sim.random_source.RandomStreams`), seeded at its first
draw.  Under the default constant channel latency no channel draws, so
no ``chan-*`` stream is seeded, and a switch's stream is seeded only if
it installs a flow; under a random latency or loss every channel's
stream is seeded once.  Either way a run is the one the network gave
when it seeded every stream at boot: :data:`RECORDED` pins two of them.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from repro.netlab.figure1 import build_figure1_scenario
from repro.sim.random_source import derive_seed

SEED = 5
#: sha256 of :func:`_outcome` for each drawing setting, recorded while
#: every stream was still seeded as the network booted (the constant
#: setting's runs are pinned by ``test_update_golden.py``)
RECORDED = {
    "uniform:1:5": "4f7aa9ae987cae44ae671700a2a29700b1db4695c1510d9d7d9f2759673a1692",
    "lognormal:1 lossy":
        "e87cbd65cc2d876a597de39db2d5304ee04f7aaa6fd8bf0ac0a381a0ed1a3bcf",
}
SETTINGS = {
    "constant": {},
    "uniform:1:5": {"channel_latency": "uniform:1:5"},
    "lognormal:1 lossy": {"channel_latency": "lognormal:1", "drop_prob": 0.1},
}


@pytest.fixture
def seedings(monkeypatch) -> list:
    """The value of every ``random.Random`` seeding from now on."""
    seeded = []
    seed = random.Random.seed

    def counted(self, a=None, *args, **kwargs):
        seeded.append(a)
        return seed(self, a, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counted)
    return seeded


def _outcome(result) -> str:
    summary = result.as_dict()
    del summary["update_id"]  # a process-wide counter, not an output
    traces = [
        [trace.packet_id, trace.injected_ms, trace.completed_ms,
         trace.path, trace.fate.value]
        for trace in result.traffic.traces
    ]
    blob = json.dumps([summary, traces], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _run(setting: str):
    scenario = build_figure1_scenario("wayup", seed=SEED, **SETTINGS[setting])
    return scenario, scenario.run()


def _streams_seeded(seeded: list, network, prefix: str) -> Counter:
    """How often each switch's ``prefix`` stream was seeded."""
    owner = {derive_seed(SEED, f"{prefix}-{dpid}"): dpid for dpid in network.switches}
    return Counter(owner[value] for value in seeded if value in owner)


@pytest.mark.parametrize("setting", sorted(RECORDED))
def test_the_run_is_the_one_recorded(setting):
    assert _outcome(_run(setting)[1]) == RECORDED[setting]


def test_a_constant_latency_channel_seeds_nothing(seedings):
    scenario, _ = _run("constant")
    network = scenario.network
    assert _streams_seeded(seedings, network, "chan") == Counter()
    installers = {
        dpid for dpid, switch in network.switches.items()
        if switch.log.flow_mods_applied
    }
    assert 0 < len(installers) < len(network.switches)
    assert _streams_seeded(seedings, network, "switch") == Counter(installers)


@pytest.mark.parametrize("setting", ["uniform:1:5", "lognormal:1 lossy"])
def test_a_drawing_channel_seeds_its_stream_once(setting, seedings):
    scenario, _ = _run(setting)
    network = scenario.network
    assert _streams_seeded(seedings, network, "chan") == Counter(network.channels.keys())
