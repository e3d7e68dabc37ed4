"""Inter-round pacing: ``interval_ms`` separates rounds, and only rounds."""

import pytest

from repro.controller.rules import compile_schedule
from repro.controller.update_queue import UpdateQueueApp
from repro.core.wayup import wayup_schedule
from repro.netlab.figure1 import figure1_problem
from repro.netlab.network import Network
from repro.openflow.match import Match
from repro.topology.builders import figure1


def _paced_run(interval_ms):
    network = Network(figure1(with_hosts=True), seed=0)
    queue = UpdateQueueApp()
    network.controller.register_app(queue)
    network.start()
    schedule = wayup_schedule(figure1_problem())
    compiled = compile_schedule(
        network.topo, schedule, Match(eth_type=0x0800, ipv4_dst="10.0.0.2"))
    completed = []
    queue.on_update_complete.append(completed.append)
    execution = queue.submit(compiled, interval_ms=interval_ms)
    network.flush()
    return execution, completed


@pytest.mark.parametrize("interval_ms", [0.0, 50.0])
def test_the_update_completes_when_its_last_round_does(interval_ms):
    execution, completed = _paced_run(interval_ms)
    assert execution.n_rounds >= 2
    last = execution.round_timings[-1]
    assert [event.time_ms for event in completed] == [last.finished_ms]
    assert execution.finished_ms == last.finished_ms


def test_each_later_round_starts_one_interval_after_the_previous_one():
    execution, _ = _paced_run(50.0)
    timings = execution.round_timings
    for before, after in zip(timings, timings[1:]):
        assert after.started_ms == pytest.approx(before.finished_ms + 50.0)
