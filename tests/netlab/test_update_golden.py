"""Recorded executions of the paper's demo path, replayed byte for byte.

``data/update_golden.json`` holds, per row of :data:`GOLDEN_ROWS`, what
``UpdateScenario.run()`` reports (``as_dict()`` without the process-wide
update id), every probe's ``TraceRecord``, every switch's ``SwitchLog``
and every flow entry's counters.  It was recorded at commit cea5930,
before instant-mode probe walks were remembered and replayed, so it pins
the counters a replay must reproduce as well as the fates.  The one-shot
rows carry looped, dropped and waypoint-bypassing probes; one row runs
in per-hop packet mode and one over a lossy, reordering channel.
Re-record (only from a commit whose results are the contract) with
``PYTHONPATH=src python tests/netlab/test_update_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.hardness import reversal_instance
from repro.netlab.figure1 import build_figure1_scenario
from repro.netlab.scenario import UpdateScenario
from repro.topology.graph import Topology

GOLDEN = Path(__file__).parent / "data" / "update_golden.json"

#: named ``UpdateScenario`` keyword sets
OPTIONS = {
    "default": {},
    "perhop": {"packet_mode": "perhop", "channel_latency": "uniform:0.5:6"},
    "lossy": {"fifo": False, "drop_prob": 0.2, "channel_latency": "uniform:0.5:6"},
}

#: (topology, algorithm, seed, options) -- topology is "figure1" or the
#: size of a reversal instance
GOLDEN_ROWS = (
    *(
        ("figure1", algorithm, seed, "default")
        for algorithm in ("wayup", "peacock", "two-phase", "oneshot")
        for seed in (1, 2)
    ),
    *(
        (n, algorithm, 1, "default")
        for n in (20, 50)
        for algorithm in ("peacock", "greedy-slf", "oneshot")
    ),
    ("figure1", "wayup", 3, "perhop"),
    ("figure1", "oneshot", 4, "lossy"),
)

LOG_FIELDS = (
    "flow_mods_applied", "flow_mods_failed", "barriers_answered",
    "packets_forwarded", "packets_dropped", "packets_punted", "busy_time_ms",
)


def golden_id(row) -> str:
    topology, algorithm, seed, options = row
    name = topology if topology == "figure1" else f"reversal-{topology}"
    return f"{name}-{algorithm}-s{seed}-{options}"


def reversal_topology(n: int):
    """The reversal-``n`` problem on the graph its two paths span."""
    problem = reversal_instance(n)
    topo = Topology(name=f"reversal-{n}")
    for node in sorted(problem.nodes):
        topo.add_switch(node)
    for path in (problem.old_path, problem.new_path):
        for a, b in path.edges():
            if not topo.has_link(a, b):
                topo.add_link(a, b)
    topo.add_host("h1")
    topo.add_host("h2")
    topo.add_link("h1", problem.source)
    topo.add_link("h2", problem.destination)
    return topo, problem


def build(row) -> UpdateScenario:
    topology, algorithm, seed, options = row
    kwargs = OPTIONS[options]
    if topology == "figure1":
        return build_figure1_scenario(algorithm=algorithm, seed=seed, **kwargs)
    topo, problem = reversal_topology(topology)
    return UpdateScenario(
        topo=topo, problem=problem, source_host="h1", destination_host="h2",
        algorithm=algorithm, seed=seed, **kwargs,
    )


def golden_run(row) -> dict:
    scenario = build(row)
    result = scenario.run()
    summary = result.as_dict()
    del summary["update_id"]  # a process-wide counter, not an output
    return {
        "result": summary,
        "traces": [
            [trace.packet_id, trace.injected_ms, trace.completed_ms,
             trace.path, trace.fate.value]
            for trace in result.traffic.traces
        ],
        "switches": {
            repr(node): {
                "log": {name: getattr(switch.log, name) for name in LOG_FIELDS},
                "entries": [
                    [table.table_id, entry.priority, entry.match.to_ofctl(),
                     entry.packet_count, entry.byte_count, entry.last_match_time]
                    for table in switch.tables
                    for entry in table
                ],
            }
            for node, switch in scenario.network.switches.items()
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


class TestGoldenReplay:
    @pytest.mark.parametrize("row", GOLDEN_ROWS, ids=golden_id)
    def test_run_reproduces_the_recording(self, row, golden):
        assert json.dumps(golden_run(row), sort_keys=True) == json.dumps(
            golden[golden_id(row)], sort_keys=True
        )

    def test_oneshot_rows_exercise_every_violation_kind(self, golden):
        totals = dict.fromkeys(("looped", "dropped", "bypassed_waypoint"), 0)
        for row in GOLDEN_ROWS:
            if row[1] == "oneshot":
                for kind in totals:
                    totals[kind] += golden[golden_id(row)]["result"][kind]
        assert all(totals.values()), totals


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({golden_id(row): golden_run(row) for row in GOLDEN_ROWS},
                   sort_keys=True, separators=(",", ":")) + "\n"
    )
    print(f"recorded {len(GOLDEN_ROWS)} runs -> {GOLDEN}")
