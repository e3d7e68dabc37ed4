"""The executed path, pinned below the ledger's counters.

``data/executed_golden.json`` holds, per row of :data:`ROWS`, what one
``UpdateScenario.run()`` produced: ``as_dict()`` without the process-wide
update id, every probe's ``(packet_id, injected_ms, path, fate,
completed_ms)``, every switch's ``SwitchLog`` and channel stats, each
flow entry's ``(table, priority, packet_count, byte_count,
last_match_time)``, the events the simulator processed and the probes
the network served by replay.  The ledger's outcome digest sees only the
summary counters; this recording is what shows that a change to the
event loop, the probe injector or the walk replay moved no entry, log,
trace or event.  Re-record (only from a commit whose results are the
contract) with ``PYTHONPATH=src:. python tests/netlab/test_executed_golden.py``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from tests.netlab.test_update_golden import build

GOLDEN = Path(__file__).parent / "data" / "executed_golden.json"
SEED = 7

#: (topology, algorithm): topology is "figure1" or the size of a
#: reversal instance
ROWS = (
    *(("figure1", algorithm) for algorithm in ("wayup", "peacock", "two-phase", "oneshot")),
    *((20, algorithm) for algorithm in ("peacock", "greedy-slf")),
)


def row_id(row) -> str:
    topology, algorithm = row
    name = topology if topology == "figure1" else f"reversal-{topology}"
    return f"{name}-{algorithm}"


def executed(row) -> dict:
    scenario = build((*row, SEED, "default"))
    result = scenario.run()
    network = scenario.network
    summary = result.as_dict()
    del summary["update_id"]  # a process-wide counter, not an output
    return {
        "result": summary,
        "probes": [
            [trace.packet_id, trace.injected_ms, trace.path, trace.fate.value,
             trace.completed_ms]
            for trace in result.traffic.traces
        ],
        "switches": {
            repr(node): {
                "log": dataclasses.asdict(switch.log),
                "channel": dataclasses.asdict(network.channels[node].stats),
                "entries": [
                    [table.table_id, entry.priority, entry.packet_count,
                     entry.byte_count, entry.last_match_time]
                    for table in switch.tables
                    for entry in table
                ],
            }
            for node, switch in network.switches.items()
        },
        "events_processed": network.sim.events_processed,
        "replays": network._replays,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_executed_path_matches_the_recording(row, golden):
    assert json.dumps(executed(row), sort_keys=True) == json.dumps(
        golden[row_id(row)], sort_keys=True
    )


def test_the_recording_replays_and_rewalks(golden):
    # every row both replays probes and walks pipelines, so the pin
    # covers the replay path and the walk it stands in for
    for row in ROWS:
        recorded = golden[row_id(row)]
        assert 0 < recorded["replays"] < len(recorded["probes"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({row_id(row): executed(row) for row in ROWS},
                   sort_keys=True, separators=(",", ":")) + "\n"
    )
    print(f"recorded {len(ROWS)} runs -> {GOLDEN}")
