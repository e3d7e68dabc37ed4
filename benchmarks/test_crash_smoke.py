"""The crash smoke's power-cut model on a hand-built run directory.

The directory is the one a failing ``make crash-smoke`` left: lines 0-3
synced before the last compaction, cells 4-7 and 9-11 settled in the
journal after it, and cell 8 settled while buffered behind a lower
index, so its only durable record is the snapshot.  Read as "journaled
or not" from line 4 on, the projection says ``J J J J . J J J``: a cut
that only trusted the journal saw line 8 as synced between unsynced
lines and stopped on its suffix assertion.
"""

from __future__ import annotations

import json

from repro.campaign import CampaignSpec
from repro.campaign.fabric.journal import JOURNAL, SNAPSHOT
from repro.campaign.store import RESULTS, TIMINGS

from run_crash_smoke import SPEC, cut_power


def _write_lines(path, rows) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def test_a_snapshot_settled_line_is_part_of_the_unsynced_tail(tmp_path):
    ids = [cell.cell_id for cell in CampaignSpec.from_dict(SPEC).expand()[:12]]
    for name in (RESULTS, TIMINGS):
        _write_lines(tmp_path / name, [{"id": cell_id} for cell_id in ids])
    kinds = {4: "accept", 5: "accept", 6: "poison", 7: "accept",
             9: "terminal", 10: "accept", 11: "accept"}
    _write_lines(tmp_path / JOURNAL, [
        {"seq": seq, "kind": kind, "index": index, "cell_id": ids[index]}
        for seq, (index, kind) in enumerate(sorted(kinds.items()), start=41)
    ])
    (tmp_path / SNAPSHOT).write_text(json.dumps({"seq": 40, "state": {
        "events": [
            {"kind": "lease", "lease_id": "l1", "cells": [12, 13]},
            {"kind": "accept", "index": 8, "worker": "w0"},
        ],
    }}))

    assert cut_power(tmp_path) == {RESULTS: 8, TIMINGS: 4}
    kept = [json.loads(line)["id"] for line in open(tmp_path / RESULTS)]
    assert kept == ids[:4]
    assert len(open(tmp_path / TIMINGS).readlines()) == 8
