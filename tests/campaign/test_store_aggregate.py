"""Tests for the run-directory store and the aggregation helpers."""

import json

import pytest

from repro.campaign import (
    AGGREGATE_HEADERS,
    CampaignSpec,
    RunStore,
    aggregate_records,
    aggregate_rows,
    render_report,
)
from repro.errors import CampaignError

SPEC = CampaignSpec.from_dict({
    "name": "store",
    "families": [{"family": "reversal", "sizes": [6]}],
    "schedulers": ["peacock"],
})


def _record(cell_id="a", family="f", scheduler="s", status="ok",
            rounds=3, touches=5):
    return {
        "cell": 0, "id": cell_id, "family": family, "size": 6, "repeat": 0,
        "seed": 1, "scheduler": scheduler, "status": status,
        "rounds": rounds, "touches": touches, "verified": None, "detail": None,
    }


class TestRunStore:
    def test_initialize_and_read_back(self, tmp_path):
        store = RunStore(str(tmp_path), SPEC.campaign_id)
        store.initialize(SPEC, n_cells=4)
        store.append(_record("a"), {"id": "a", "wall_ms": 1.0})
        store.append(_record("b"), {"id": "b", "wall_ms": 2.0})
        store.close()
        assert store.completed_ids() == {"a", "b"}
        assert store.manifest()["n_cells"] == 4
        assert store.status()["done"] == 2
        assert store.status()["remaining"] == 2
        assert [t["wall_ms"] for t in store.timings()] == [1.0, 2.0]

    def test_open_dir(self, tmp_path):
        store = RunStore(str(tmp_path), SPEC.campaign_id)
        store.initialize(SPEC, n_cells=1)
        again = RunStore.open_dir(store.directory)
        assert again.campaign_id == SPEC.campaign_id
        with pytest.raises(CampaignError):
            RunStore.open_dir(tmp_path / "nope")

    def test_manifest_mismatch_refused(self, tmp_path):
        store = RunStore(str(tmp_path), SPEC.campaign_id)
        store.initialize(SPEC, n_cells=1)
        other = CampaignSpec.from_dict({
            "name": "store",
            "families": [{"family": "reversal", "sizes": [8]}],
            "schedulers": ["peacock"],
        })
        with pytest.raises(CampaignError):
            store.initialize(other, n_cells=1)

    def test_repair_truncates_partial_line(self, tmp_path):
        store = RunStore(str(tmp_path), SPEC.campaign_id)
        store.initialize(SPEC, n_cells=2)
        store.append(_record("a"), {"id": "a", "wall_ms": 1.0})
        store.close()
        path = store.directory / "results.jsonl"
        path.write_bytes(path.read_bytes() + b'{"id": "tru')
        store.initialize(SPEC, n_cells=2)  # re-open repairs
        assert store.completed_ids() == {"a"}
        assert path.read_bytes().endswith(b"\n")

    def test_repair_after_kill_between_record_and_timing(self, tmp_path):
        # a SIGKILL inside the timing write: the record before it has
        # both its lines and survives, the dangling partial line goes
        store = RunStore(str(tmp_path), SPEC.campaign_id)
        store.initialize(SPEC, n_cells=2)
        store.append(_record("a"), {"id": "a", "wall_ms": 1.0})
        store.close()
        timings = store.directory / "timings.jsonl"
        timings.write_bytes(timings.read_bytes() + b'{"id": "b", "wal')
        store.initialize(SPEC, n_cells=2)
        assert store.completed_ids() == {"a"}
        assert [t["id"] for t in store.timings()] == ["a"]
        assert timings.read_bytes().endswith(b"\n")

    @pytest.mark.parametrize("ahead", ["results.jsonl", "timings.jsonl"])
    def test_repair_cuts_both_files_to_their_common_records(
        self, tmp_path, ahead
    ):
        # a kill between the two writes, or a power cut over unsynced
        # tails, leaves one file a record ahead: a result without its
        # timing would lose the timing for good, a timing without its
        # result would be written twice -- so the extra line goes and the
        # cell runs (or is re-derived from the fabric journal) again
        store = RunStore(str(tmp_path), SPEC.campaign_id)
        store.initialize(SPEC, n_cells=2)
        store.append(_record("a"), {"id": "a", "wall_ms": 1.0})
        store.append(_record("b"), {"id": "b", "wall_ms": 2.0})
        store.close()
        behind = ({"results.jsonl", "timings.jsonl"} - {ahead}).pop()
        path = store.directory / behind
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[1][:5])  # b's line torn
        store.initialize(SPEC, n_cells=2)
        assert store.completed_ids() == {"a"}
        assert [t["id"] for t in store.timings()] == ["a"]
        store.append(_record("b"), {"id": "b", "wall_ms": 2.0})
        store.close()
        assert [r["id"] for r in store.records()] == ["a", "b"]
        assert [t["id"] for t in store.timings()] == ["a", "b"]

    def test_write_is_append_without_the_sync(self, tmp_path, monkeypatch):
        import os as _os

        calls = []
        real = _os.fsync
        monkeypatch.setattr(_os, "fsync", lambda fd: (calls.append(fd), real(fd)))
        store = RunStore(str(tmp_path), SPEC.campaign_id)
        store.initialize(SPEC, n_cells=2)
        del calls[:]
        store.write(_record("a"), {"id": "a", "wall_ms": 1.0})
        assert not calls
        assert store.completed_ids() == {"a"}  # flushed: readable at once
        store.sync()
        assert len(set(calls)) == 2
        store.append(_record("b"), {"id": "b", "wall_ms": 2.0})
        assert len(calls) == 4
        store.close()

    def test_record_without_timing_tolerated(self, tmp_path):
        # the complementary crash: record flushed, timing lost entirely
        from repro.campaign import aggregate_rows

        store = RunStore(str(tmp_path), SPEC.campaign_id)
        store.initialize(SPEC, n_cells=2)
        store.append(_record("a"), {"id": "a", "wall_ms": 1.0})
        store.append(_record("b"), {"id": "b", "wall_ms": 2.0})
        store.close()
        timings = store.directory / "timings.jsonl"
        lines = timings.read_bytes().splitlines(keepends=True)
        timings.write_bytes(b"".join(lines[:1]))  # drop b's timing
        assert store.status()["done"] == 2
        rows = aggregate_rows(store.records(), store.timings())
        assert rows and rows[0][2] == 2  # both records aggregated

    def test_manifest_write_is_atomic(self, tmp_path, monkeypatch):
        # a crash between writing the temp file and the rename leaves the
        # old manifest intact and no garbage at the final path
        import os as _os

        from repro.campaign.store import atomic_write_text

        target = tmp_path / "manifest.json"
        atomic_write_text(target, '{"version": 1}\n')

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(_os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_text(target, '{"version": 2}\n')
        monkeypatch.undo()
        assert target.read_text() == '{"version": 1}\n'

    def test_atomic_write_fsyncs_parent_directory(
        self, tmp_path, monkeypatch
    ):
        # the rename is only durable once the directory entry is synced;
        # atomic_write_text must flush the *parent*, after the replace
        import repro.campaign.store as store_mod

        synced = []
        monkeypatch.setattr(
            store_mod, "_fsync_directory", lambda d: synced.append(d)
        )
        target = tmp_path / "manifest.json"
        store_mod.atomic_write_text(target, '{"version": 1}\n')
        assert synced == [tmp_path]
        assert target.read_text() == '{"version": 1}\n'

    def test_initialize_leaves_no_temp_files(self, tmp_path):
        store = RunStore(str(tmp_path), SPEC.campaign_id)
        store.initialize(SPEC, n_cells=1)
        assert not list(store.directory.glob("*.tmp"))

    def test_fsync_opt_out_still_writes(self, tmp_path, monkeypatch):
        import repro.campaign.store as store_mod

        monkeypatch.setattr(store_mod, "FSYNC", False)
        store = RunStore(str(tmp_path), SPEC.campaign_id)
        store.initialize(SPEC, n_cells=1)
        store.append(_record("a"), {"id": "a", "wall_ms": 1.0})
        store.close()
        assert store.completed_ids() == {"a"}


class TestAggregate:
    def test_groups_and_percentiles(self):
        records = [
            _record("a1", "fam", "s1", rounds=2, touches=10),
            _record("a2", "fam", "s1", rounds=4, touches=20),
            _record("a3", "fam", "s1", status="error", rounds=None, touches=None),
            _record("b1", "fam", "s2", rounds=7, touches=7),
            _record("c1", "other", "s1", status="unsupported",
                    rounds=None, touches=None),
        ]
        timings = [
            {"id": "a1", "wall_ms": 1.0},
            {"id": "a2", "wall_ms": 3.0},
            {"id": "b1", "wall_ms": 5.0},
        ]
        rows = aggregate_rows(records, timings)
        assert [row[:5] for row in rows] == [
            ["fam", "s1", 3, 2, 1],
            ["fam", "s2", 1, 1, 0],
            ["other", "s1", 1, 0, 0],
        ]
        fam_s1 = rows[0]
        by_header = dict(zip(AGGREGATE_HEADERS, fam_s1))
        assert by_header["rounds p50"] == 3.0
        assert by_header["rounds max"] == 4
        assert by_header["wall ms p50"] == 2.0
        # the unsupported-only group shows dashes, not crashes
        assert rows[2][5] == "-"

    def test_aggregate_records_roundtrip(self):
        records = [_record("a1", "fam", "s1")]
        objects = aggregate_records(records)
        assert objects[0]["family"] == "fam"
        assert set(objects[0]) == set(AGGREGATE_HEADERS)

    def test_render_formats(self):
        records = [_record("a1", "fam", "s1")]
        assert "fam" in render_report(records, fmt="ascii", title="t")
        assert render_report(records, fmt="csv").startswith("family,")
        parsed = json.loads(render_report(records, fmt="json"))
        assert parsed[0]["scheduler"] == "s1"
        with pytest.raises(ValueError):
            render_report(records, fmt="bogus")
