"""Append-only campaign run directories.

Layout of ``<root>/<campaign_id>/``::

    manifest.json   -- the spec plus engine version (written once; a rerun
                       with a different spec under the same id is refused)
    results.jsonl   -- one deterministic record per completed cell, in
                       canonical cell order (workers may finish out of
                       order; the runner writes in order), so the file is
                       bit-identical across 1-worker and N-worker runs
    timings.jsonl   -- wall-clock sidecar ({id, wall_ms}); kept out of
                       results.jsonl precisely so the latter stays
                       reproducible

Resumability: completed cell ids are read back from ``results.jsonl`` and
skipped on the next run; both files are first cut back to the whole records
they have in common (a killed writer leaves a partial last line, a power
cut may take a different unsynced tail from each), so an interrupted
campaign always restarts from a clean prefix with one timing per result.
The pool runner's :meth:`RunStore.append` fsyncs every record; the fabric
coordinator, whose journal is the durable record, uses the two halves of
it apart: :meth:`RunStore.write` per cell, :meth:`RunStore.sync` per batch.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Mapping

from repro.errors import CampaignError
from repro.campaign.spec import CampaignSpec, canonical_json

MANIFEST = "manifest.json"
RESULTS = "results.jsonl"
TIMINGS = "timings.jsonl"

#: fsync in :meth:`RunStore.sync`; a test that never loses power may patch
#: it off to run faster.
FSYNC = True

#: Terminal cell statuses a record may carry.
STATUSES = ("ok", "noop", "unsupported", "infeasible", "timeout", "error")


def encode_record(record: Mapping[str, Any]) -> str:
    """The one true line encoding (sorted keys, compact separators)."""
    return canonical_json(dict(record)) + "\n"


def record_checksum(record: Mapping[str, Any]) -> str:
    """sha256 over the canonical encoding of one record.

    This is the submission-integrity primitive: a worker computes it over
    the record it is about to submit, and the coordinator recomputes it
    over the record it received -- any bit-flip on the wire (or a worker
    checksumming one record and sending another) mismatches.
    """
    return hashlib.sha256(
        canonical_json(dict(record)).encode("utf-8")
    ).hexdigest()


def tally(progress: dict, record: Mapping[str, Any]) -> None:
    """Count one more finished cell into a :meth:`RunStore.status` reply."""
    progress["done"] += 1
    progress["remaining"] = max(0, progress["total"] - progress["done"])
    by_status = progress["by_status"]
    by_status[record["status"]] = by_status.get(record["status"], 0) + 1
    if record.get("verified") is False:
        progress["verification_failures"] += 1


def _fsync_directory(directory: pathlib.Path) -> None:
    """Flush a directory entry (a just-landed rename) to stable storage."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(directory, flags)
    except OSError:
        return  # platform refuses directory opens; nothing more we can do
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems reject directory fsync; best effort
    finally:
        os.close(fd)


def atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Crash-atomic whole-file write: temp file + fsync + atomic rename.

    A SIGKILL at any point leaves either the old file or the new one --
    never a half-written mix.  The temp file lives in the target's
    directory so the final ``os.replace`` stays on one filesystem, and the
    parent directory is fsynced after the rename so the rename itself
    survives power loss (file data alone is not enough: the directory
    entry pointing at it must also reach the disk).
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


class RunStore:
    """One campaign's on-disk run directory."""

    def __init__(self, root: str | os.PathLike, campaign_id: str) -> None:
        self.campaign_id = campaign_id
        self.directory = pathlib.Path(root) / campaign_id
        self._results_handle = None
        self._timings_handle = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open_dir(cls, directory: str | os.PathLike) -> "RunStore":
        """Open an existing run directory (its name is the campaign id)."""
        path = pathlib.Path(directory)
        store = cls(path.parent, path.name)
        if not store.exists():
            raise CampaignError(f"{path} is not a campaign run directory")
        return store

    def exists(self) -> bool:
        return (self.directory / MANIFEST).is_file()

    def initialize(self, spec: CampaignSpec, n_cells: int) -> None:
        """Create the directory and manifest, or check the manifest matches."""
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / MANIFEST
        manifest = {
            "campaign_id": self.campaign_id,
            "name": spec.name,
            "spec": spec.to_dict(),
            "spec_hash": spec.spec_hash,
            "n_cells": n_cells,
        }
        if manifest_path.is_file():
            existing = json.loads(manifest_path.read_text(encoding="utf-8"))
            if existing.get("spec_hash") != spec.spec_hash:
                raise CampaignError(
                    f"run directory {self.directory} belongs to a different "
                    "spec (hash mismatch); delete it or change the spec name"
                )
            self._repair()
            return
        atomic_write_text(manifest_path, canonical_json(manifest) + "\n")

    def _repair(self) -> None:
        """Cut both files back to the whole records they have in common:
        a result without its timing would lose the timing for good, a
        timing without its result would be written twice.  What goes was
        never synced -- the pool runner re-runs it, the fabric re-derives
        it from its journal."""
        paths = [self.directory / RESULTS, self.directory / TIMINGS]
        files = [p.read_bytes() if p.is_file() else b"" for p in paths]
        keep = min(data.count(b"\n") for data in files)
        for path, data in zip(paths, files):
            end = sum(len(line) + 1 for line in data.split(b"\n")[:keep])
            if end < len(data):
                with open(path, "r+b") as handle:
                    handle.truncate(end)

    def manifest(self) -> dict:
        path = self.directory / MANIFEST
        if not path.is_file():
            raise CampaignError(f"no manifest in {self.directory}")
        return json.loads(path.read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: Mapping[str, Any], timing: Mapping[str, Any]) -> None:
        """Persist one finished cell, fsynced (when :data:`FSYNC`) before
        returning: a SIGKILL or power cut right after ``append`` can never
        lose the record; one *during* it leaves at most a partial line or
        a result without its timing, which ``_repair`` cuts on the next
        run."""
        self.write(record, timing)
        self.sync()

    def write(self, record: Mapping[str, Any], timing: Mapping[str, Any]) -> None:
        """Hand both lines to the OS, flushed but not fsynced: safe from
        a SIGKILL, not from a power cut before the next :meth:`sync`."""
        results, timings = self._handles()
        results.write(encode_record(record))
        results.flush()
        timings.write(encode_record(timing))
        timings.flush()

    def sync(self) -> None:
        """fsync both files, whichever process wrote their unsynced tail."""
        if FSYNC:
            for handle in self._handles():
                os.fsync(handle.fileno())

    def _handles(self) -> tuple:
        if self._results_handle is None:
            self._results_handle = open(
                self.directory / RESULTS, "a", encoding="utf-8"
            )
            self._timings_handle = open(
                self.directory / TIMINGS, "a", encoding="utf-8"
            )
        return self._results_handle, self._timings_handle

    def close(self) -> None:
        for handle in (self._results_handle, self._timings_handle):
            if handle is not None:
                handle.close()
        self._results_handle = None
        self._timings_handle = None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _read_jsonl(self, filename: str) -> list[dict]:
        path = self.directory / filename
        if not path.is_file():
            return []
        records: list[dict] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    break  # trailing partial line of a killed run
        return records

    def records(self) -> list[dict]:
        return self._read_jsonl(RESULTS)

    def timings(self) -> list[dict]:
        return self._read_jsonl(TIMINGS)

    def completed_ids(self) -> set:
        return {record["id"] for record in self.records()}

    def results_bytes(self) -> bytes:
        path = self.directory / RESULTS
        return path.read_bytes() if path.is_file() else b""

    def status(self, records: list[dict] | None = None) -> dict:
        """Progress counters for ``repro campaign status`` and REST
        (over ``records`` when the caller has already read them)."""
        manifest = self.manifest()
        records = self.records() if records is None else records
        total = manifest.get("n_cells", len(records))
        progress = {
            "campaign_id": self.campaign_id,
            "name": manifest.get("name"),
            "total": total,
            "done": 0,
            "remaining": total,
            "by_status": {status: 0 for status in STATUSES},
            "verification_failures": 0,
        }
        for record in records:
            tally(progress, record)
        return progress
