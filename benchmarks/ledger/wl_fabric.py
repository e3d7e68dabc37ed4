"""``campaign_fabric``: cells leased, run, submitted, journaled and folded.

An op is one cell of a cheap grid (``random-update`` n=6/8/10 under
``peacock``/``greedy-slf``/``oneshot``, verify on) going through a
``Coordinator`` and one ``FabricWorker`` over ``LocalClient``, journal and
store fsync on.  Per-cell latency runs from the lease grant that carried
the cell to its submit ack.  Cells cost about a millisecond, so lease,
journal and fold overhead is most of the wall: core optimisations move
this workload little, coordinator and journal work move it a lot -- and
they move wall, not CPU, because fsync is waiting.  Output check:
``results.jsonl`` byte-identical to a serial ``run_cell`` fold.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pathlib
import shutil
import threading
import time

from repro.campaign.fabric.coordinator import Coordinator
from repro.campaign.fabric.journal import FabricJournal
from repro.campaign.fabric.transport import LocalClient
from repro.campaign.fabric.worker import FabricWorker
from repro.campaign.families import build_unit
from repro.campaign.runner import run_cell
from repro.campaign.spec import CampaignSpec, payload_identity_hash
from repro.campaign.store import RunStore, encode_record, record_checksum

from harness import (
    Cycle, Pacer, Tracer, Workload, alternate, clock, median, paired_share,
)

SIZES = (6, 8, 10)
SCHEDULERS = ("peacock", "greedy-slf", "oneshot")
#: repeats x 3 sizes x 3 schedulers = 306 cells a cycle: about a second,
#: so a run holds ten cycles and a stall of the disk spoils one of them.
REPEATS = 34
#: Never compact: the recovery probe wants the whole half-grid journaled.
NEVER = 10**9
#: (untraced, traced) campaign pairs behind ``trace.overhead_share``.  Two
#: runs of one campaign differ by tens of percent (disk, host), so the
#: pairs are many and small: one repeat, nine cells, 30 ms.
OVERHEAD_PAIRS = 60


def short_sleep(seconds: float) -> None:
    """An idle worker's poll sleep, capped: when the other worker holds
    the last lease the coordinator says "ask again in a heartbeat" (2 s),
    which would be most of a two-worker campaign this size."""
    time.sleep(min(seconds, 0.005))


def make_spec(seed: int, repeats: int) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "ledger",
        "seed": seed,
        "families": [
            {"family": "random-update", "sizes": list(SIZES), "repeats": repeats}
        ],
        "schedulers": list(SCHEDULERS),
        "verify": True,
    })


def serial_fold(payloads) -> tuple[list, bytes]:
    """The reference: ``run_cell`` in canonical order, folded to bytes."""
    results = [run_cell(payload) for payload in payloads]
    folded = "".join(encode_record(record) for record, _ in results)
    return results, folded.encode("utf-8")


class StampedClient:
    """``LocalClient`` verbs with a stamp at each grant and ack.

    With a ``tracer`` every lease/submit also becomes a span (busy time
    including the wait for the coordinator's lock).
    """

    def __init__(self, inner: LocalClient, pacer: Pacer,
                 tracer: Tracer | None = None) -> None:
        self.inner = inner
        self.pacer = pacer
        self.tracer = tracer
        self.granted: dict[str, tuple] = {}
        self.acked: dict[str, tuple] = {}
        self.verb_s = 0.0  # as clocked, like the cell walls beside it
        self.cell_wall_s = 0.0

    def __getattr__(self, verb):
        return getattr(self.inner, verb)

    def _stamp(self, name: str, since: tuple) -> tuple:
        until = self.pacer.stamp()
        self.verb_s += until[0] - since[0]
        if self.tracer is not None:
            self.tracer.add(name, since, until)
        return until

    def lease(self, worker_id, max_cells=None):
        since = self.pacer.stamp()
        reply = self.inner.lease(worker_id, max_cells)
        until = self._stamp("campaign.fabric.coordinator.lease", since)
        for payload in reply.get("cells", ()):
            self.granted[payload["cell_id"]] = until
        return reply

    def submit(self, worker_id, lease_id, cell_id, record, timing, integrity=None):
        since = self.pacer.stamp()
        reply = self.inner.submit(
            worker_id, lease_id, cell_id, record, timing, integrity
        )
        self.acked[cell_id] = self._stamp(
            "campaign.fabric.coordinator.submit", since
        )
        self.cell_wall_s += timing["wall_ms"] / 1e3
        return reply


def paced(pacer: Pacer):
    """``run_cell`` with the host's speed probed between cells: the worker
    loop cannot be paused from outside, so the probes ride on its
    ``run_cell_fn`` hook (and stay out of the cell's own wall)."""

    def run(payload):
        pacer.pace()
        return run_cell(payload)

    return run


@contextlib.contextmanager
def spanned_fsync(tracer: Tracer):
    """Traced pass only: every ``os.fsync`` becomes a span."""
    real = os.fsync
    stamp = tracer.pacer.stamp

    def fsync(fd):
        since = stamp()
        real(fd)
        tracer.add("os.fsync", since, stamp())

    os.fsync = fsync
    try:
        yield
    finally:
        os.fsync = real


def fold_alone(coordinator: Coordinator, results, limit: int | None = None) -> int:
    """Drive the coordinator with pre-computed records (no ``run_cell``):
    lease, submit every leased cell, repeat; returns cells folded."""
    client = LocalClient(coordinator)
    worker_id = client.register({"name": "fold"})["worker_id"]
    folded = 0
    while limit is None or folded < limit:
        reply = client.lease(worker_id)
        if reply.get("done") or not reply["cells"]:
            break
        for payload in reply["cells"]:
            record, timing = results[payload["index"]]
            client.submit(
                worker_id, reply["lease_id"], payload["cell_id"], record, timing,
                {"record_sha256": record_checksum(record),
                 "cell_hash": payload_identity_hash(payload)},
            )
            folded += 1
    return folded


class CampaignFabric(Workload):
    name = "campaign_fabric"

    def __init__(self, seed: int, scale: float, root) -> None:
        self.root = pathlib.Path(root)
        self.seed = seed
        self.scale = scale
        self.repeats = max(1, round(REPEATS * scale))
        self.spec = make_spec(seed, self.repeats)
        self.ops = [cell.payload() for cell in self.spec.expand()]
        results, self.reference = serial_fold(self.ops)
        self.expected = [dict(record) for record, _ in results]
        self.runs = 0
        self.coordinator: Coordinator | None = None

    def warm_up(self) -> None:
        pass  # the serial reference fold already ran every cell once

    def _fresh_dir(self) -> pathlib.Path:
        self.runs += 1
        return self.root / f"fabric-{self.runs}"

    def begin_cycle(self) -> None:
        self.directory = self._fresh_dir()
        self.coordinator = Coordinator(self.spec, root=str(self.directory))

    def run_cycle(self) -> Cycle:
        pacer = Pacer()
        cycle = Cycle(pacer)
        client = StampedClient(LocalClient(self.coordinator), pacer)
        worker = FabricWorker(client, name="ledger", run_cell_fn=paced(pacer))
        started = pacer.stamp()
        worker.run()
        ended = pacer.stamp()
        pacer.probe()
        (cycle.wall_s, cycle.cpu_s,
         cycle.fair_wall_s, cycle.fair_cpu_s) = pacer.fair_sum(started, ended)
        for payload in self.ops:
            cell_id = payload["cell_id"]
            if cell_id in client.acked:
                cycle.add_op(client.granted[cell_id], client.acked[cell_id])
        for record in self.coordinator.store.records():
            # an instance whose paths coincide is a legitimate "noop" cell
            record["ok"] = (
                record["status"] in ("ok", "noop")
                and record["verified"] is not False
            )
            cycle.outcomes.append(record)
        return cycle

    def end_cycle(self) -> int:
        """Byte-compare the fold; a mismatch fails every cell of the cycle."""
        coordinator, self.coordinator = self.coordinator, None
        folded = coordinator.store.results_bytes()
        coordinator.close()
        shutil.rmtree(self.directory)
        return 0 if folded == self.reference else len(self.ops)

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()

    # ------------------------------------------------------------------
    def trace(self, tracer: Tracer, budget_s: float) -> dict[str, float]:
        spec = make_spec(self.seed, max(1, self.repeats // 4))
        payloads = [cell.payload() for cell in spec.expand()]
        cells = len(payloads)
        results, reference = serial_fold(payloads)
        # whole campaigns with a span round every verb and fsync
        coverage: list[float] = []
        overhead: list[float] = []
        deadline = clock() + budget_s / 2
        while not coverage or clock() < deadline:
            run, client, counters, folded = self._run_fleet(
                spec, tracer, spanned=True)
            if folded != reference:
                self.trace_failed += cells
            clocked = run.until[0] - run.since[0]
            coverage.append((client.verb_s + client.cell_wall_s) / clocked)
            overhead.append(1.0 - client.cell_wall_s / clocked)
        rounds = len(coverage)
        # what those spans cost: small campaigns, untraced and traced by
        # turns; the spans only have to be made, not kept
        aside = Tracer(f"{self.name}.aside")
        tiny = make_spec(self.seed, 1)
        pairs = []
        for turn in range(max(3, round(OVERHEAD_PAIRS * min(1.0, self.scale)))):
            runs = {}
            alternate(
                turn,
                lambda: runs.update(plain=self._run_fleet(tiny, aside, False)[0]),
                lambda: runs.update(spanned=self._run_fleet(tiny, aside, True)[0]),
            )
            pairs.append((runs["plain"], runs["spanned"]))
        aside.pacer.probe()

        pace = tracer.pacer.pace  # between direct calls, never inside one
        for _ in range(3):
            with tracer.span("campaign.spec.expand"):
                spec.expand()
        for payload in payloads[:: len(SCHEDULERS)]:
            with tracer.span("campaign.families.build_unit"):
                build_unit(
                    payload["family"], payload["size"],
                    payload["params"], payload["seed"],
                )
        gc.collect()
        for payload in payloads:
            pace()
            with tracer.span("campaign.runner.run_cell"):
                run_cell(payload)
        for payload, (record, _) in zip(payloads, results):
            with tracer.span("campaign.spec.integrity_hash"):
                payload_identity_hash(payload)
                record_checksum(record)
        store = RunStore(self._fresh_dir(), spec.campaign_id)
        store.initialize(spec, n_cells=cells)
        journal = FabricJournal(self._fresh_dir())
        for index, (record, timing) in enumerate(results[:64]):
            pace()
            with tracer.span("campaign.store.append"):
                store.append(record, timing)
            with tracer.span("campaign.fabric.journal.append"):
                journal.append("accept", index=index, record=record, timing=timing)
        store.close()
        journal.close()

        coordinator = Coordinator(spec, root=str(self._fresh_dir()))
        pace()
        with tracer.span("campaign.fabric.coordinator.fold_alone") as fold:
            fold_alone(coordinator, results)
        coordinator.close()

        half = self._fresh_dir()
        coordinator = Coordinator(spec, root=str(half), journal_compact_every=NEVER)
        fold_alone(coordinator, results, limit=cells // 2)
        coordinator.close()
        pace()
        with tracer.span("campaign.fabric.coordinator.recover"):
            coordinator = Coordinator(
                spec, root=str(half), journal_compact_every=NEVER
            )
        coordinator.close()

        rates = [self._fleet_rate(spec, cells, workers) for workers in (1, 2)]

        tracer.pacer.probe()
        fsyncs = tracer.count("os.fsync")
        return {
            "campaign.spec.expand_ms": tracer.p50("campaign.spec.expand", 1e3),
            "campaign.families.build_unit_us": tracer.p50(
                "campaign.families.build_unit", 1e6),
            "campaign.runner.run_cell_us": tracer.p50(
                "campaign.runner.run_cell", 1e6),
            "campaign.spec.integrity_hash_us": tracer.p50(
                "campaign.spec.integrity_hash", 1e6),
            "campaign.store.append_us": tracer.p50("campaign.store.append", 1e6),
            "campaign.fabric.journal.append_us": tracer.p50(
                "campaign.fabric.journal.append", 1e6),
            "campaign.fabric.journal.records_per_cell": (
                counters["journal_records"] / cells),
            "campaign.fabric.journal.fsyncs_per_cell": fsyncs / rounds / cells,
            "campaign.fabric.journal.fsync_us": tracer.p50("os.fsync", 1e6),
            "campaign.fabric.coordinator.lease_us": tracer.p50(
                "campaign.fabric.coordinator.lease", 1e6),
            "campaign.fabric.coordinator.submit_us": tracer.p50(
                "campaign.fabric.coordinator.submit", 1e6),
            "campaign.fabric.coordinator.fold_cells_per_s": cells / fold.seconds,
            "campaign.fabric.coordinator.overhead_share": median(overhead),
            "campaign.fabric.coordinator.recover_ms": tracer.p50(
                "campaign.fabric.coordinator.recover", 1e3),
            "campaign.fabric.coordinator.leases_per_cell": (
                counters["leases_granted"] / cells),
            "campaign.fabric.coordinator.retries_per_cell": (
                counters["retries"] / cells),
            "campaign.fabric.coordinator.stale_submits": float(
                counters["stale_submits"]),
            "campaign.fabric.worker.idle_share": 1.0 - median(coverage),
            "campaign.fabric.worker.fleet2_speedup": rates[1] / rates[0],
            "trace.coverage": median(coverage),
            "trace.overhead_share": paired_share(pairs),
            "trace.sampled_ops": float(cells),
        }

    def _run_fleet(self, spec: CampaignSpec, tracer: Tracer, spanned: bool):
        """One whole campaign through coordinator + one worker, clocked by
        ``tracer``'s pacer and, if ``spanned``, with a span round every
        verb and fsync; returns the run, the client, the coordinator's
        counters and the folded results."""
        gc.collect()  # or each campaign pays for the oracles of the last
        directory = self._fresh_dir()
        coordinator = Coordinator(spec, root=str(directory))
        client = StampedClient(
            LocalClient(coordinator), tracer.pacer, tracer if spanned else None
        )
        worker = FabricWorker(
            client, name="ledger", run_cell_fn=paced(tracer.pacer)
        )
        with spanned_fsync(tracer) if spanned else contextlib.nullcontext():
            with tracer.plain() as run:
                worker.run()
        tracer.pacer.probe()
        counters = dict(coordinator.counters)
        folded = coordinator.store.results_bytes()
        coordinator.close()
        shutil.rmtree(directory)
        return run, client, counters, folded

    def _fleet_rate(self, spec: CampaignSpec, cells: int, workers: int) -> float:
        """Cells per second, as clocked, of ``workers`` worker threads."""
        gc.collect()
        coordinator = Coordinator(spec, root=str(self._fresh_dir()))
        threads = [
            threading.Thread(target=FabricWorker(
                LocalClient(coordinator), name=f"fleet{i}", sleep=short_sleep
            ).run)
            for i in range(workers)
        ]
        started = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = clock() - started
        coordinator.close()
        return cells / wall
