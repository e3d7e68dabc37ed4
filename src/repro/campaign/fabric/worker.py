"""Pull-based campaign fabric worker.

A worker registers with the coordinator, then loops: lease a batch of
cells, execute each through the unchanged
:func:`~repro.campaign.runner.run_cell` (deterministic records, per-cell
timeouts that hold on the worker's own thread, error capture), and stream
each finished cell straight back -- one shard per cell, so a death loses
at most the cell in flight.  A daemon heartbeat thread keeps the worker's
leases alive while a long cell computes.

Infrastructure failures around ``run_cell`` (the cell itself never
raises) are reported to the coordinator as *transient* via ``fail``, to
be retried with backoff.

Coordinator outages are survivable: when a lease or submit exhausts the
:class:`HttpClient` retry budget (:class:`~repro.errors.TransportError`),
the worker assumes the coordinator is restarting and reconnects with
capped exponential backoff + jitter, re-registering under the same name
with a fresh epoch.  A computed-but-undelivered record is *resubmitted*
after the reconnect rather than recomputed -- records are deterministic
and the accept path idempotent, so a submit under a lease that died with
the old coordinator lands as a stale-but-accepted shard while the cell
is open (and a counted duplicate once it is not).  ``max_offline_s``
bounds how long a worker waits for the coordinator to come back before
giving up.  4xx answers (:class:`~repro.errors.HttpStatusError` -- auth
mismatch, malformed request) always fail fast instead of retrying.

Result integrity: every shard carries an ``integrity`` sidecar -- the
canonical-JSON sha256 of the record plus the leased payload's identity
hash -- so the coordinator can reject wire corruption and wrong-cell
submissions before journaling them.  A worker the coordinator has
*quarantined* (failed validation or a re-execution audit) learns it from
the reply, stops pulling, and exits: its results are no longer wanted.

Graceful drain: ``request_drain()`` (wired to SIGTERM/SIGINT in
:func:`worker_main`) lets the worker finish and submit its in-flight
cell, then ``deregister``: the coordinator hands the unstarted rest of
the lease back to the pool at once -- no retry budget burned, no waiting
out the lease TTL.

:func:`worker_main` is the process entry point used by ``repro campaign
work`` and ``repro campaign serve --local-workers``: plain args, so it
survives ``multiprocessing`` spawn.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time

from repro.errors import HttpStatusError, TransportError, backoff
from repro.obs import trace as obs
from repro.campaign.runner import run_cell
from repro.campaign.spec import payload_identity_hash
from repro.campaign.store import record_checksum


#: An idle worker's first poll delay; doubles per empty lease, starts over
#: at the next granted one.  The coordinator's ``retry_after_s`` only caps
#: it: that is when a backed-off cell comes due at the latest (a heartbeat
#: when none is), not when the last lease out there ends.
IDLE_POLL_S = 0.05
#: The reconnect backoff after a coordinator outage (``None``: jitter from
#: an unseeded RNG).
RECONNECT_BASE_S = 0.2
RECONNECT_CAP_S = 5.0
JITTER_SEED = None


class FabricWorker:
    """One pull-based worker bound to a coordinator transport."""

    def __init__(
        self,
        client,
        *,
        name: str = "worker",
        max_lease_cells: int | None = None,
        max_offline_s: float = 120.0,
        sleep=time.sleep,
        clock=time.monotonic,
        run_cell_fn=run_cell,
    ) -> None:
        self.client = client
        self.name = name
        self.max_lease_cells = max_lease_cells
        self.max_offline_s = float(max_offline_s)
        self._rng = random.Random(JITTER_SEED)
        self._sleep = sleep
        self._clock = clock
        self._run_cell = run_cell_fn
        self.worker_id: str | None = None
        self.cells_done = 0
        self.reconnects = 0
        self.gave_up_offline = False
        self.quarantined = False
        self.rejected_submits = 0
        self._epoch = 0
        self._draining = threading.Event()
        self._hb_stop = threading.Event()
        self._hb_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Ask the worker to finish its in-flight cell and exit cleanly
        (SIGTERM/SIGINT handler; also callable from tests)."""
        self._draining.set()

    def run(self) -> dict:
        """Work until the coordinator reports the campaign done; returns a
        summary dict."""
        try:
            self._register()
            self._loop()
        finally:
            self._stop_heartbeats()
        if not self.gave_up_offline:
            self._deregister()
        return {
            "worker_id": self.worker_id,
            "name": self.name,
            "cells_done": self.cells_done,
            "drained": self._draining.is_set(),
            "reconnects": self.reconnects,
            "gave_up_offline": self.gave_up_offline,
            "quarantined": self.quarantined,
            "rejected_submits": self.rejected_submits,
        }

    # ------------------------------------------------------------------
    def _register(self) -> None:
        self._epoch += 1
        with obs.span("fabric.rpc.register", worker=self.name,
                      epoch=self._epoch):
            reply = self.client.register(
                {"name": self.name, "pid": os.getpid(),
                 "epoch": self._epoch}
            )
        self.worker_id = reply["worker_id"]
        interval = float(reply.get("heartbeat_interval_s", 2.0))
        # a fresh stop event per registration: a previous epoch's thread
        # that outlived its join timeout still sees its own (set) event
        self._hb_stop = threading.Event()
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop,
            args=(interval, self._hb_stop),
            daemon=True,
        )
        self._hb_thread.start()

    def _stop_heartbeats(self) -> None:
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=2.0)
            self._hb_thread = None

    def _heartbeat_loop(self, interval: float, stop: threading.Event) -> None:
        while not stop.wait(interval):
            try:
                with obs.span("fabric.rpc.heartbeat", worker_id=self.worker_id):
                    self.client.heartbeat(self.worker_id)
            except Exception:  # noqa: BLE001 - liveness is best-effort; a
                pass  # lost beat (or a restarting coordinator) at worst
                # costs a reclaim + re-run -- the pull loop reconnects

    def _ride_out_outage(self, why: str) -> bool:
        """The coordinator stopped answering: wait for it to come back.

        Waits :func:`~repro.errors.backoff` (:data:`RECONNECT_BASE_S`
        doubling to :data:`RECONNECT_CAP_S`) before each attempt and
        re-registers (same worker name, fresh epoch).  Returns False -- and
        marks the worker as having given up -- once ``max_offline_s`` of
        continuous outage is spent; a drain request also stops waiting.
        4xx answers re-raise: an auth mismatch or malformed request will
        not get better by retrying.
        """
        self._stop_heartbeats()
        obs.event(
            "fabric.worker_offline", worker_id=self.worker_id, why=why
        )
        deadline = self._clock() + self.max_offline_s
        attempt = 0
        while not self._draining.is_set():
            delay = backoff(attempt, RECONNECT_BASE_S, RECONNECT_CAP_S,
                            self._rng)
            if self._clock() + delay > deadline:
                break
            self._sleep(delay)
            attempt += 1
            try:
                self._register()
            except HttpStatusError as exc:
                if exc.status == 404:
                    continue  # port is back up but the campaign is not
                    # re-served yet; keep knocking until recovery finishes
                raise  # fast-fail: a 401 auth mismatch is not weather
            except TransportError:
                continue
            self.reconnects += 1
            obs.event(
                "fabric.worker_reconnected",
                worker_id=self.worker_id,
                attempts=attempt,
                why=why,
            )
            return True
        if not self._draining.is_set():
            self.gave_up_offline = True
            obs.event(
                "fabric.worker_gave_up",
                worker_id=self.worker_id,
                offline_budget_s=self.max_offline_s,
            )
        return False

    def _loop(self) -> None:
        idle_s = IDLE_POLL_S
        while True:
            if self._draining.is_set():
                return
            try:
                with obs.span("fabric.rpc.lease", worker_id=self.worker_id):
                    reply = self.client.lease(
                        self.worker_id, self.max_lease_cells
                    )
            except HttpStatusError:
                raise
            except TransportError:
                if not self._ride_out_outage("lease"):
                    return
                continue
            if reply.get("unknown_worker"):
                # declared dead (frozen heartbeats, long pause) and
                # reaped; re-register and keep pulling -- our old cells
                # were reclaimed, any in-flight submit lands as stale
                self._stop_heartbeats()
                try:
                    self._register()
                except TransportError:
                    if not self._ride_out_outage("register"):
                        return
                continue
            if reply.get("quarantined"):
                # the coordinator no longer wants this worker's results;
                # pulling harder will not change the verdict
                self.quarantined = True
                obs.event(
                    "fabric.worker_quarantined", worker_id=self.worker_id
                )
                return
            if reply.get("done"):
                return
            cells = reply.get("cells", [])
            if not cells:
                self._sleep(min(idle_s, float(reply.get("retry_after_s", idle_s))))
                idle_s *= 2.0
                continue
            idle_s = IDLE_POLL_S
            for payload in cells:
                if self._draining.is_set():
                    return  # ``deregister`` hands the rest back
                if not self._execute(reply["lease_id"], payload):
                    # outage mid-lease: the lease died with the old
                    # coordinator (or the worker gave up) -- abandon the
                    # rest of it and pull a fresh lease
                    break
            if self.gave_up_offline or self.quarantined:
                return

    def _execute(self, lease_id: str, payload: dict) -> bool:
        """Run + deliver one cell; False when the lease should be
        abandoned (the coordinator restarted, the worker gave up, or it
        was quarantined)."""
        cell_id = payload["cell_id"]
        # one fresh trace per cell attempt: run + submit stitch together,
        # and the coordinator's accept span joins via the propagated
        # context (contextvars in-process, HTTP headers across the wire)
        with obs.root_span(
            "fabric.cell",
            cell_id=cell_id,
            worker_id=self.worker_id,
            lease_id=lease_id,
        ):
            try:
                record, timing = self._run_cell(payload)
            except Exception as exc:  # noqa: BLE001 - run_cell never raises;
                # anything here is harness-level (an OOM-killed import)
                self._report_fail(
                    lease_id, cell_id, f"{type(exc).__name__}: {exc}"
                )
                return True
            integrity = {
                "record_sha256": record_checksum(record),
                "cell_hash": payload_identity_hash(payload),
            }
            return self._submit(lease_id, cell_id, record, timing, integrity)

    def _submit(
        self, lease_id: str, cell_id: str, record: dict, timing: dict,
        integrity: dict,
    ) -> bool:
        """Deliver one computed cell.

        The one place a submission meets an outage.  The record is
        already computed, so the worker rides the outage out and delivers
        it again: deterministic records + idempotent accept make the
        redelivery safe even under a lease that died with the old
        coordinator (an already-accepted cell comes back as a counted
        duplicate).  False when the rest of the lease should be
        abandoned: an outage was ridden out (the lease is gone), the
        worker gave up offline, or it was quarantined.
        """
        in_one_go = True
        while True:
            try:
                with obs.span("fabric.rpc.submit", cell_id=cell_id,
                              worker_id=self.worker_id):
                    result = self.client.submit(
                        self.worker_id, lease_id, cell_id=cell_id,
                        record=record, timing=timing, integrity=integrity,
                    )
                break
            except HttpStatusError:
                raise
            except TransportError:
                in_one_go = False
                if not self._ride_out_outage("submit"):
                    return False
        if result.get("rejected"):
            self.rejected_submits += 1
        if result.get("accepted") or result.get("duplicate"):
            self.cells_done += 1
        if result.get("quarantined"):
            self.quarantined = True
            obs.event("fabric.worker_quarantined", worker_id=self.worker_id)
        return in_one_go and not self.quarantined

    def _report_fail(self, lease_id: str, cell_id: str, detail: str) -> None:
        """Tell the coordinator a cell will not come from this lease; if it
        cannot be told, lease expiry or recovery puts the cell back
        anyway."""
        try:
            with obs.span(
                "fabric.rpc.fail", cell_id=cell_id, worker_id=self.worker_id
            ):
                self.client.fail(self.worker_id, lease_id, cell_id, detail)
        except TransportError:
            pass

    def _deregister(self) -> None:
        """Best-effort goodbye so reclaim never waits on a clean exit."""
        if self.worker_id is None:
            return
        try:
            with obs.span(
                "fabric.rpc.deregister", worker_id=self.worker_id
            ):
                self.client.deregister(self.worker_id)
        except TransportError:
            pass


def worker_main(
    url: str,
    campaign_id: str,
    *,
    name: str = "worker",
    max_lease_cells: int | None = None,
    max_offline_s: float = 120.0,
    token: str | None = None,
) -> dict:
    """Process entry point: connect over HTTP and work until done.

    Installs SIGTERM/SIGINT handlers that drain gracefully -- finish the
    in-flight cell, then deregister, which hands the rest back -- when
    running as the process main thread (always true under
    ``multiprocessing`` spawn and the CLI).
    """
    from repro.campaign.fabric.transport import HttpFabricClient

    worker = FabricWorker(
        HttpFabricClient(url, campaign_id, token=token),
        name=name,
        max_lease_cells=max_lease_cells,
        max_offline_s=max_offline_s,
    )
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: worker.request_drain())
    return worker.run()
