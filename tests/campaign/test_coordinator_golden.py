"""Recorded coordinator sessions, replayed byte for byte.

``data/coordinator_golden.json`` holds, per script of :data:`SCRIPTS`,
what a hand-driven fleet observes of a :class:`Coordinator` under an
injected clock and seeded jitter: every reply, and at each checkpoint
``counters``, ``status()``, ``telemetry()`` and the bytes of the journal,
the snapshot, ``results.jsonl`` and ``timings.jsonl``, plus the
``(kind, name, attrs)`` sequence of every ``fabric.*`` trace record
(trace ids, ``ts``, ``pid`` and ``dur_ms`` are left out).

``fleet`` leases, submits honest / duplicate / stale / corrupt /
timed-out records, fails, drains a worker by ``deregister`` and takes it
back as a new epoch, lets workers die of heartbeat timeout (a first and a
repeat killer, then a poisoning), expires a lease at its hard TTL,
deregisters, exhausts a retry budget, and crashes + recovers the
coordinator mid-campaign.  ``audit`` runs at
``audit_fraction=1``: confirmed audits, an outvoted liar, a three-way
deadlock, a self-contradiction, an inconclusive timed-out re-run, a
quarantined worker's refused submit, a quarantine of two epochs of one
name, a dead re-executor, and a crash with candidates held.  ``frames``
makes each verb the first call after a worker died holding a lease, so
which verbs run the reaper, and when, is recorded too.  No script sends a
``fail`` under a lease that is gone or registers an empty worker name.

Re-record (only from a commit whose behaviour is the contract) with
``PYTHONPATH=src:. python tests/campaign/test_coordinator_golden.py``.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.fabric import Coordinator, leases
from repro.campaign.fabric import coordinator as fabric_coordinator
from repro.campaign.fabric import journal as fabric_journal
from repro.campaign.fabric.journal import JOURNAL, SNAPSHOT
from repro.campaign.runner import new_record
from repro.campaign.store import RESULTS, TIMINGS
from repro.obs.trace import RingBufferSink, global_tracer
from tests.campaign.fabric_helpers import sealed

GOLDEN = Path(__file__).parent / "data" / "coordinator_golden.json"



def golden_spec(sizes) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "golden",
        "seed": 11,
        "timeout_s": 5,
        "families": [{"family": "reversal", "sizes": list(sizes)}],
        "schedulers": ["peacock", "greedy-slf"],
    })


COMMON = dict(
    lease_ttl_s=10.0,
    heartbeat_interval_s=1.0,
    heartbeat_timeout_s=3.0,
    lease_cells=2,
)
#: The constants every session runs under: ``(module, name, value)``.
CONSTANTS = (
    (fabric_journal, "FSYNC", False),
    (fabric_coordinator, "JITTER_SEED", 7),
    (leases, "HARD_TTL_FACTOR", 2.0),
    (fabric_coordinator, "BACKOFF_BASE_S", 0.5),
)


def result(payload: dict, mode: str = "honest") -> tuple[dict, dict]:
    """A deterministic stand-in for running a cell; ``lie`` and ``lie2``
    are two different wrong answers."""
    record = new_record(payload)
    record.update(rounds=payload["size"], touches=2 * payload["size"],
                  verified=True)
    if mode == "lie":
        record["touches"] += 1
    elif mode == "lie2":
        record["touches"] += 2
    elif mode == "timeout":
        record.update(status="timeout", rounds=None, touches=None,
                      verified=None)
    return record, {"id": payload["cell_id"],
                    "wall_ms": payload["index"] + 0.5}


class Session:
    """One scripted fleet against one run directory."""

    def __init__(self, root: Path, spec: CampaignSpec, **options) -> None:
        self.root = root
        self.spec = spec
        self.payloads = [cell.payload() for cell in spec.expand()]
        self.options = {**COMMON, **options}
        self.now = 0.0
        self.replies: list = []
        self.checkpoints: list = []
        self.coordinator = self.open()

    def open(self) -> Coordinator:
        return Coordinator(self.spec, root=str(self.root),
                           clock=lambda: self.now, **self.options)

    def call(self, verb: str, *args):
        reply = getattr(self.coordinator, verb)(*args)
        self.replies.append([verb, reply])
        return reply

    def register(self, name: str, **meta) -> str:
        return self.call("register", {"name": name, **meta})["worker_id"]

    def lease(self, worker_id: str, max_cells=None) -> str | None:
        return self.grant(worker_id, max_cells)[0]

    def grant(self, worker_id: str, max_cells=None) -> tuple:
        reply = self.call("lease", worker_id, max_cells)
        return reply.get("lease_id"), [cell["index"] for cell in reply["cells"]]

    def entry(self, index: int, mode: str = "honest") -> dict:
        payload = self.payloads[index]
        record, timing = result(payload, mode)
        integrity = sealed(payload, record)
        if mode == "corrupt":
            integrity["record_sha256"] = "0" * 64
        return {"cell_id": payload["cell_id"], "record": record,
                "timing": timing, "integrity": integrity}

    def submit(self, worker_id, lease_id, index, mode="honest") -> dict:
        entry = self.entry(index, mode)
        return self.call("submit", worker_id, lease_id, entry["cell_id"],
                         entry["record"], entry["timing"], entry["integrity"])

    def fail(self, worker_id, lease_id, index, detail="boom"):
        return self.call("fail", worker_id, lease_id,
                         self.payloads[index]["cell_id"], detail)

    def beat(self, *worker_ids) -> None:
        for worker_id in worker_ids:
            self.call("heartbeat", worker_id)

    def checkpoint(self, label: str) -> None:
        coordinator = self.coordinator
        directory = coordinator.store.directory
        self.checkpoints.append({
            "label": label,
            "counters": dict(coordinator.counters),
            "status": coordinator.status(),
            "telemetry": coordinator.telemetry(),
            "files": {
                name: (directory / name).read_text()
                if (directory / name).is_file() else None
                for name in (JOURNAL, SNAPSHOT, RESULTS, TIMINGS)
            },
        })

    def crash(self) -> None:
        """Abandon the coordinator (nothing compacted) and recover."""
        self.checkpoint("before crash")
        self.coordinator.close()
        self.coordinator = self.open()
        self.checkpoint("recovered")


def fleet(session: Session) -> None:
    a = session.register("a")
    b = session.register("b", pid=1)
    c = session.register("c")
    first = session.lease(a)  # cells 0, 1
    session.submit(a, first, 0)  # accepted
    session.submit(a, first, 0, "timeout")  # duplicate under a live lease
    session.submit(a, first, 1, "timeout")  # escalated
    second = session.lease(b, 3)  # cells 1, 2, 3
    session.submit(b, second, 2)
    session.submit(b, second, 1)
    session.fail(b, second, 3)  # transient: retried with backoff
    third = session.lease(c)  # cells 4, 5
    session.call("deregister", c)  # drained: 4 and 5 requeued at once
    c = session.register("c")  # back as a new epoch
    session.submit(c, third, 4, "corrupt")  # rejected, c quarantined
    session.lease(c)  # quarantined reply
    session.beat(a, b, c)
    session.checkpoint("early")

    session.now = 1.0
    fourth = session.lease(a)  # cells 3, 4
    session.lease(b, 1)  # cell 5
    session.now = 4.5
    session.beat(b, c)  # a is dead: a kill on 3, a retry on 4
    session.submit(a, fourth, 4)  # stale, still accepted (3 is open)
    session.beat(a)  # unknown worker
    session.checkpoint("a died")
    session.crash()

    b = session.register("b")
    session.register("c")  # still quarantined; never beats, dies
    a = session.register("a")
    session.lease(a, 1)  # cell 3 again
    session.now = 8.0
    session.beat(b)  # a dies on 3 again: a repeat killer, retry charged
    d = session.register("d")
    session.now = 10.0
    session.beat(b, d)
    session.lease(d, 1)  # cell 3, its backoff over
    session.now = 13.5
    session.beat(b)  # d dies: the second distinct killer poisons 3
    session.checkpoint("poisoned")

    fifth = session.lease(b)  # cells 5, 6
    session.fail(b, fifth, 5, "flaky")  # retried
    for _ in range(2):
        session.now += 2.0
        session.beat(b)
        retry = session.lease(b, 1)  # cell 5
        session.fail(b, retry, 5, "flaky")  # retried, then terminal
    session.submit(b, fifth, 6)
    e = session.register("e")
    session.lease(e, 1)  # cell 7, never submitted
    while session.now < 40.0:
        session.now += 2.0
        session.beat(b, e)  # e stays alive; its lease hits the hard TTL
    session.checkpoint("expired")

    seventh = session.lease(e, 1)  # cell 7
    session.call("deregister", e)  # requeued at once
    f = session.register("f")
    eighth = session.lease(f)
    session.submit(f, eighth, 7)
    session.call("deregister", f)
    session.call("deregister", "w99-nobody")
    session.submit(e, seventh, 7)  # deregistered and stale: a duplicate
    session.checkpoint("finished")


def audit(session: Session) -> None:
    p, q, r = (session.register(name) for name in "pqr")
    first = session.lease(p)  # cells 0, 1
    session.submit(p, first, 0)  # candidate
    session.submit(p, first, 0)  # duplicate candidate
    session.submit(p, first, 1)  # candidate
    second = session.lease(q)  # 0 and 1 await a second opinion
    session.submit(q, second, 0)  # confirmed
    session.submit(q, second, 1, "lie")  # two candidates disagree
    third = session.lease(r, 1)  # cell 1
    session.submit(r, third, 1)  # p and r agree: q is quarantined
    session.submit(q, second, 0)  # a quarantined worker is refused
    session.checkpoint("liar outvoted")

    s, t, u = (session.register(name) for name in "stu")
    session.submit(s, session.lease(s, 1), 2)  # cell 2
    session.submit(t, session.lease(t, 1), 2, "lie")
    session.submit(u, session.lease(u, 1), 2, "lie2")  # three-way deadlock
    v = session.register("v")
    fourth = session.lease(v, 1)  # cell 2, from scratch
    session.submit(v, fourth, 2)
    session.submit(v, fourth, 2, "lie")  # self-contradiction
    twins = [session.register("twin") for _ in range(2)]
    held = [session.lease(twin, 1) for twin in twins]
    session.submit(twins[0], held[0], 5, "corrupt")  # both epochs lose
    session.lease(twins[1])  # quarantined reply
    session.checkpoint("deadlock")

    w, x, y = (session.register(name) for name in "wxy")
    session.submit(w, session.lease(w, 1), 2)
    session.submit(x, session.lease(x, 1), 2, "timeout")  # inconclusive
    session.submit(y, session.lease(y, 2), 3)  # cells 2 and 3 leased
    session.crash()  # candidates for 2 and 3 held

    w, y, z, g = (session.register(name) for name in "wyzg")
    session.lease(g)  # cells 2 and 3, awaiting a second opinion
    for _ in range(2):
        session.now += 2.0
        session.beat(w, y, z)  # g dies: a kill on 2, 3 just waits again
    for worker in (z, w, y, z, w):
        lease, indices = session.grant(worker)
        for index in indices:
            session.submit(worker, lease, index)
    session.checkpoint("finished")


def frames(session: Session) -> None:
    """Which verbs run the reaper, and when: each is the first call after
    a worker died holding a lease."""
    live = session.register("live")
    for verb in ("register", "ghost lease", "fail", "deregister", "submit",
                 "heartbeat", "lease", "status"):
        doomed = session.register("doomed")
        quitter = session.register("quitter")
        doomed_lease, doomed_cells = session.grant(doomed, 1)
        if verb in ("fail", "submit"):
            held, cells = session.grant(live, 1)
        session.beat(live, quitter)
        session.now += 2.0
        session.beat(live, quitter)  # the doomed worker falls silent
        session.now += 2.0
        if verb == "register":
            session.register("newcomer")
        elif verb == "ghost lease":
            session.lease("w99-ghost")
        elif verb == "fail":
            session.fail(live, held, cells[0])
        elif verb == "deregister":
            session.call("deregister", quitter)
        elif verb == "submit":
            session.submit(live, held, cells[0])
        elif verb == "heartbeat":
            session.beat(live)
        elif verb == "lease":
            session.grant(live, 1)
            session.call("deregister", live)  # drained: the cell handed back
            live = session.register("live")
        else:
            session.checkpoint(verb)
        # stale exactly when the verb reaped the doomed worker's lease
        session.submit(doomed, doomed_lease, doomed_cells[0])
        session.beat(live)
    old = session.register("phoenix")
    held, cells = session.grant(old, 1)
    session.register("phoenix")  # the name comes back as a new epoch
    session.submit(old, held, cells[0])  # credited to the one that ran it
    while not session.coordinator.finished:
        session.now += 2.0
        held, cells = session.grant(live)
        for index in cells:
            session.submit(live, held, index)
    session.checkpoint("finished")


#: name -> (script, reversal sizes of its spec, coordinator options)
SCRIPTS = {
    "fleet": (fleet, (4, 6, 8, 10), {"max_transient_retries": 2,
                                     "journal_compact_every": 6,
                                     "poison_kill_threshold": 2}),
    "audit": (audit, (4, 6, 8, 10), {"audit_fraction": 1.0,
                                     "journal_compact_every": 4}),
    "frames": (frames, (4, 6, 8, 10, 12, 14, 16, 18),
               {"max_transient_retries": 9, "poison_kill_threshold": 9}),
}


def golden_run(name: str) -> dict:
    script, sizes, options = SCRIPTS[name]
    root = Path(tempfile.mkdtemp(prefix="golden-"))
    sink = RingBufferSink(1 << 16)
    global_tracer().add_sink(sink)
    try:
        with pytest.MonkeyPatch.context() as patch:
            for module, constant, value in CONSTANTS:
                patch.setattr(module, constant, value)
            session = Session(root, golden_spec(sizes), **options)
            script(session)
            session.coordinator.close()
    finally:
        global_tracer().remove_sink(sink)
        shutil.rmtree(root, ignore_errors=True)
    return json.loads(json.dumps({
        "replies": session.replies,
        "checkpoints": session.checkpoints,
        "trace": [
            [record["kind"], record["name"], record["attrs"]]
            for record in sink.records()
            if record["name"].startswith("fabric.")
        ],
    }, sort_keys=True))


def masked(value):
    """The recording without what the fabric no longer has: the
    ``batch_submits`` counter (in ``counters``, ``status()`` and
    ``telemetry()``) and the ``requeue`` flag of ``fabric.fail_cell``."""
    if isinstance(value, list):
        if value[:2] == ["event", "fabric.fail_cell"]:
            value = [*value[:2], {k: v for k, v in value[2].items()
                                  if k != "requeue"}]
        return [masked(item) for item in value]
    if isinstance(value, dict):
        return {k: masked(v) for k, v in value.items() if k != "batch_submits"}
    return value


@pytest.fixture(scope="module")
def golden() -> dict:
    return masked(json.loads(GOLDEN.read_text()))


class TestGoldenReplay:
    @pytest.mark.parametrize("name", SCRIPTS)
    def test_session_reproduces_the_recording(self, name, golden):
        run = golden_run(name)
        recorded = golden[name]
        assert run["replies"] == recorded["replies"]
        for mine, theirs in zip(run["checkpoints"], recorded["checkpoints"]):
            assert mine == theirs, mine["label"]
        assert len(run["checkpoints"]) == len(recorded["checkpoints"])
        assert run["trace"] == recorded["trace"]

    def test_the_scripts_reach_every_path(self, golden):
        counters = {  # a recovered coordinator counts from zero again
            name: {
                key: max(point["counters"][key]
                         for point in golden[name]["checkpoints"])
                for key in golden[name]["checkpoints"][0]["counters"]
            }
            for name in SCRIPTS
        }
        fleet_paths = (
            "escalations", "duplicate_submits", "stale_submits",
            "transient_failures", "retries", "reclaims",
            "kills", "poisoned_cells", "integrity_rejects", "quarantines",
            "deregisters", "journal_compactions", "recovered_buffered",
            "recovered_leases_expired", "recovered_quarantines",
        )
        audit_paths = (
            "audits_run", "audit_mismatches", "quarantines",
            "duplicate_submits", "recovered_audit_candidates",
        )
        assert all(counters["fleet"][path] for path in fleet_paths)
        assert all(counters["audit"][path] for path in audit_paths)
        for name in SCRIPTS:
            status = golden[name]["checkpoints"][-1]["status"]
            assert status["done"] == status["total"]
        kinds = set()
        for name in SCRIPTS:
            for point in golden[name]["checkpoints"]:
                files = point["files"]
                for line in (files[JOURNAL] or "").splitlines():
                    kinds.add(json.loads(line)["kind"])
                snapshot = json.loads(files[SNAPSHOT] or '{"state": {}}')
                kinds.update(e["kind"] for e in snapshot["state"].get("events", ()))
        # a terminal record is folded into an accept by the compaction
        # that follows it; its trace event is what is left
        assert kinds == {"lease", "accept", "retry", "escalate",
                         "audit_candidate", "quarantine", "kill", "poison"}
        events = {name for _, name, _ in golden["fleet"]["trace"]}
        assert "fabric.terminal_error" in events


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({name: golden_run(name) for name in SCRIPTS},
                   sort_keys=True, separators=(",", ":")) + "\n"
    )
    print(f"recorded {len(SCRIPTS)} sessions -> {GOLDEN}")
