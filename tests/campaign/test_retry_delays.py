"""The fabric's retry delays, pinned.

A worker that lost its coordinator reconnects after 0.2 s, doubling to a
5.0 s cap, each delay stretched by up to 50 % of jitter from an unseeded
RNG.  A cell that failed transiently comes due again after 0.05 s,
doubling to a 2.0 s cap, with the coordinator's jitter seeded 0, so its
``eligible_at`` sequence is exact.  ``test_backoff_grows_and_caps``
(``tests/rest/test_http_client.py``) pins the HTTP client's.
"""

from repro.campaign import CampaignSpec
from repro.campaign.fabric import Coordinator, FabricWorker
from repro.errors import TransportError

SPEC = CampaignSpec.from_dict({
    "name": "delays",
    "seed": 1,
    "families": [{"family": "reversal", "sizes": [4]}],
    "schedulers": ["oneshot"],
})

#: When the one cell comes due after each of eight transient failures,
#: each reported the moment the last backoff ended, from t = 100 s: waits
#: of 0.05 s doubling to 2.0 s, times ``1 + 0.5 * Random(0).random()``.
DUE = [
    100.07111054628812, 100.20900826643513, 100.45106542451822,
    100.90284877457681, 101.90735866312426, 103.83130597308458,
    106.61510456211936, 108.91841728819828,
]


class _OutageClient:
    """The first lease finds the coordinator gone; it answers
    ``register`` again after ``down`` refused attempts."""

    def __init__(self, down: int):
        self.down = down
        self.registers = 0
        self.leases = 0

    def register(self, body):
        self.registers += 1
        if 1 < self.registers <= 1 + self.down:
            raise TransportError("connection refused")
        return {"worker_id": "w1-r", "heartbeat_interval_s": 1e6}

    def lease(self, worker_id, max_cells=None):
        self.leases += 1
        if self.leases == 1:
            raise TransportError("connection refused")
        return {"cells": [], "done": True}

    def deregister(self, worker_id):
        return {"ok": True}


def test_worker_reconnect_delays_double_to_the_cap():
    now = [0.0]
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        now[0] += seconds

    client = _OutageClient(down=6)
    summary = FabricWorker(
        client, name="r", sleep=sleep, clock=lambda: now[0]
    ).run()
    assert summary["reconnects"] == 1 and not summary["gave_up_offline"]
    assert client.registers == 8
    bases = [0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0]
    assert len(slept) == len(bases)
    for delay, base in zip(slept, bases):
        assert base <= delay <= 1.5 * base


def test_coordinator_retry_eligibility_is_the_seeded_sequence(tmp_path):
    now = [100.0]
    coordinator = Coordinator(
        SPEC, root=str(tmp_path), clock=lambda: now[0],
        lease_cells=1, max_transient_retries=8,
    )
    worker_id = coordinator.register({"name": "w"})["worker_id"]
    cell = coordinator._state.cells[0]
    due = []
    for _ in range(8):
        reply = coordinator.lease(worker_id)
        (payload,) = reply["cells"]
        coordinator.fail(worker_id, reply["lease_id"], payload["cell_id"], "io")
        due.append(cell.eligible_at)
        now[0] = cell.eligible_at
    coordinator.close()
    assert due == DUE
