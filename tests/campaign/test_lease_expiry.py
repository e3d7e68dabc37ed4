"""The lease table's two clocks at their exact boundary instants, and
the worker name behind an id across a coordinator restart."""

from repro.campaign.fabric.leases import LeaseTable


def _table():
    table = LeaseTable(lease_ttl_s=10.0, heartbeat_timeout_s=30.0)
    worker = table.register_worker("w", now=0.0)
    return table, worker.worker_id


def test_a_lease_is_reclaimed_at_its_expiry_instant():
    table, worker_id = _table()
    lease = table.grant(worker_id, [0, 1], now=0.0)
    assert lease.expires_at == 10.0
    assert table.reap(now=9.999) == []
    assert table.holds(lease.lease_id, 0)
    assert table.reap(now=10.0) == [(lease, "lease-expired")]
    assert not table.holds(lease.lease_id, 0)
    assert table.worker(worker_id).alive


def test_a_worker_is_alive_at_its_heartbeat_deadline_and_dead_past_it():
    table, worker_id = _table()
    lease = table.grant(worker_id, [0], now=0.0)
    table.touch(worker_id, now=25.0)  # the lease now runs to 35.0
    assert table.reap(now=55.0) == [(lease, "lease-expired")]
    assert table.worker(worker_id).alive
    assert table.reap(now=55.001) == []
    assert not table.worker(worker_id).alive


def test_a_previous_coordinators_id_still_names_its_worker():
    # a restarted coordinator's table never issued these ids; the name
    # they carry is what a quarantine by name is keyed on
    table, worker_id = _table()
    restarted = LeaseTable(lease_ttl_s=10.0, heartbeat_timeout_s=30.0)
    assert restarted.worker(worker_id) is None
    assert restarted.name(worker_id) == table.name(worker_id) == "w"
    assert restarted.name("w7-gpu-box-2") == "gpu-box-2"
    issued = restarted.register_worker("gpu-box-2", now=0.0).worker_id
    assert restarted.name(issued) == "gpu-box-2"
