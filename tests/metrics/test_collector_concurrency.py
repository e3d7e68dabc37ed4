"""Concurrency tests for the numbers ``GET /metrics`` reads.

REST handler threads, in-process fabric workers and scrapes all run at
once.  ``execute_request`` records into its two histograms under one
lock, and a scrape reads the coordinators through their own frames, so
nothing may be lost and no scrape may come back torn.
"""

import sys
import threading

from repro.campaign import CampaignSpec
from repro.core.api import request_histograms, schedule_update
from repro.core.hardness import reversal_instance
from repro.rest.api import build_campaign_api
from tests.campaign.fabric_helpers import run_local_fleet
from tests.metrics.scrape import parse_exposition

THREADS = 8
ROUNDS = 250


def _hammer(fn):
    barrier = threading.Barrier(THREADS)

    def work(index):
        barrier.wait()  # maximize interleaving
        for i in range(ROUNDS):
            fn(index, i)

    threads = [
        threading.Thread(target=work, args=(index,))
        for index in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: lost updates show
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def _counts():
    wall_ms, rounds = request_histograms()
    return wall_ms.total, rounds.total


class TestRequestHistograms:
    def test_concurrent_requests_count_exactly(self):
        problem = reversal_instance(4)
        before = _counts()
        _hammer(lambda index, i: schedule_update(problem, "oneshot",
                                                 verify=False))
        requests = THREADS * ROUNDS
        assert _counts() == (before[0] + requests, before[1] + requests)

    def test_snapshots_never_split_the_pair(self):
        # one lock guards both histograms: a reading taken while requests
        # land never has one counted and the other not
        problem = reversal_instance(4)
        skew = _counts()
        readings = []
        done = threading.Event()

        def read():
            while not done.is_set():
                readings.append(_counts())

        reader = threading.Thread(target=read)
        reader.start()
        try:
            _hammer(lambda index, i: schedule_update(problem, "oneshot",
                                                     verify=False))
        finally:
            done.set()
            reader.join(timeout=60)
        assert not reader.is_alive() and readings
        offset = skew[0] - skew[1]
        assert all(wall - rounds == offset for wall, rounds in readings)


class TestScrapeUnderLoad:
    SPEC = {
        "name": "scrape-load",
        "families": [{"family": "reversal", "sizes": [4, 6], "repeats": 6}],
        "schedulers": ["peacock", "greedy-slf"],
    }

    def test_scrape_while_a_local_fleet_drains(self, tmp_path):
        api = build_campaign_api(campaign_root=str(tmp_path))
        reply = api.handle("POST", "/campaigns/serve",
                           {"spec": self.SPEC, "lease_cells": 2})
        assert reply.status == 200, reply.body
        campaign_id = CampaignSpec.from_dict(self.SPEC).campaign_id
        coordinator = api.campaigns.fabric(campaign_id)
        fleet = threading.Thread(target=run_local_fleet,
                                 args=(coordinator, 3))
        fleet.start()
        scrapes = []
        try:
            while fleet.is_alive() or not scrapes:
                scrapes.append(parse_exposition(
                    api.handle("GET", "/metrics").body))
        finally:
            fleet.join(timeout=60)
        assert not fleet.is_alive()
        label = f'{{campaign="{campaign_id}"}}'
        leased = [s.get(f"repro_fabric_cells_leased{label}", 0)
                  for s in scrapes]
        assert leased == sorted(leased)  # counters never fall
        final = parse_exposition(api.handle("GET", "/metrics").body)
        for name, value in coordinator.counters.items():
            assert final[f"repro_fabric_{name}{label}"] == value, name
        done = sum(value for series, value in final.items()
                   if series.startswith("repro_fabric_worker_cells_done{"))
        assert done == len(CampaignSpec.from_dict(self.SPEC).expand())
        api.campaigns.close()
