"""Fault-tolerant campaign fabric: coordinator + pull-based worker fleet.

Splits the campaign engine's execution across a coordinator service
(:mod:`~repro.campaign.fabric.coordinator`) and any number of pull-based
workers (:mod:`~repro.campaign.fabric.worker`), connected in-process or
over the REST surface (:mod:`~repro.campaign.fabric.transport`):

* workers lease cell batches with TTLs, heartbeat while computing, and
  stream one JSONL shard per finished cell back;
* the coordinator reclaims the cells of dead workers and expired leases,
  retries transient failures with bounded exponential backoff + jitter,
  re-leases a timed-out cell once with a larger budget before recording
  ``timeout``, and folds shards through the unchanged store path so the
  fleet's ``results.jsonl`` stays byte-identical to a 1-worker run;
* the coordinator itself is crash-tolerant by event sourcing: its durable
  state (:mod:`~repro.campaign.fabric.state`) changes only by applying a
  record that is already in the write-ahead journal
  (:mod:`~repro.campaign.fabric.journal`), so a restarted ``repro campaign
  serve`` recovers by folding that same ``apply`` over snapshot events +
  journal, and workers ride out the outage by reconnecting with backoff.
"""

from repro.campaign.fabric.coordinator import Coordinator
from repro.campaign.fabric.journal import FabricJournal
from repro.campaign.fabric.leases import Lease, LeaseTable, WorkerState
from repro.campaign.fabric.transport import HttpFabricClient, LocalClient
from repro.campaign.fabric.worker import FabricWorker, worker_main

__all__ = [
    "Coordinator",
    "FabricJournal",
    "FabricWorker",
    "HttpFabricClient",
    "Lease",
    "LeaseTable",
    "LocalClient",
    "WorkerState",
    "worker_main",
]
