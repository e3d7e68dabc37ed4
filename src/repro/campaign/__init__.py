"""Campaign engine: declarative scenario corpus + sharded experiment runner.

The subsystem turns a JSON spec (:mod:`repro.campaign.spec`) into a grid of
scenario cells over instance families (:mod:`repro.campaign.families`) and
scheduler spec strings (the :mod:`repro.core.registry` grammar, resolved
when the spec is built), executes them across a process pool with
per-cell timeouts and error capture (:mod:`repro.campaign.runner`),
streams deterministic JSONL results into a resumable run directory
(:mod:`repro.campaign.store`), and aggregates them into report tables
(:mod:`repro.campaign.aggregate`).  For multi-worker
fleets, :mod:`repro.campaign.fabric` runs the same cells through a
fault-tolerant coordinator + pull-worker decomposition with leases,
heartbeats, reclaim, and crash-safe resume.
"""

from repro.campaign.aggregate import (
    AGGREGATE_HEADERS,
    aggregate_records,
    aggregate_rows,
    render_report,
)
from repro.campaign.families import build_unit, known_families, single_problem
from repro.campaign.runner import CampaignRunner, run_cell
from repro.campaign.fabric import (
    Coordinator,
    FabricWorker,
    HttpFabricClient,
    LocalClient,
    worker_main,
)
from repro.campaign.spec import (
    CampaignSpec,
    Cell,
    FamilyEntry,
    canonical_json,
    derive_seed,
)
from repro.campaign.store import RunStore

__all__ = [
    "AGGREGATE_HEADERS",
    "CampaignRunner",
    "CampaignSpec",
    "Cell",
    "Coordinator",
    "FabricWorker",
    "FamilyEntry",
    "HttpFabricClient",
    "LocalClient",
    "RunStore",
    "aggregate_records",
    "aggregate_rows",
    "build_unit",
    "canonical_json",
    "derive_seed",
    "known_families",
    "render_report",
    "run_cell",
    "single_problem",
    "worker_main",
]
