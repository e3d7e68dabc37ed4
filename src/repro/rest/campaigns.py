"""REST-facing campaign service.

Bridges the HTTP surface to the campaign engine:

* ``POST /campaigns`` -- body is either a campaign spec, or
  ``{"spec": {...}, "workers": N}``; runs the campaign (small specs are
  expected over REST; large sweeps belong to ``repro campaign run``) and
  returns the status summary.
* ``GET /campaigns/<campaign_id>`` -- progress counters.
* ``GET /campaigns/<campaign_id>/report`` -- aggregated per
  family x scheduler percentile records.

Fabric (coordinator + worker fleet) endpoints, all idempotent-safe under
at-least-once delivery:

* ``POST /campaigns/serve`` -- ``{"spec": {...}, ...options}``; stand up
  a :class:`~repro.campaign.fabric.Coordinator` for the spec (resuming
  its run directory -- including crash recovery from the fabric journal)
  and return its status.  Cells are *not* executed server-side; pull
  workers do that.
* ``POST /campaigns/<campaign_id>/fabric/register|heartbeat|lease|submit|fail|deregister``
  -- the worker protocol (see :mod:`repro.campaign.fabric.transport`).
  Duplicate shard submissions are counted no-ops.  A ``submit`` body is
  one finished cell and carries an ``integrity`` sidecar (record
  checksum + cell identity hash) that the coordinator validates before
  folding.  A body key its verb does not name is a 400.
* ``GET /campaigns/<campaign_id>/fabric`` -- coordinator status with
  lease/reclaim/retry/escalation counters.

``GET /metrics`` reads every served coordinator through
:meth:`CampaignService.metric_families`.

Unknown campaign ids are a 404, malformed specs a 400 -- never a raw
``KeyError``/500 out of the router.
"""

from __future__ import annotations

import pathlib
import tempfile
from typing import Any, Mapping

from repro.errors import BadRequestError, CampaignError, CampaignSpecError, NotFoundError
from repro.fabric_options import FABRIC_OPTIONS, MAX_WORKERS
from repro.schema import Field, Schema, integer, is_object
from repro.campaign.aggregate import aggregate_records
from repro.campaign.fabric import Coordinator
from repro.campaign.fabric.leases import TALLIES
from repro.campaign.fabric.transport import dispatch
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import RunStore

#: REST-side cap: campaigns beyond this size must go through the CLI.
MAX_REST_CELLS = 5000

_SPEC = Field("spec", is_object, "a campaign spec object")

#: ``POST /campaigns`` in its wrapped form (a bare spec is the other).
SUBMIT = Schema("campaign submission", (
    _SPEC, Field("workers", integer(1, MAX_WORKERS),
                 f"an int in 1..{MAX_WORKERS}", 1),
), BadRequestError)

#: ``POST /campaigns/serve``: the spec plus the coordinator knobs.
SERVE = Schema("campaign serve", (
    _SPEC, *(option.field(key) for key, option in FABRIC_OPTIONS.items()),
), BadRequestError)


def _within_cap(spec: CampaignSpec, command: str) -> None:
    """Refuse a spec past :data:`MAX_REST_CELLS` before expanding it."""
    n_cells = spec.cell_count()
    if n_cells > MAX_REST_CELLS:
        raise BadRequestError(
            f"campaign has {n_cells} cells; REST accepts at most "
            f"{MAX_REST_CELLS} -- use 'repro campaign {command}'"
        )


class CampaignService:
    """Run directory management + engine invocation for the REST routes."""

    def __init__(self, root: str | None = None) -> None:
        self._root = root
        self._coordinators: dict[str, Coordinator] = {}

    @property
    def root(self) -> str:
        if self._root is None:
            self._root = tempfile.mkdtemp(prefix="repro-campaigns-")
        return self._root

    def _store(self, campaign_id: str) -> RunStore:
        store = RunStore(self.root, str(campaign_id))
        if not store.exists():
            raise NotFoundError(f"unknown campaign {campaign_id!r}")
        return store

    def submit(self, body: Any) -> dict:
        wrapped = {"spec": body, "workers": 1}
        if isinstance(body, Mapping) and "spec" in body:
            wrapped = SUBMIT.decode(body)
        try:
            spec = CampaignSpec.from_dict(wrapped["spec"])
            _within_cap(spec, "run")
            spec.expand()  # colliding cell ids are a spec error too
        except CampaignSpecError as exc:
            raise BadRequestError(f"bad campaign spec: {exc}") from None
        runner = CampaignRunner(spec, root=self.root, workers=wrapped["workers"])
        try:
            status = runner.run()
        except CampaignError as exc:
            raise BadRequestError(str(exc)) from None
        return status

    def status(self, campaign_id: str) -> dict:
        return self._store(campaign_id).status()

    def report(self, campaign_id: str) -> dict:
        store = self._store(campaign_id)
        return {
            "campaign_id": store.campaign_id,
            "rows": aggregate_records(store.records(), store.timings()),
        }

    # ------------------------------------------------------------------
    # fabric: coordinator lifecycle + worker protocol
    # ------------------------------------------------------------------
    def serve(self, body: Any, *, capped: bool = True) -> dict:
        """Stand up a coordinator for a spec (idempotent per campaign id).

        ``capped=False`` lifts :data:`MAX_REST_CELLS`: ``repro campaign
        serve`` reads its spec from a local file, not off the wire.
        """
        options = SERVE.decode(body)
        try:
            spec = CampaignSpec.from_dict(options.pop("spec"))
        except CampaignSpecError as exc:
            raise BadRequestError(f"bad campaign spec: {exc}") from None
        if capped:
            _within_cap(spec, "serve")
        active = self._coordinators.get(spec.campaign_id)
        if active is not None and not active.finished:
            raise BadRequestError(
                f"campaign {spec.campaign_id!r} is already being served"
            )
        try:
            coordinator = Coordinator(spec, root=self.root, **{
                key: value for key, value in options.items() if value is not None
            })
        except CampaignError as exc:
            raise BadRequestError(str(exc)) from None
        if active is not None:
            active.close()  # finished: release its journal and store
        self._coordinators[spec.campaign_id] = coordinator
        return coordinator.status()

    def fabric(self, campaign_id: str) -> Coordinator:
        coordinator = self._coordinators.get(str(campaign_id))
        if coordinator is None:
            raise NotFoundError(
                f"no coordinator serving campaign {campaign_id!r}"
            )
        return coordinator

    def fabric_ids(self) -> dict:
        return {"campaigns": sorted(self._coordinators)}

    def fabric_status(self, campaign_id: str) -> dict:
        return self.fabric(campaign_id).status()

    def fabric_telemetry(self, campaign_id: str) -> dict:
        """Per-worker live telemetry of a served campaign."""
        return self.fabric(campaign_id).telemetry()

    def fabric_call(self, campaign_id: str, verb: str, body: Any) -> dict:
        """One worker-protocol verb off the wire (decoded and shape-checked
        by :func:`~repro.campaign.fabric.transport.dispatch`)."""
        return dispatch(self.fabric(campaign_id), verb, body)

    def metric_families(self) -> dict[str, dict[tuple, int]]:
        """Every served coordinator's counters, read through its
        ``telemetry()``, as Prometheus counter families: the campaign
        totals as ``fabric.<counter>{campaign}`` and each worker's
        tallies as ``fabric.worker.<tally>{campaign, worker}``, a family
        of its own so that summing one never counts an event twice."""
        families: dict[str, dict[tuple, int]] = {}
        for campaign_id, coordinator in sorted(self._coordinators.items()):
            telemetry = coordinator.telemetry()
            campaign = (("campaign", campaign_id),)
            for name, value in telemetry["counters"].items():
                families.setdefault(f"fabric.{name}", {})[campaign] = value
            for worker in telemetry["workers"]:
                key = (*campaign, ("worker", worker["worker_id"]))
                for name in TALLIES:
                    family = families.setdefault(f"fabric.worker.{name}", {})
                    family[key] = worker[name]
        return families

    def close(self) -> None:
        """Flush and close every served coordinator's run store."""
        for coordinator in self._coordinators.values():
            coordinator.close()

    def known_ids(self) -> list[str]:
        root = pathlib.Path(self.root)
        if not root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in root.iterdir()
            if (entry / "manifest.json").is_file()
        )
