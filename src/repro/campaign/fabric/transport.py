"""The fabric worker protocol, spelled once, and its two transports.

:data:`VERBS` is the wire contract as data: per :class:`Coordinator`
verb a :class:`repro.schema.Schema` (the package's one body decoder) of
the body fields in the coordinator's own argument order, each with the
shape a decoded value must have and the default of an optional one.
Both directions read it:

* :class:`LocalClient` hands out an in-process coordinator's own bound
  verbs (tests, single-host fleets, the thread-based smoke paths);
* :class:`HttpFabricClient` encodes a call through the table and POSTs it
  to ``/campaigns/<id>/fabric/<verb>`` through the retrying
  :class:`~repro.rest.http_binding.HttpClient`, which gives connection
  errors and 5xx responses bounded exponential backoff and fails 4xx
  fast.  Retries make delivery at-least-once; the coordinator's
  idempotent accept paths make that safe;
* :func:`dispatch` is the server side of those POSTs: it decodes and
  shape-checks a body through the same table and calls the coordinator.
  A body key its verb does not name is refused, not ignored: a field an
  old or confused client relies on must not silently lose its meaning.

One verb per outcome: a finished cell goes back by ``submit``, one cell a
call; a draining worker's unstarted cells go back by ``deregister``; a
failure of the machinery around ``run_cell`` is ``fail``.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.errors import BadRequestError, CampaignError, NotFoundError
from repro.campaign.fabric.coordinator import Coordinator
from repro.schema import (WHOLE, _REQUIRED, Field, Schema, integer, is_object,
                          non_empty_string, string)

WORKER = Field("worker_id", non_empty_string, "a non-empty string")
LEASE = Field("lease_id", string, "a string")
CELL = Field("cell_id", string, "a string")


#: Coordinator verb -> its parameters, in the coordinator's argument order.
#: ``register`` reads the whole body, open to any key; every other verb
#: refuses a key it does not name.
VERBS: dict[str, Schema] = {
    verb: Schema(f"fabric {verb}", fields, BadRequestError,
                 closed=fields[0].wire != WHOLE)
    for verb, fields in {
        "register": (Field("body", is_object, "an object", None, key=WHOLE),),
        "heartbeat": (WORKER,),
        "lease": (WORKER, Field("max_cells", integer(1), "an int >= 1", None)),
        # ``integrity``: the record checksum + cell identity hash the
        # coordinator validates before folding
        "submit": (WORKER, LEASE, CELL, Field("record", is_object, "an object"),
                   Field("timing", is_object, "an object"),
                   Field("integrity", is_object, "an object")),
        "fail": (WORKER, LEASE, CELL, Field("detail", string, "a string", "")),
        "deregister": (WORKER,),
    }.items()
}

#: The ``<verb>`` segments of ``POST /campaigns/<id>/fabric/<verb>``.
PATHS = tuple(VERBS)


def dispatch(coordinator: Coordinator, verb: str, body: Any) -> dict:
    """Serve one POSTed verb: 404 for a path that does not exist, 400 for
    a body of the wrong shape or a call the coordinator refuses."""
    if verb not in PATHS:
        raise NotFoundError(f"unknown fabric verb {verb!r}")
    args = VERBS[verb].decode(body)
    try:
        return getattr(coordinator, verb)(**args)
    except CampaignError as exc:
        raise BadRequestError(str(exc)) from None


class LocalClient:
    """Direct in-process transport: the coordinator's own bound verbs."""

    def __init__(self, coordinator: Coordinator) -> None:
        self.coordinator = coordinator
        for verb in VERBS:
            setattr(self, verb, getattr(coordinator, verb))


class HttpFabricClient:
    """The same verbs over ``POST /campaigns/<id>/fabric/<verb>``."""

    def __init__(
        self,
        base_url: str,
        campaign_id: str,
        http=None,
        *,
        token: str | None = None,
    ) -> None:
        if http is None:
            from repro.rest.http_binding import HttpClient

            http = HttpClient(base_url, token=token)
        self.http = http
        self.campaign_id = campaign_id
        for verb in VERBS:
            setattr(self, verb, functools.partial(self._call, verb))

    def _call(self, verb: str, *args: Any, **kwargs: Any) -> dict:
        fields = VERBS[verb]
        names = [field.name for field in fields]
        given = dict(zip(names, args), **kwargs)
        if len(args) > len(names) or not given.keys() <= set(names):
            # what a bound ``Coordinator`` verb would refuse too
            raise TypeError(f"{verb}() takes only {', '.join(names)}")
        body: dict[str, Any] = {}
        for field in fields:
            value = given.get(field.name, field.default)
            if value is _REQUIRED:
                raise TypeError(f"{verb}() needs {field.name!r}")
            if field.wire == WHOLE:
                body.update(value or {})
            elif value is not None:
                body[field.wire] = value
        return self.http.post(
            f"/campaigns/{self.campaign_id}/fabric/{verb}", body
        )
