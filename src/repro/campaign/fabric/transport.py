"""The fabric worker protocol, spelled once, and its two transports.

:data:`VERBS` is the wire contract as data: per :class:`Coordinator`
verb the ordered body fields in the coordinator's own argument order,
each with the shape a decoded value must have and the default of an
optional one.  Both directions read it:

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
from typing import Any, Callable, Mapping, NamedTuple

from repro.errors import BadRequestError, CampaignError, NotFoundError
from repro.campaign.fabric.coordinator import Coordinator

_REQUIRED = object()
#: As a field's ``key``: the value is the body itself, not one key of it.
WHOLE = ""


class Field(NamedTuple):
    """One parameter of a verb and how it travels."""

    name: str  #: the Coordinator parameter, and the body key unless ``key``
    shape: Callable[[Any], bool]
    expects: str
    default: Any = _REQUIRED
    key: str | None = None

    @property
    def wire(self) -> str:
        return self.name if self.key is None else self.key


def _decode(what: str, fields: tuple[Field, ...], body: Mapping) -> list:
    """The coordinator arguments a body spells, in order, shape-checked;
    a key no field names is refused (``register`` takes the whole body)."""
    if fields[0].wire != WHOLE:
        unknown = set(body) - {field.wire for field in fields}
        if unknown:
            raise BadRequestError(
                f"fabric {what} takes no {', '.join(map(repr, sorted(unknown)))}"
            )
    args = []
    for field in fields:
        value = body
        if field.wire != WHOLE:
            value = body.get(field.wire, field.default)
        if value is _REQUIRED or not (
            value is field.default or field.shape(value)
        ):
            raise BadRequestError(
                f"fabric {what} needs {field.wire!r}: {field.expects}"
            )
        args.append(value)
    return args


def _string(value: Any) -> bool:
    return isinstance(value, str)


def _object(value: Any) -> bool:
    return isinstance(value, Mapping)


WORKER = Field("worker_id", lambda v: _string(v) and v != "", "a non-empty string")
LEASE = Field("lease_id", _string, "a string")
CELL = Field("cell_id", _string, "a string")

#: Coordinator verb -> its parameters, in the coordinator's argument order.
VERBS: dict[str, tuple[Field, ...]] = {
    "register": (Field("body", _object, "an object", None, key=WHOLE),),
    "heartbeat": (WORKER,),
    "lease": (
        WORKER,
        Field("max_cells", lambda v: type(v) is int and v >= 1,
              "an int >= 1", None),
    ),
    # ``integrity``: the record checksum + cell identity hash the
    # coordinator validates before folding
    "submit": (
        WORKER,
        LEASE,
        CELL,
        Field("record", _object, "an object"),
        Field("timing", _object, "an object"),
        Field("integrity", _object, "an object"),
    ),
    "fail": (WORKER, LEASE, CELL, Field("detail", _string, "a string", "")),
    "deregister": (WORKER,),
}

#: The ``<verb>`` segments of ``POST /campaigns/<id>/fabric/<verb>``.
PATHS = tuple(VERBS)


def dispatch(coordinator: Coordinator, verb: str, body: Any) -> dict:
    """Serve one POSTed verb: 404 for a path that does not exist, 400 for
    a body of the wrong shape or a call the coordinator refuses."""
    if verb not in PATHS:
        raise NotFoundError(f"unknown fabric verb {verb!r}")
    if not isinstance(body, Mapping):
        body = {}
    args = _decode(verb, VERBS[verb], body)
    try:
        return getattr(coordinator, verb)(*args)
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
