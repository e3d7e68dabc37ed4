"""Validation of REST request bodies (the paper's message format).

The WayUp REST request has a header part -- ``oldpath``, ``newpath``,
``wp`` and ``interval`` -- and a body part of OpenFlow message payloads
keyed by type (section 2 of the paper).  These validators reject malformed
requests with :class:`~repro.errors.BadRequestError` before anything
touches the controller.
"""

from __future__ import annotations

from typing import Any

from repro.errors import BadRequestError

#: Header fields of the paper's update request and their expected shapes.
UPDATE_HEADER_FIELDS = ("oldpath", "newpath", "wp", "interval")

#: Body keys carrying explicit per-switch FlowMod payloads.
UPDATE_BODY_KEYS = ("add", "modify", "delete")

#: Keys this implementation additionally understands.
UPDATE_EXTENSION_KEYS = ("algorithm", "match", "priority", "name", "barriers")


def _require_dict(body: Any, what: str) -> dict:
    if not isinstance(body, dict):
        raise BadRequestError(f"{what} must be a JSON object, got {type(body).__name__}")
    return body


def _is_datapath_id(value: Any) -> bool:
    """An int or an ASCII-digit string (bools are neither; ``int("²")`` fails)."""
    if isinstance(value, str):
        return value.isascii() and value.isdigit()
    return isinstance(value, int) and not isinstance(value, bool)


def _require_wp(body: dict) -> None:
    wp = body.get("wp")
    if wp is not None and not _is_datapath_id(wp):
        raise BadRequestError(f"'wp' must be a numeric datapath id, got {wp!r}")


def _require_path(body: dict, key: str) -> None:
    value = body.get(key)
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise BadRequestError(f"{key!r} must be a list of at least two datapath ids")
    for item in value:
        if not _is_datapath_id(item):
            raise BadRequestError(f"{key!r} contains a non-numeric id: {item!r}")
    normalized = [int(v) for v in value]
    if len(set(normalized)) != len(normalized):
        raise BadRequestError(f"{key!r} must be a simple path (no repeats)")


def validate_update_body(body: Any) -> dict:
    """Validate the paper's update request; returns the body for chaining."""
    body = _require_dict(body, "update request")
    for key in ("oldpath", "newpath"):
        if key not in body:
            raise BadRequestError(f"update request needs {key!r}")
        _require_path(body, key)
    _require_wp(body)
    if "interval" in body:
        interval = body["interval"]
        if isinstance(interval, bool) or not isinstance(interval, (int, float)):
            raise BadRequestError(f"'interval' must be milliseconds, got {interval!r}")
        if interval < 0:
            raise BadRequestError(f"'interval' must be non-negative, got {interval!r}")
    priority = body.get("priority", 0)
    if type(priority) is not int or not 0 <= priority <= 0xFFFF:
        raise BadRequestError(f"'priority' must be an int in 0..65535, got {priority!r}")
    if "match" in body and not isinstance(body["match"], dict):
        raise BadRequestError(f"'match' must be an object, got {body['match']!r}")
    if "barriers" in body and not isinstance(body["barriers"], bool):
        raise BadRequestError("'barriers' must be a boolean")
    for key in UPDATE_BODY_KEYS:
        if key in body and body[key] is not None:
            entries = body[key]
            if not isinstance(entries, list):
                raise BadRequestError(f"{key!r} must be a list of FlowMod bodies")
            for entry in entries:
                _require_dict(entry, f"{key!r} entry")
                if "dpid" not in entry:
                    raise BadRequestError(f"{key!r} entry without 'dpid': {entry!r}")
                if not _is_datapath_id(entry["dpid"]):
                    raise BadRequestError(
                        f"{key!r} entry 'dpid' must be numeric, got {entry['dpid']!r}"
                    )
    return body


#: Keys of the scheduler-service request (``POST /schedule``).
SCHEDULE_BODY_KEYS = (
    "oldpath", "newpath", "wp", "scheduler", "properties",
    "cleanup", "verify", "params",
)


def validate_schedule_body(body: Any) -> dict:
    """Validate a ``POST /schedule`` request (the envelope's wire form).

    The path/waypoint part follows the paper's update format; the rest
    maps one-to-one onto :class:`repro.core.api.ScheduleRequest` fields:
    ``scheduler`` (registry spec string), ``properties`` (explicit
    verification target), ``cleanup``/``verify`` flags, and ``params``
    (engine options).  Scheduler-spec validity itself is checked by the
    registry at execution time.
    """
    body = _require_dict(body, "schedule request")
    unknown = set(body) - set(SCHEDULE_BODY_KEYS)
    if unknown:
        raise BadRequestError(f"unknown schedule request keys: {sorted(unknown)}")
    for key in ("oldpath", "newpath"):
        if key not in body:
            raise BadRequestError(f"schedule request needs {key!r}")
        _require_path(body, key)
    _require_wp(body)
    if "scheduler" in body and not isinstance(body["scheduler"], str):
        raise BadRequestError("'scheduler' must be a registry spec string")
    if "properties" in body and body["properties"] is not None:
        properties = body["properties"]
        if not isinstance(properties, list) or not all(
            isinstance(p, str) for p in properties
        ):
            raise BadRequestError("'properties' must be a list of property names")
    for key in ("cleanup", "verify"):
        if key in body and not isinstance(body[key], bool):
            raise BadRequestError(f"{key!r} must be a boolean")
    if "params" in body and not isinstance(body["params"], dict):
        raise BadRequestError("'params' must be an object of engine options")
    return body


def validate_flowentry_body(body: Any) -> dict:
    """Validate an ofctl flow-entry body (``dpid`` plus optional fields)."""
    body = _require_dict(body, "flow entry")
    if "dpid" not in body:
        raise BadRequestError("flow entry body needs a 'dpid'")
    dpid = body["dpid"]
    if isinstance(dpid, bool) or not isinstance(dpid, (int, str)):
        raise BadRequestError(f"'dpid' must be a datapath id, got {dpid!r}")
    if isinstance(dpid, str) and not dpid.isdigit():
        raise BadRequestError(f"'dpid' must be numeric, got {dpid!r}")
    if "match" in body and not isinstance(body["match"], dict):
        raise BadRequestError("'match' must be an object")
    for key in ("priority", "idle_timeout", "hard_timeout", "cookie", "table_id"):
        if key in body:
            value = body[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise BadRequestError(f"{key!r} must be an integer, got {value!r}")
            if value < 0:
                raise BadRequestError(f"{key!r} must be non-negative, got {value!r}")
    return body
