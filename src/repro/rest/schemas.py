"""Validation of REST request bodies (the paper's message format).

The WayUp REST request has a header part -- ``oldpath``, ``newpath``,
``wp`` and ``interval`` -- and a body part of OpenFlow message payloads
keyed by type (section 2 of the paper).  Each route's body is one table
of rows read by :class:`repro.schema.Schema`, the package's one body
decoder; a malformed request is a :class:`~repro.errors.BadRequestError`
before anything touches the controller.
"""

from __future__ import annotations

from typing import Any

from repro.errors import BadRequestError
from repro.openflow.constants import DEFAULT_PRIORITY, FlowModCommand
from repro.schema import (Field, Schema, boolean, datapath_id, integer, is_object,
                          list_of, number, string)

_PATH = list_of(datapath_id, 2, distinct=int)
_PATH_TEXT = "a simple path: at least two datapath ids, no repeats, none non-numeric"
_DPID_TEXT = "a numeric datapath id"
_U16 = integer(0, 0xFFFF)
_COMMAND_NUMBERS = set(map(int, FlowModCommand))


def _command(value: Any) -> bool:
    """A FlowMod command by name (any case) or number; a bool is neither."""
    return (value.upper() in FlowModCommand.__members__ if isinstance(value, str)
            else type(value) is int and value in _COMMAND_NUMBERS)


#: Every key :meth:`~repro.openflow.flowmod.FlowMod.from_ofctl` reads; what
#: is nested under ``match`` / ``actions`` / ``instructions`` is the
#: OpenFlow codec's to refuse (a "bad flow entry").
_FLOWENTRY = (
    Field("dpid", datapath_id, _DPID_TEXT),
    Field("match", is_object, "an object", {}),
    Field("actions", list_of(is_object), "a list of action objects", ()),
    Field("instructions", list_of(is_object), "a list of instruction objects", ()),
    Field("command", _command, "a FlowMod command name or number", None),
    Field("cookie", integer(0, (1 << 64) - 1), "an int in 0..2**64-1", 0),
    Field("table_id", integer(0, 0xFF), "an int in 0..255", 0),
    Field("idle_timeout", _U16, "an int in 0..65535", 0),
    Field("hard_timeout", _U16, "an int in 0..65535", 0),
    Field("priority", _U16, "an int in 0..65535", DEFAULT_PRIORITY),
    Field("flags", _U16, "an int in 0..65535", 0),
)

#: ``POST /stats/flowentry/<operation>``; unknown keys pass, as in ofctl.
FLOWENTRY = Schema("flow entry", _FLOWENTRY, BadRequestError, closed=False)

#: An explicit per-switch FlowMod body of an update request.
OVERRIDE = Schema("override entry", _FLOWENTRY, BadRequestError, closed=False)
_OVERRIDES = ("add", "modify", "delete")

#: ``POST /update[/<algorithm>]``: the paper's header fields, this
#: implementation's extensions and the override lists; unknown keys pass.
UPDATE = Schema("update request", (
    Field("oldpath", _PATH, _PATH_TEXT),
    Field("newpath", _PATH, _PATH_TEXT),
    Field("wp", datapath_id, _DPID_TEXT, None),
    Field("interval", number(0), "non-negative milliseconds (a finite number)", 0),
    Field("algorithm", string, "a scheduler spec string", None),
    Field("match", is_object, "an object", {}),
    Field("priority", _U16, "an int in 0..65535", 0),
    Field("barriers", boolean, "true or false", True),
    *(Field(key, list_of(is_object), "a list of FlowMod bodies", None)
      for key in _OVERRIDES),
), BadRequestError, closed=False)

#: ``POST /schedule``: :class:`repro.core.api.ScheduleRequest`'s fields; the
#: registry checks the scheduler spec when the request runs.
SCHEDULE = Schema("schedule request", (
    Field("oldpath", _PATH, _PATH_TEXT),
    Field("newpath", _PATH, _PATH_TEXT),
    Field("wp", datapath_id, _DPID_TEXT, None),
    Field("scheduler", string, "a registry spec string", "wayup"),
    Field("properties", list_of(string), "a list of property names", None),
    Field("cleanup", boolean, "true or false", True),
    Field("verify", boolean, "true or false", True),
    Field("params", is_object, "an object of engine options", {}),
), BadRequestError)


def validate_update_body(body: Any) -> dict:
    """Validate the paper's update request; returns the body for chaining."""
    UPDATE.decode(body)
    for key in _OVERRIDES:
        for entry in body.get(key) or ():
            OVERRIDE.decode(entry)
    return body


def validate_schedule_body(body: Any) -> dict:
    """Validate a ``POST /schedule`` request (the envelope's wire form)."""
    SCHEDULE.decode(body)
    return body


def validate_flowentry_body(body: Any) -> dict:
    """Validate an ofctl flow-entry body (``dpid`` plus optional fields)."""
    FLOWENTRY.decode(body)
    return body
