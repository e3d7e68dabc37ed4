"""The body table of ``POST /schedule``, the scheduler service.

Every REST body is read by one table of rows, :class:`repro.schema.Schema`,
and the table lives in the module that acts on the body: the ofctl flow
entry's in :mod:`repro.openflow.flowmod` (``FLOWENTRY``), the paper's
update request's in :mod:`repro.controller.ofctl_rest_own` (``UPDATE``),
the campaign bodies' in :mod:`repro.rest.campaigns`.  The rows naming an
update (``oldpath``, ``newpath``, ``wp``) are
:data:`repro.core.problem.PROBLEM_FIELDS`, shared with ``UPDATE``.  A
malformed request is a :class:`~repro.errors.BadRequestError` before
anything runs.
"""

from __future__ import annotations

from typing import Any

from repro.core.problem import PROBLEM_FIELDS
from repro.errors import BadRequestError
from repro.schema import Field, Schema, boolean, is_object, list_of, string

#: ``POST /schedule``: :class:`repro.core.api.ScheduleRequest`'s fields; the
#: registry checks the scheduler spec when the request runs.
SCHEDULE = Schema("schedule request", (
    *PROBLEM_FIELDS,
    Field("scheduler", string, "a registry spec string", "wayup"),
    Field("properties", list_of(string), "a list of property names", None),
    Field("cleanup", boolean, "true or false", True),
    Field("verify", boolean, "true or false", True),
    Field("params", is_object, "an object of engine options", {}),
), BadRequestError)


def validate_schedule_body(body: Any) -> dict:
    """Validate a ``POST /schedule`` request (the envelope's wire form)."""
    SCHEDULE.decode(body)
    return body
