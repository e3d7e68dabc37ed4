"""Campaign-facing bridge to the process-wide scheduler registry.

A campaign spec's ``schedulers`` list holds registry spec strings
(:mod:`repro.core.registry` grammar): plain names (``peacock``,
``greedy-slf``, ``two-phase``, ``strongest``, ...), any registered alias
(``greedy_slf``), and the parameterized forms ``combined:<p1+p2+...>`` /
``optimal:<p1+p2+...>[?time_limit_s=...]``.  This module no longer keeps its
own name→callable map -- it translates registry errors into
:class:`~repro.errors.CampaignSpecError` so spec validation keeps its
error taxonomy, and re-exports the property-list parser the spec layer
shares.
"""

from __future__ import annotations

from repro.errors import CampaignSpecError, SchedulerSpecError
from repro.core.registry import (
    PROPERTY_BY_NAME,
    Scheduler,
    resolve_scheduler,
    scheduler_names,
)
from repro.core.registry import parse_properties as _parse_properties
from repro.core.verify import Property

__all__ = [
    "PROPERTY_BY_NAME",
    "Scheduler",
    "parse_properties",
    "resolve",
    "scheduler_names",
]


def parse_properties(text: str) -> tuple[Property, ...]:
    """Parse ``"wpe+rlf+blackhole"`` into a Property tuple (campaign errors)."""
    try:
        return _parse_properties(text)
    except SchedulerSpecError as exc:
        raise CampaignSpecError(str(exc)) from None


def resolve(name: str) -> Scheduler:
    """Resolve a spec string against the registry (campaign errors)."""
    try:
        return resolve_scheduler(name)
    except SchedulerSpecError as exc:
        raise CampaignSpecError(str(exc)) from None
