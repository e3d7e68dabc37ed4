"""Continuous online scheduling under topology churn.

Update requests arrive over simulated time; an online controller
schedules them incrementally against one long-lived safety oracle per
update while absorbing cancellations and link failures.  See
:mod:`repro.churn.controller` for the design.
"""

from repro.churn.controller import (
    ChurnPolicy,
    OnlineChurnController,
    policy_for_scheduler,
    run_churn,
)
from repro.churn.events import (
    ChurnEvent,
    LinkFailure,
    UpdateArrival,
    UpdateCancel,
    event_sort_key,
)
from repro.churn.metrics import ChurnMetrics, UpdateLifecycle
from repro.churn.traces import ChurnTrace, FlowSpec, generate_trace
from repro.churn_options import trace_params
from repro.errors import ChurnError

__all__ = [
    "ChurnError",
    "ChurnEvent",
    "ChurnMetrics",
    "ChurnPolicy",
    "ChurnTrace",
    "FlowSpec",
    "LinkFailure",
    "OnlineChurnController",
    "UpdateArrival",
    "UpdateCancel",
    "UpdateLifecycle",
    "event_sort_key",
    "generate_trace",
    "policy_for_scheduler",
    "run_churn",
    "trace_params",
]
