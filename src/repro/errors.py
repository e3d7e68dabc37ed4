"""Exception hierarchy for the :mod:`repro` library, and the one backoff
its transient failures are retried with.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Subsystems define narrower
classes below; substrate packages (switch, channel, controller, ...) import
from here rather than defining their own ad-hoc exceptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """A topology is malformed or an operation references missing elements."""


class PathError(TopologyError):
    """A path is not simple, not connected, or not present in the topology."""


class UpdateModelError(ReproError):
    """An update problem is ill-formed (endpoints differ, waypoint missing, ...)."""


class ScheduleError(ReproError):
    """A schedule is structurally invalid (node repeated, unknown node, ...)."""


class SchedulerSpecError(ReproError):
    """A scheduler spec string is unknown, malformed, or carries bad params."""


class ScheduleTimeoutError(ReproError):
    """A scheduling request exceeded its wall-clock budget."""


class InfeasibleUpdateError(ReproError):
    """No schedule satisfying the requested properties exists."""


class VerificationError(ReproError):
    """A verifier was invoked on inputs it cannot handle."""


class VerificationBudgetError(VerificationError):
    """An exact verification exceeded its configured state budget."""


class ExactSearchBudgetError(VerificationBudgetError):
    """An exact search ran out of node or wall-clock budget.

    Carries the *anytime* interval proven before the budget ran out:
    ``lower`` is an admissible bound no schedule can beat, ``upper`` the
    round count of the best incumbent schedule found (``None`` when no
    feasible schedule is known yet), and ``nodes_expanded`` the search
    effort spent.  ``upper == lower`` never raises -- the search returns
    the incumbent as proven optimal instead.
    """

    def __init__(
        self,
        message: str,
        lower: int = 1,
        upper: "int | None" = None,
        nodes_expanded: int = 0,
    ) -> None:
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.nodes_expanded = nodes_expanded


class OpenFlowError(ReproError):
    """An OpenFlow message is malformed or cannot be encoded/decoded."""


class SwitchError(ReproError):
    """A simulated switch rejected an operation."""


class TableFullError(SwitchError):
    """The flow table has reached its capacity."""


class ChannelError(ReproError):
    """A control channel operation failed."""


class ChannelClosedError(ChannelError):
    """Message submitted to a closed channel."""


class ControllerError(ReproError):
    """Controller runtime failure (unknown datapath, app error, ...)."""


class UnknownDatapathError(ControllerError):
    """A message referenced a datapath id that is not connected."""


class RestError(ReproError):
    """Base class for REST-layer failures."""

    status = 500


class BadRequestError(RestError):
    """The REST request body failed validation."""

    status = 400


class NotFoundError(RestError):
    """No route matched the REST request."""

    status = 404


class TransportError(ReproError):
    """A client-side HTTP transport failure (connect error, 5xx exhausted).

    Raised by :class:`repro.rest.http_binding.HttpClient` after its bounded
    retry budget is spent on retryable failures (connection errors, 5xx).
    """


class HttpStatusError(TransportError):
    """The server answered with a non-retryable HTTP error status (4xx).

    Fails fast -- a malformed request will not get better by retrying.
    Carries the numeric ``status`` and the decoded response ``body``.
    """

    def __init__(self, message: str, status: int, body=None) -> None:
        super().__init__(message)
        self.status = status
        self.body = body


def backoff(k: int, base: float, cap: float, rng) -> float:
    """The wait before retry ``k + 1`` of a transient failure: ``base``
    doubling up to ``cap``, plus up to 50 % jitter from ``rng`` (the HTTP
    client's, a fabric worker's reconnect's or the coordinator's own)."""
    return min(cap, base * 2.0 ** k) * (1.0 + 0.5 * rng.random())


class CampaignError(ReproError):
    """A campaign run directory or engine invariant was violated."""


class CampaignSpecError(CampaignError):
    """A campaign specification is malformed or references unknown names."""


class ChurnError(ReproError):
    """Malformed churn trace or controller misuse."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven incorrectly."""


class ScenarioError(ReproError):
    """A netlab scenario is misconfigured."""
