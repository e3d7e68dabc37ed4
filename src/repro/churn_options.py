"""The churn trace knobs, spelled once.

:func:`repro.churn.traces.generate_trace` checks every trace against
:data:`TRACE_PARAMS`, a campaign spec's churn params are checked against
it when the spec is read, and ``repro churn run`` builds its flags from
:data:`TRACE_KNOBS`.  A leaf module: the CLI parser must not import the
churn controller.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

from repro.errors import ChurnError
from repro.schema import WHOLE, Field, Schema

#: Trace-generator defaults: the defaults of :data:`TRACE_PARAMS`' rows.
DEFAULT_RATE_PER_S = 50.0
DEFAULT_DURATION_MS = 400.0
DEFAULT_FLOWS = 6
DEFAULT_CANCEL_PROB = 0.1
DEFAULT_LINK_FAILURES = 1
DEFAULT_WAYPOINT_PROB = 0.5

#: Upper bounds :data:`TRACE_PARAMS` puts on a spec's trace: the flows,
#: and the arrivals the Poisson process is expected to draw
#: (``rate_per_s * duration_ms / 1000``).  Trace and run cost grow with
#: both; the defaults draw 6 and 20, the churn benchmarks at most 50.
MAX_TRACE_FLOWS = 1_000
MAX_EXPECTED_ARRIVALS = 10_000


def _knob(cast: type, least: float, most: float = math.inf, *,
          above: bool = False) -> Callable[[Any], bool]:
    """A value ``cast`` reads into ``least..most`` (with ``above``, past
    ``least``): an int, a float too when ``cast`` is float, or a string
    of one; never a bool, and never a float truncated into an int."""
    def shape(value: Any) -> bool:
        if type(value) not in (int, cast, str):
            return False
        try:
            value = cast(value)
        except (ValueError, OverflowError):
            return False
        return (cast is int or math.isfinite(value)) and (
            least < value if above else least <= value) and value <= most
    return shape


def _expected_arrivals_bounded(params: Mapping) -> bool:
    """At most :data:`MAX_EXPECTED_ARRIVALS` expected arrivals (read
    after the knob rows, so both values already have their shape)."""
    rate = float(params.get("rate_per_s", DEFAULT_RATE_PER_S))
    duration = float(params.get("duration_ms", DEFAULT_DURATION_MS))
    return rate * duration / 1000.0 <= MAX_EXPECTED_ARRIVALS


#: The six trace knobs of :func:`generate_trace`, each cast to its
#: default's type, and the arrivals they imply.  :func:`generate_trace`
#: checks every trace against it; a campaign spec's churn params are
#: checked against it too when the spec is read, before any cell runs.
TRACE_PARAMS = Schema("churn trace params", (
    Field("rate_per_s", _knob(float, 0, above=True), "a number > 0",
          DEFAULT_RATE_PER_S),
    Field("duration_ms", _knob(float, 0, above=True), "a number > 0",
          DEFAULT_DURATION_MS),
    Field("flows", _knob(int, 1, MAX_TRACE_FLOWS),
          f"an int in 1..{MAX_TRACE_FLOWS}", DEFAULT_FLOWS),
    Field("cancel_prob", _knob(float, 0, 1), "a number in 0..1",
          DEFAULT_CANCEL_PROB),
    Field("link_failures", _knob(int, 0), "an int >= 0", DEFAULT_LINK_FAILURES),
    Field("waypoint_prob", _knob(float, 0, 1), "a number in 0..1",
          DEFAULT_WAYPOINT_PROB),
    Field("expected_arrivals", _expected_arrivals_bounded,
          f"a trace of at most {MAX_EXPECTED_ARRIVALS} expected arrivals "
          "(rate_per_s * duration_ms / 1000)", key=WHOLE),
), ChurnError)


def trace_params(params: Mapping) -> dict:
    """Check trace knobs against :data:`TRACE_PARAMS` and cast the given
    ones to their defaults' types (what :func:`generate_trace` reads)."""
    values = TRACE_PARAMS.decode(params)
    return {row.name: type(row.default)(values[row.name])
            for row in TRACE_PARAMS if row.name in params}


#: The knob rows alone (the arrivals row reads the whole body): the
#: parameters of :func:`generate_trace` and the flags of ``repro churn run``.
TRACE_KNOBS = tuple(row for row in TRACE_PARAMS if row.wire != WHOLE)
