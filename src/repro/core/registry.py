"""Process-wide scheduler registry: one name→scheduler surface for all layers.

The paper contributes a *family* of transiently secure update schedulers
(WayUp, Peacock, greedy SLF, combined, strongest, exact minimum-round, the
one-shot / sequential / two-phase baselines).  Before this module each
outer layer -- CLI, REST, campaign engine, benchmarks -- kept its own
name→callable dict with its own spellings and its own idea of what a
scheduler promises.  The registry replaces all of them:

* a :class:`SchedulerDefinition` declares a scheduler once: canonical
  name, accepted aliases (``greedy-slf`` == ``greedy_slf``), the
  :class:`~repro.core.verify.Property` tuple it *guarantees*, whether it
  needs a waypoint, and which engine params it accepts;
* :meth:`SchedulerRegistry.resolve` turns a **spec string** into a bound
  :class:`Scheduler`.  The grammar is
  ``name[:<p1+p2+...>][?key=value&key=value]``:

  - ``wayup``, ``peacock``, ``two-phase`` -- plain names (any alias);
  - ``combined:wpe+rlf``, ``optimal:slf`` -- parameterized forms bound to
    a property set (their guarantee *is* that set);
  - ``optimal:slf?max_rounds=4&time_limit_s=2``, ``peacock?exact=false`` --
    engine options, validated against the definition's ``accepts`` set
    (values are coerced: ``true``/``false``, ints, floats, else strings).
    Among the built-ins only ``peacock`` (``exact``) and ``optimal`` (its
    search budgets) take any; the RLF search's state cap is the constant
    :data:`repro.core.verify.RLF_BUDGET`, not a knob;

* third-party schedulers plug in once via :func:`register_scheduler` (or
  the lower-level :meth:`SchedulerRegistry.register`) and are immediately
  visible to the CLI, the REST API, campaign specs, and benchmarks.

Schedulers are *run* through the request/result envelope of
:mod:`repro.core.api`, which adds verification, timing, timeouts, and
oracle provenance on top of :meth:`Scheduler.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import SchedulerSpecError
from repro.schema import Field, Schema, boolean, integer, number
from repro.core.combined import combined_greedy_schedule, strongest_feasible_schedule
from repro.core.greedy_slf import greedy_slf_schedule
from repro.core.oneshot import oneshot_schedule
from repro.core.optimal import minimal_round_schedule
from repro.core.peacock import peacock_schedule
from repro.core.problem import UpdateKind, UpdateProblem
from repro.core.schedule import sequential_schedule
from repro.core.twophase import two_phase_schedule
from repro.core.verify import Property
from repro.core.wayup import wayup_schedule

#: Short property names used in scheduler specs (``combined:wpe+rlf``).
PROPERTY_BY_NAME = {
    "wpe": Property.WPE,
    "slf": Property.SLF,
    "rlf": Property.RLF,
    "blackhole": Property.BLACKHOLE,
}

#: Inverse of :data:`PROPERTY_BY_NAME`.
PROPERTY_NAMES = {prop: name for name, prop in PROPERTY_BY_NAME.items()}


def parse_properties(text: str) -> tuple[Property, ...]:
    """Parse ``"wpe+rlf+blackhole"`` into a Property tuple."""
    names = [name for name in text.split("+") if name]
    if not names:
        raise SchedulerSpecError("empty property list")
    unknown = [name for name in names if name not in PROPERTY_BY_NAME]
    if unknown:
        raise SchedulerSpecError(
            f"unknown properties {unknown}; known: {sorted(PROPERTY_BY_NAME)}"
        )
    return tuple(PROPERTY_BY_NAME[name] for name in names)


def format_properties(properties) -> str:
    """Render a Property tuple back into spec syntax (``wpe+rlf``)."""
    return "+".join(PROPERTY_NAMES[prop] for prop in properties)


@dataclass(frozen=True)
class SchedulerRun:
    """What one scheduler invocation produced (pre-envelope).

    ``schedule`` is an :class:`~repro.core.schedule.UpdateSchedule` or a
    :class:`~repro.core.twophase.TwoPhaseSchedule` (both speak the common
    rounds/total_updates/to_dict surface); ``guarantee`` is the property
    tuple *realized* by this run -- usually the scheduler's declared
    guarantee, but e.g. ``strongest`` only knows its rung after running.
    """

    schedule: Any
    detail: str | None
    guarantee: tuple[Property, ...]


#: invoke(problem, include_cleanup, oracle, properties, params) -> SchedulerRun
InvokeFn = Callable[..., SchedulerRun]


@dataclass(frozen=True)
class SchedulerDefinition:
    """One registered scheduler family (a plain name or parameterized form)."""

    name: str
    invoke: InvokeFn
    aliases: tuple[str, ...] = ()
    guarantee: tuple[Property, ...] = ()
    parameterized: bool = False
    requires_waypoint: bool = False
    accepts: frozenset = frozenset()
    description: str = ""


@dataclass(frozen=True)
class Scheduler:
    """A fully resolved scheduler with declared capabilities.

    This is what every layer receives from :func:`resolve_scheduler`:
    the canonical ``name`` (aliases and property lists normalized), the
    ``guarantee`` it promises, whether it ``requires_waypoint``, and the
    engine params it ``accepts``.  Run it through
    :func:`repro.core.api.execute_request` (preferred -- adds the
    envelope) or directly via :meth:`run`.
    """

    name: str
    base: str
    guarantee: tuple[Property, ...]
    requires_waypoint: bool
    accepts: frozenset
    aliases: tuple[str, ...]
    description: str
    properties: tuple[Property, ...] | None
    params: Mapping[str, Any]
    invoke: InvokeFn = field(repr=False)

    def run(
        self,
        problem: UpdateProblem,
        include_cleanup: bool = True,
        oracle=None,
        params: Mapping[str, Any] | None = None,
    ) -> SchedulerRun:
        """Execute on ``problem``; extra ``params`` override bound ones."""
        merged = dict(self.params)
        if params:
            merged.update(params)
        _check_params(self.base, self.accepts, merged)
        return self.invoke(problem, include_cleanup, oracle, self.properties, merged)


#: The built-in schedulers' knobs (``time_limit_s=nan`` would never run out);
#: a third-party knob no row names passes as given.
PARAMS = Schema("scheduler params", (
    Field("time_limit_s", number(0, above=True), "a finite number > 0", None),
    Field("node_budget", integer(1), "an int >= 1", None),
    Field("max_nodes", integer(1), "an int >= 1", None),
    Field("max_rounds", integer(0), "an int >= 0", None),
    Field("nogood_limit", integer(0), "an int >= 0", None),
    Field("exact", boolean, "true or false", None),
), SchedulerSpecError, closed=False)


def _check_params(base: str, accepts, params: Mapping[str, Any]) -> None:
    """Refuse params ``base`` does not accept, then read the rest by
    :data:`PARAMS`."""
    unknown = set(params) - set(accepts)
    if unknown:
        raise SchedulerSpecError(
            f"scheduler {base!r} does not accept params {sorted(unknown)}; "
            f"accepted: {sorted(accepts)}"
        )
    if params:  # most runs pass none, and run() checks on every call
        PARAMS.decode(params)


def _coerce(value: str) -> Any:
    lowered = value.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def split_spec(spec: str) -> tuple[str, str | None, dict]:
    """Split ``name[:props][?k=v&k=v]`` into its three parts."""
    if not isinstance(spec, str) or not spec.strip():
        raise SchedulerSpecError(
            f"scheduler spec must be a non-empty string, got {spec!r}"
        )
    head, _, query = spec.strip().partition("?")
    name, colon, props = head.partition(":")
    params: dict[str, Any] = {}
    if query:
        for pair in query.split("&"):
            if not pair:
                continue
            key, eq, value = pair.partition("=")
            if not key or not eq:
                raise SchedulerSpecError(
                    f"bad param {pair!r} in {spec!r}; expected key=value"
                )
            params[key] = _coerce(value)
    return name, (props if colon else None), params


#: Resolution-cache bound: a long-running service resolving ever-new
#: parameterized specs (``optimal:slf?max_rounds=N``) must not leak.
_RESOLVE_CACHE_LIMIT = 256


class SchedulerRegistry:
    """Process-wide name→scheduler map with aliases and parameterized specs."""

    def __init__(self) -> None:
        self._definitions: dict[str, SchedulerDefinition] = {}
        self._aliases: dict[str, str] = {}
        self._cache: dict[str, Scheduler] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self, definition: SchedulerDefinition, replace: bool = False
    ) -> SchedulerDefinition:
        """Add a definition; canonical name and aliases must be free."""
        for name in (definition.name, *definition.aliases):
            owner = self._aliases.get(name)
            if owner is not None and owner != definition.name and not replace:
                raise SchedulerSpecError(
                    f"scheduler name {name!r} is already registered (by {owner!r})"
                )
        if definition.name in self._definitions and not replace:
            raise SchedulerSpecError(
                f"scheduler {definition.name!r} is already registered"
            )
        self._definitions[definition.name] = definition
        for name in (definition.name, *definition.aliases):
            self._aliases[name] = definition.name
        self._cache.clear()
        return definition

    def unregister(self, name: str) -> None:
        """Remove a definition and its aliases (tests / plugin teardown)."""
        definition = self._definitions.pop(self._aliases.get(name, name), None)
        if definition is None:
            raise SchedulerSpecError(f"unknown scheduler {name!r}")
        for alias in (definition.name, *definition.aliases):
            self._aliases.pop(alias, None)
        self._cache.clear()

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(self, spec: "str | Scheduler") -> Scheduler:
        """Resolve a spec string (or pass a resolved scheduler through)."""
        if isinstance(spec, Scheduler):
            return spec
        cached = self._cache.get(spec)
        if cached is not None:
            return cached
        name, props_text, params = split_spec(spec)
        base = self._aliases.get(name)
        if base is None:
            raise SchedulerSpecError(
                f"unknown scheduler {name!r}; known: {self.names()} "
                "(parameterized forms take ':<p1+p2+...>' property suffixes)"
            )
        definition = self._definitions[base]
        properties: tuple[Property, ...] | None = None
        if props_text is not None:
            if not definition.parameterized:
                raise SchedulerSpecError(
                    f"scheduler {base!r} takes no ':<properties>' suffix"
                )
            # normalize to one canonical spelling: dedup, then the
            # declaration order of PROPERTY_BY_NAME (wpe+slf+rlf+blackhole),
            # so 'combined:rlf+wpe' and 'combined:wpe+rlf' are one scheduler
            rank = {prop: i for i, prop in enumerate(PROPERTY_BY_NAME.values())}
            properties = tuple(sorted(
                dict.fromkeys(parse_properties(props_text)),
                key=rank.__getitem__,
            ))
        elif definition.parameterized:
            raise SchedulerSpecError(
                f"scheduler {base!r} needs a property list, "
                f"e.g. '{base}:slf+blackhole'"
            )
        _check_params(base, definition.accepts, params)
        canonical = definition.name
        if properties is not None:
            canonical += ":" + format_properties(properties)
        if params:
            canonical += "?" + "&".join(
                f"{key}={_render(params[key])}" for key in sorted(params)
            )
        cached = self._cache.get(canonical)
        if cached is not None:
            self._cache[spec] = cached
            return cached
        scheduler = Scheduler(
            name=canonical,
            base=definition.name,
            guarantee=properties if properties is not None else definition.guarantee,
            requires_waypoint=definition.requires_waypoint
            or (properties is not None and Property.WPE in properties),
            accepts=definition.accepts,
            aliases=definition.aliases,
            description=definition.description,
            properties=properties,
            params=params,
            invoke=definition.invoke,
        )
        while len(self._cache) >= _RESOLVE_CACHE_LIMIT:
            self._cache.pop(next(iter(self._cache)))
        self._cache[spec] = self._cache[canonical] = scheduler
        return scheduler

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Canonical definition names, sorted."""
        return sorted(self._definitions)

    def plain_names(self) -> list[str]:
        """Names resolvable without a property suffix, sorted."""
        return sorted(
            name
            for name, definition in self._definitions.items()
            if not definition.parameterized
        )

    def aliases(self) -> dict[str, str]:
        """Every accepted spelling → canonical name."""
        return dict(self._aliases)

    def definitions(self) -> list[SchedulerDefinition]:
        return [self._definitions[name] for name in self.names()]

    def describe(self) -> list[dict]:
        """Capability records for docs / REST, one per definition."""
        records = []
        for definition in self.definitions():
            records.append({
                "name": definition.name,
                "aliases": list(definition.aliases),
                "parameterized": definition.parameterized,
                "guarantee": [PROPERTY_NAMES[p] for p in definition.guarantee],
                "requires_waypoint": definition.requires_waypoint,
                "accepts": sorted(definition.accepts),
                "description": definition.description,
            })
        return records

    def __contains__(self, name: object) -> bool:
        return name in self._aliases

    def __iter__(self):
        return iter(self.definitions())


def _render(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# built-in schedulers
# ---------------------------------------------------------------------------

def _run_wayup(problem, cleanup, oracle, properties, params):
    schedule = wayup_schedule(problem, include_cleanup=cleanup)
    return SchedulerRun(schedule, None, (Property.WPE, Property.BLACKHOLE))


def _run_peacock(problem, cleanup, oracle, properties, params):
    schedule = peacock_schedule(
        problem, include_cleanup=cleanup, oracle=oracle, **params
    )
    return SchedulerRun(schedule, None, (Property.RLF, Property.BLACKHOLE))


def _run_greedy_slf(problem, cleanup, oracle, properties, params):
    schedule = greedy_slf_schedule(problem, include_cleanup=cleanup, oracle=oracle)
    return SchedulerRun(schedule, None, (Property.SLF, Property.BLACKHOLE))


def _run_oneshot(problem, cleanup, oracle, properties, params):
    return SchedulerRun(oneshot_schedule(problem, include_cleanup=cleanup), None, ())


def _run_sequential(problem, cleanup, oracle, properties, params):
    by_kind = {UpdateKind.INSTALL: 0, UpdateKind.SWITCH: 1, UpdateKind.DELETE: 2}
    order = sorted(
        problem.all_updates if cleanup else problem.required_updates,
        key=lambda node: (by_kind[problem.kind(node)], repr(node)),
    )
    return SchedulerRun(sequential_schedule(problem, order=order), None, ())


def _run_two_phase(problem, cleanup, oracle, properties, params):
    plan = two_phase_schedule(problem)
    if not cleanup:
        plan = plan.without_cleanup()
    return SchedulerRun(plan, None, plan.verification_report().properties)


def _run_strongest(problem, cleanup, oracle, properties, params):
    schedule, realized = strongest_feasible_schedule(
        problem, include_cleanup=cleanup
    )
    return SchedulerRun(schedule, f"kept={format_properties(realized)}", tuple(realized))


def _run_combined(problem, cleanup, oracle, properties, params):
    schedule = combined_greedy_schedule(
        problem, properties, include_cleanup=cleanup, oracle=oracle
    )
    return SchedulerRun(schedule, None, tuple(properties))


def _run_optimal(problem, cleanup, oracle, properties, params):
    schedule = minimal_round_schedule(problem, properties, **params)
    if cleanup:
        schedule = schedule.with_cleanup()
    return SchedulerRun(schedule, None, tuple(properties))


#: The process-wide registry every layer resolves schedulers through.
REGISTRY = SchedulerRegistry()

for _definition in (
    SchedulerDefinition(
        "wayup",
        _run_wayup,
        aliases=("way-up",),
        guarantee=(Property.WPE, Property.BLACKHOLE),
        requires_waypoint=True,
        description="HotNets'14 waypoint-enforcing rounds (<= 6 rounds)",
    ),
    SchedulerDefinition(
        "peacock",
        _run_peacock,
        guarantee=(Property.RLF, Property.BLACKHOLE),
        accepts=frozenset({"exact"}),
        description="PODC'15 relaxed-loop-free rounds (O(log n) on reversals)",
    ),
    SchedulerDefinition(
        "greedy-slf",
        _run_greedy_slf,
        aliases=("greedy_slf", "greedy"),
        guarantee=(Property.SLF, Property.BLACKHOLE),
        description="greedy maximal strong-loop-free rounds (Omega(n) worst case)",
    ),
    SchedulerDefinition(
        "oneshot",
        _run_oneshot,
        aliases=("one-shot",),
        description="everything in one asynchronous round (no guarantee)",
    ),
    SchedulerDefinition(
        "sequential",
        _run_sequential,
        description="one node per round (maximally conservative baseline)",
    ),
    SchedulerDefinition(
        "two-phase",
        _run_two_phase,
        aliases=("two_phase", "twophase"),
        guarantee=(Property.SLF, Property.RLF, Property.BLACKHOLE),
        description="Reitblatt version-tagged prepare/flip/collect baseline",
    ),
    SchedulerDefinition(
        "strongest",
        _run_strongest,
        description="strongest feasible property ladder rung (detail: kept=...)",
    ),
    SchedulerDefinition(
        "combined",
        _run_combined,
        parameterized=True,
        description="greedy rounds safe for every listed property at once",
    ),
    SchedulerDefinition(
        "optimal",
        _run_optimal,
        aliases=("minimal",),
        parameterized=True,
        accepts=frozenset(
            {"max_rounds", "max_nodes",
             "node_budget", "time_limit_s", "nogood_limit"}
        ),
        description=(
            "exact minimum-round search (deepening from the forced-chain "
            "bound, nogoods learned; incumbent short-cut above n=18 or "
            "under a budget)"
        ),
    ),
):
    REGISTRY.register(_definition)
del _definition


def register_scheduler(
    name: str,
    factory: Callable[..., Any] | None = None,
    *,
    invoke: InvokeFn | None = None,
    aliases: tuple[str, ...] = (),
    guarantee: tuple[Property, ...] = (),
    parameterized: bool = False,
    requires_waypoint: bool = False,
    accepts: frozenset = frozenset(),
    description: str = "",
    replace: bool = False,
) -> SchedulerDefinition:
    """Register a third-party scheduler with the process-wide registry.

    The easy path: pass a ``factory(problem, include_cleanup=...) ->
    UpdateSchedule`` and the declared ``guarantee``; it becomes resolvable
    by every layer (CLI ``--algorithm``, REST, campaign specs).  Power
    users pass ``invoke`` directly to receive oracle handles, the bound
    property tuple, and engine params (see :data:`InvokeFn`).
    """
    if (factory is None) == (invoke is None):
        raise SchedulerSpecError("pass exactly one of factory= or invoke=")
    if invoke is None:
        def invoke(problem, cleanup, oracle, properties, params,
                   _factory=factory, _guarantee=tuple(guarantee)):
            return SchedulerRun(
                _factory(problem, include_cleanup=cleanup), None, _guarantee
            )
    return REGISTRY.register(
        SchedulerDefinition(
            name=name,
            invoke=invoke,
            aliases=tuple(aliases),
            guarantee=tuple(guarantee),
            parameterized=parameterized,
            requires_waypoint=requires_waypoint,
            accepts=frozenset(accepts),
            description=description,
        ),
        replace=replace,
    )


def resolve_scheduler(spec: "str | Scheduler") -> Scheduler:
    """Resolve a spec string against the process-wide registry."""
    return REGISTRY.resolve(spec)


def scheduler_names() -> list[str]:
    """Canonical names in the process-wide registry, sorted."""
    return REGISTRY.names()
