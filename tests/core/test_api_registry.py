"""Registry + envelope parity: every scheduler, every layer, one surface.

The contract pinned here:

* every registered scheduler runs on a reference instance set through the
  ``ScheduleRequest`` → ``ScheduleResult`` envelope;
* ``include_cleanup`` is honored by every scheduler;
* the guarantee a scheduler declares (or realizes) actually holds --
  ``verify_schedule`` passes on the produced schedule;
* CLI, REST, and campaign all resolve the *identical* scheduler list
  (the old per-layer name→callable dicts are gone);
* aliases and parameterized specs normalize to canonical names.
"""

import pytest

from repro.core import (
    Property,
    ScheduleRequest,
    SCHEDULER_REGISTRY,
    TwoPhaseSchedule,
    UpdateProblem,
    execute_request,
    schedule_update,
    scheduler_names,
    verify_schedule,
)
from repro.core.hardness import reversal_instance, waypoint_slalom_instance
from repro.core.registry import (
    SchedulerDefinition,
    SchedulerRun,
    register_scheduler,
    resolve_scheduler,
    split_spec,
)
from repro.errors import (
    InfeasibleUpdateError,
    SchedulerSpecError,
    UpdateModelError,
)
from tests.core.test_deadline_safe_points import _PollClock


def reference_problems():
    """Small instances covering waypointed / plain / cleanup-heavy shapes."""
    return [
        reversal_instance(6),
        waypoint_slalom_instance(2),
        UpdateProblem([1, 2, 3, 4, 5], [1, 6, 3, 7, 5], waypoint=3),
        UpdateProblem([1, 2, 3, 4], [1, 5, 6, 4]),
    ]


def sweepable_specs():
    """Every plain registry name plus parameterized samples."""
    return SCHEDULER_REGISTRY.plain_names() + [
        "combined:rlf+blackhole",
        "combined:slf+blackhole",
        "optimal:slf",
        "optimal:rlf?node_budget=10000",
    ]


class TestRegistryParity:
    @pytest.mark.parametrize("spec", sweepable_specs())
    def test_every_scheduler_runs_and_keeps_its_guarantee(self, spec):
        scheduler = resolve_scheduler(spec)
        ran = 0
        for problem in reference_problems():
            if scheduler.requires_waypoint and problem.waypoint is None:
                with pytest.raises(UpdateModelError):
                    schedule_update(problem, spec)
                continue
            try:
                result = execute_request(
                    ScheduleRequest(problem=problem, scheduler=spec, verify=True)
                )
            except InfeasibleUpdateError:
                continue  # a legitimate outcome for combined property sets
            ran += 1
            assert result.scheduler == scheduler.name
            assert result.schedule.n_rounds >= 1
            assert result.schedule.total_updates() >= 1
            # the realized guarantee must actually hold
            if result.guarantee and not isinstance(
                result.schedule, TwoPhaseSchedule
            ):
                assert verify_schedule(
                    result.schedule, properties=result.guarantee
                ).ok, spec
            if result.guarantee:
                assert result.verified is True, spec
        assert ran > 0, f"{spec} never ran on the reference set"

    @pytest.mark.parametrize("spec", sweepable_specs())
    def test_include_cleanup_is_honored(self, spec):
        problem = UpdateProblem([1, 2, 3, 4, 5], [1, 6, 3, 7, 5], waypoint=3)
        assert problem.cleanup_updates, "reference problem must need cleanup"
        scheduler = resolve_scheduler(spec)
        if scheduler.requires_waypoint and problem.waypoint is None:
            pytest.skip("needs waypoint")
        try:
            kept = schedule_update(problem, spec, include_cleanup=True)
            dropped = schedule_update(problem, spec, include_cleanup=False)
        except InfeasibleUpdateError:
            pytest.skip("infeasible on the cleanup reference instance")
        assert kept.schedule.includes_cleanup()
        assert not dropped.schedule.includes_cleanup()

    def test_layers_resolve_identical_scheduler_lists(self, monkeypatch, capsys):
        from repro.campaign import CampaignSpec
        from repro.cli.main import main
        from repro.core.registry import REGISTRY

        names = scheduler_names()
        # CLI: `schedule --help` lists exactly the registry (unwrapped)
        monkeypatch.setenv("COLUMNS", "10000")
        with pytest.raises(SystemExit):
            main(["schedule", "--help"])
        assert f"registry scheduler spec: {', '.join(names)};" in capsys.readouterr().out
        # campaign: a spec keeps every registry spec string as given
        spec = CampaignSpec.from_dict({
            "name": "layers",
            "families": [{"family": "reversal", "sizes": [6]}],
            "schedulers": sweepable_specs(),
        })
        assert list(spec.schedulers) == sweepable_specs()
        # REST: capability listing covers exactly the registry
        assert [row["name"] for row in REGISTRY.describe()] == names

    def test_aliases_resolve_to_one_canonical_spelling(self):
        assert resolve_scheduler("greedy_slf") is resolve_scheduler("greedy-slf")
        assert resolve_scheduler("two_phase") is resolve_scheduler("two-phase")
        assert resolve_scheduler("twophase").name == "two-phase"
        assert resolve_scheduler("minimal:slf").name == "optimal:slf"

    @pytest.mark.parametrize(
        "query",
        ["engine=sets", "use_oracle=false", "search=bfs", "search=bnb",
         "monotone_prune=false"],
    )
    def test_removed_engine_params_are_refused_by_name(self, query):
        # the exact search picks its own mode; the spec grammar has no
        # say in it any more, and says what it does accept
        with pytest.raises(SchedulerSpecError) as excinfo:
            resolve_scheduler(f"optimal:rlf?{query}")
        message = str(excinfo.value)
        assert query.split("=")[0] in message
        for accepted in resolve_scheduler("optimal:rlf").accepts:
            assert accepted in message
        assert sorted(resolve_scheduler("optimal:rlf").accepts) == [
            "max_nodes", "max_rounds", "node_budget", "nogood_limit",
            "time_limit_s",
        ]

    def test_property_lists_normalize_to_one_spelling(self):
        a = resolve_scheduler("combined:rlf+wpe")
        b = resolve_scheduler("combined:wpe+rlf")
        c = resolve_scheduler("combined:wpe+wpe+rlf")
        assert a is b is c
        assert a.name == "combined:wpe+rlf"
        assert a.guarantee == (Property.WPE, Property.RLF)

    def test_canonical_name_normalizes_params(self):
        scheduler = resolve_scheduler("optimal:slf?node_budget=50&max_rounds=4")
        assert scheduler.name == "optimal:slf?max_rounds=4&node_budget=50"
        assert scheduler.params == {"max_rounds": 4, "node_budget": 50}

    def test_spec_grammar_errors(self):
        with pytest.raises(SchedulerSpecError):
            resolve_scheduler("no-such-scheduler")
        with pytest.raises(SchedulerSpecError):
            resolve_scheduler("optimal:")  # empty property list
        with pytest.raises(SchedulerSpecError):
            resolve_scheduler("optimal:bogus")
        with pytest.raises(SchedulerSpecError):
            resolve_scheduler("peacock:slf")  # not parameterized
        with pytest.raises(SchedulerSpecError):
            resolve_scheduler("optimal:slf?nonsense=1")  # unknown param
        with pytest.raises(SchedulerSpecError):
            resolve_scheduler("optimal:slf?search")  # not key=value

    @pytest.mark.parametrize("params", [
        {"time_limit_s": float("nan")}, {"time_limit_s": float("inf")},
        {"time_limit_s": 0}, {"time_limit_s": -1.0}, {"time_limit_s": True},
        {"time_limit_s": "2"}, {"node_budget": 0}, {"node_budget": -1},
        {"node_budget": 1.5}, {"node_budget": True},
    ])
    def test_search_budgets_must_bound_the_search(self, params):
        (key, value), = params.items()
        problem = UpdateProblem([1, 2, 3], [1, 4, 3])
        with pytest.raises(SchedulerSpecError, match=key):
            schedule_update(problem, "optimal:rlf", params=params)
        if not isinstance(value, str):
            text = str(value).lower()
            with pytest.raises(SchedulerSpecError, match=key):
                resolve_scheduler(f"optimal:rlf?{key}={text}")
        assert schedule_update(
            problem, "optimal:rlf?time_limit_s=5&node_budget=1000", verify=True
        ).verified

    def test_split_spec_coercion(self):
        name, props, params = split_spec("optimal:slf+rlf?a=true&b=3&c=x")
        assert name == "optimal" and props == "slf+rlf"
        assert params == {"a": True, "b": 3, "c": "x"}


class TestEnvelope:
    def test_result_carries_wall_time_and_oracle_counters(self):
        result = schedule_update(reversal_instance(8), "greedy-slf")
        assert result.wall_ms >= 0.0
        assert result.oracle_stats.get("applies", 0) > 0

    def test_explicit_properties_override_guarantee(self):
        problem = reversal_instance(6)
        result = schedule_update(
            problem, "oneshot", verify=True,
            properties=(Property.RLF, Property.BLACKHOLE),
        )
        assert result.verified is False
        assert result.report.violations

    def test_guarantee_free_scheduler_verifies_nothing(self):
        result = schedule_update(reversal_instance(6), "oneshot", verify=True)
        assert result.report is None and result.verified is None

    def test_timeout_surfaces_as_schedule_timeout(self, monkeypatch):
        from repro.core import deadline
        from repro.errors import ScheduleTimeoutError

        # the solve polls 11 times; the 5th reads a clock past any limit,
        # so it times out however fast the host finishes it
        monkeypatch.setattr(deadline, "time", _PollClock(fire_at=5))
        with pytest.raises(ScheduleTimeoutError):
            schedule_update(
                reversal_instance(16), "optimal:rlf", timeout_s=0.001,
            )

    def test_two_phase_rides_the_envelope(self):
        problem = UpdateProblem([1, 2, 3, 4, 5], [1, 6, 3, 7, 5], waypoint=3)
        result = schedule_update(problem, "two-phase", verify=True)
        assert isinstance(result.schedule, TwoPhaseSchedule)
        assert result.verified is True
        assert Property.WPE in result.guarantee
        data = result.to_dict()
        assert data["schedule"]["algorithm"] == "two-phase"
        assert data["rounds"] == result.schedule.n_rounds
        # and campaigns can sweep it: the batch merge surface is there
        assert result.schedule.total_updates() == sum(
            len(phase) for phase in result.schedule.rounds
        )


class TestThirdPartyRegistration:
    def test_register_function_and_teardown(self):
        from repro.core.schedule import sequential_schedule

        def reverse_sequential(problem, include_cleanup=True):
            order = [
                node
                for node in sorted(problem.all_updates, key=repr, reverse=True)
                if include_cleanup or node in problem.required_updates
            ]
            return sequential_schedule(problem, order=order)

        register_scheduler(
            "reverse-sequential",
            reverse_sequential,
            aliases=("rseq",),
            description="docs example",
        )
        try:
            assert "reverse-sequential" in scheduler_names()
            result = schedule_update(reversal_instance(6), "rseq")
            assert result.scheduler == "reverse-sequential"
            # duplicate registration is refused
            with pytest.raises(SchedulerSpecError):
                register_scheduler("reverse-sequential", reverse_sequential)
        finally:
            SCHEDULER_REGISTRY.unregister("reverse-sequential")
        assert "reverse-sequential" not in scheduler_names()

    def test_register_invoke_form(self):
        from repro.core.oneshot import oneshot_schedule

        def invoke(problem, cleanup, oracle, properties, params):
            return SchedulerRun(
                oneshot_schedule(problem, include_cleanup=cleanup), "inv", ()
            )

        definition = SchedulerDefinition("inv-oneshot", invoke)
        SCHEDULER_REGISTRY.register(definition)
        try:
            result = schedule_update(reversal_instance(6), "inv-oneshot")
            assert result.detail == "inv"
        finally:
            SCHEDULER_REGISTRY.unregister("inv-oneshot")
