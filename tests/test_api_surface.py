"""Public-API snapshot: the exported surface is pinned, not accidental.

Any change to ``repro.__all__`` or ``repro.core.__all__`` must be made
*here too*, on purpose -- CI runs this module as a dedicated step
(``make api-surface``), so a refactor cannot silently drop or rename
public names the way the pre-registry scheduler maps could.
"""

import repro
import repro.core

#: The top-level ``repro`` surface.  Update deliberately.
REPRO_ALL = [
    "CostModel",
    "JointUpdateProblem",
    "Path",
    "Property",
    "ReproError",
    "RuleState",
    "ScheduleRequest",
    "ScheduleResult",
    "Scheduler",
    "Topology",
    "TwoPhaseSchedule",
    "UpdateKind",
    "UpdateProblem",
    "UpdateSchedule",
    "VerificationReport",
    "Violation",
    "__version__",
    "execute_request",
    "figure1",
    "figure1_paths",
    "greedy_joint_schedule",
    "greedy_slf_schedule",
    "merge_isolated_schedules",
    "minimal_round_schedule",
    "oneshot_schedule",
    "peacock_schedule",
    "register_scheduler",
    "resolve_scheduler",
    "schedule_update",
    "schedule_update_time",
    "scheduler_names",
    "sequential_schedule",
    "trace_walk",
    "two_phase_schedule",
    "verify_exhaustive",
    "verify_schedule",
    "wayup_schedule",
]

#: The ``repro.core`` surface.  Update deliberately.
CORE_ALL = [
    "Configuration",
    "CostModel",
    "DEFAULT_MAX_NODES",
    "EdgeChoice",
    "HARDWARE_TCAM",
    "JointUpdateProblem",
    "MergedPlan",
    "NEW_VERSION_TAG",
    "NodePhase",
    "OLD_VERSION_TAG",
    "OVS_FAST",
    "OracleStats",
    "PolicyView",
    "Property",
    "RuleState",
    "SCHEDULER_REGISTRY",
    "SafetyOracle",
    "ScheduleRequest",
    "ScheduleResult",
    "Scheduler",
    "SchedulerDefinition",
    "SchedulerRun",
    "TwoPhaseSchedule",
    "UnionGraph",
    "UpdateKind",
    "UpdateProblem",
    "UpdateSchedule",
    "VerificationReport",
    "Violation",
    "WAYUP_ROUND_NAMES",
    "WalkResult",
    "WaypointClasses",
    "aggregate_stats",
    "check_blackhole",
    "check_rlf",
    "check_slf",
    "check_wpe",
    "classify_forward_backward",
    "combined_greedy_schedule",
    "crossing_clash_instance",
    "crossing_instance",
    "default_properties",
    "dependency_graph",
    "double_diamond_instance",
    "enumerate_round_configurations",
    "execute_request",
    "explain_schedule",
    "functional_cycle",
    "functional_graph",
    "greedy_deadlock_certificate",
    "greedy_joint_schedule",
    "greedy_slf_schedule",
    "infeasibility_certificate",
    "is_feasible",
    "is_order_forced",
    "merge_isolated_schedules",
    "minimal_round_count",
    "minimal_round_schedule",
    "oneshot_schedule",
    "oracle_for",
    "peacock_schedule",
    "phases_for_round",
    "register_scheduler",
    "resolve_scheduler",
    "reversal_instance",
    "round_is_safe",
    "round_is_safe_reference",
    "round_time_breakdown",
    "rounds_lower_bound",
    "sawtooth_instance",
    "schedule_update",
    "schedule_update_time",
    "scheduler_names",
    "sequential_schedule",
    "strongest_feasible_schedule",
    "time_limit",
    "trace_walk",
    "two_phase_schedule",
    "unsafe_alone",
    "verify_exhaustive",
    "verify_joint_round",
    "verify_joint_schedule",
    "verify_round",
    "verify_schedule",
    "waypoint_slalom_instance",
    "wayup_schedule",
]

#: The built-in scheduler registry contents (canonical names).
REGISTRY_NAMES = [
    "combined",
    "greedy-slf",
    "oneshot",
    "optimal",
    "peacock",
    "sequential",
    "strongest",
    "two-phase",
    "wayup",
]

#: Alias spellings that must keep resolving (one spelling everywhere,
#: but old spellings never break).
REGISTRY_ALIASES = {
    "greedy_slf": "greedy-slf",
    "greedy": "greedy-slf",
    "minimal": "optimal",
    "one-shot": "oneshot",
    "two_phase": "two-phase",
    "twophase": "two-phase",
    "way-up": "wayup",
}


class TestSurfaceSnapshot:
    def test_repro_all_is_pinned(self):
        assert sorted(repro.__all__) == REPRO_ALL

    def test_core_all_is_pinned(self):
        assert sorted(repro.core.__all__) == CORE_ALL

    def test_every_pinned_name_resolves(self):
        for name in REPRO_ALL:
            assert hasattr(repro, name), f"repro.{name} missing"
        for name in CORE_ALL:
            assert hasattr(repro.core, name), f"repro.core.{name} missing"

    def test_registry_names_are_pinned(self):
        assert repro.scheduler_names() == REGISTRY_NAMES

    def test_registry_aliases_are_pinned(self):
        aliases = repro.core.SCHEDULER_REGISTRY.aliases()
        for alias, canonical in REGISTRY_ALIASES.items():
            assert aliases.get(alias) == canonical, alias
