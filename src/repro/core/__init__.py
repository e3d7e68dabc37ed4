"""The paper's contribution: transiently secure update scheduling.

The **scheduler-service API** is the intended entry point: every
scheduler in the family -- WayUp, Peacock, greedy SLF, combined,
strongest, the exact minimum-round search, and the one-shot / sequential
/ two-phase baselines -- lives behind one process-wide registry and one
request/result envelope, shared by the CLI, REST, campaign, and
benchmark layers::

    from repro import schedule_update, scheduler_names

    result = schedule_update(problem, "peacock", verify=True)
    result.schedule      # the UpdateSchedule (TwoPhaseSchedule for "two-phase")
    result.guarantee     # realized Property tuple
    result.report        # VerificationReport or None
    result.oracle_stats  # SafetyOracle counter deltas of this request

Public surface:

* scheduler service -- :func:`schedule_update`, :func:`execute_request`,
  :class:`ScheduleRequest`, :class:`ScheduleResult`;
  :func:`resolve_scheduler`, :func:`register_scheduler`,
  :func:`scheduler_names`, :class:`Scheduler`, :data:`SCHEDULER_REGISTRY`
  (spec grammar ``name[:<p1+p2>][?key=value]`` -- e.g. ``combined:wpe+rlf``,
  ``optimal:slf?max_rounds=4``; aliases like ``greedy_slf`` resolve too)
* model -- :class:`UpdateProblem`, :class:`UpdateSchedule`, :class:`RuleState`,
  :class:`UpdateKind`, :class:`Configuration`
* verification -- :func:`verify_schedule`, :func:`verify_exhaustive`,
  :class:`Property`, :class:`VerificationReport`
* scheduler functions (the registry's building blocks, still callable
  directly) -- :func:`wayup_schedule`, :func:`peacock_schedule`,
  :func:`greedy_slf_schedule`, :func:`oneshot_schedule`,
  :func:`two_phase_schedule`, :func:`minimal_round_schedule`,
  :func:`sequential_schedule`
* multi-policy -- :class:`JointUpdateProblem`, :func:`greedy_joint_schedule`,
  :func:`merge_isolated_schedules`
* adversarial instances -- :mod:`repro.core.hardness`
* analytic cost -- :class:`CostModel`, :func:`schedule_update_time`
"""

import repro

_EXPORTS = {
    "repro.core.analysis": (
        "dependency_graph", "explain_schedule", "greedy_deadlock_certificate",
        "is_order_forced", "unsafe_alone",
    ),
    "repro.core.api": (
        "ScheduleRequest", "ScheduleResult", "execute_request", "schedule_update",
    ),
    "repro.core.bnb": ("infeasibility_certificate", "rounds_lower_bound"),
    "repro.core.combined": ("combined_greedy_schedule", "strongest_feasible_schedule"),
    "repro.core.cost": (
        "HARDWARE_TCAM", "OVS_FAST", "CostModel", "round_time_breakdown",
        "schedule_update_time",
    ),
    "repro.core.deadline": ("time_limit",),
    "repro.core.greedy_slf": ("greedy_slf_schedule",),
    "repro.core.hardness": (
        "crossing_clash_instance", "crossing_instance", "double_diamond_instance",
        "reversal_instance", "sawtooth_instance", "waypoint_slalom_instance",
    ),
    "repro.core.multipolicy": (
        "JointUpdateProblem", "MergedPlan", "PolicyView", "greedy_joint_schedule",
        "merge_isolated_schedules", "verify_joint_round", "verify_joint_schedule",
    ),
    "repro.core.oneshot": ("oneshot_schedule",),
    "repro.core.optimal": (
        "DEFAULT_MAX_NODES", "is_feasible", "minimal_round_count",
        "minimal_round_schedule", "round_is_safe", "round_is_safe_reference",
    ),
    "repro.core.oracle": ("OracleStats", "SafetyOracle", "aggregate_stats", "oracle_for"),
    "repro.core.peacock": ("classify_forward_backward", "peacock_schedule"),
    "repro.core.problem": (
        "Configuration", "RuleState", "UpdateKind", "UpdateProblem", "WalkResult",
        "WaypointClasses", "trace_walk",
    ),
    "repro.core.registry": (
        "REGISTRY as SCHEDULER_REGISTRY", "Scheduler", "SchedulerDefinition",
        "SchedulerRun", "register_scheduler", "resolve_scheduler", "scheduler_names",
    ),
    "repro.core.schedule": ("UpdateSchedule", "sequential_schedule"),
    "repro.core.transient": (
        "EdgeChoice", "NodePhase", "UnionGraph", "enumerate_round_configurations",
        "functional_cycle", "functional_graph", "phases_for_round",
    ),
    "repro.core.twophase": (
        "NEW_VERSION_TAG", "OLD_VERSION_TAG", "TwoPhaseSchedule", "two_phase_schedule",
    ),
    "repro.core.verify": (
        "Property", "VerificationReport", "Violation", "check_blackhole", "check_rlf",
        "check_slf", "check_wpe", "default_properties", "verify_exhaustive",
        "verify_round", "verify_schedule",
    ),
    "repro.core.wayup": ("ROUND_NAMES as WAYUP_ROUND_NAMES", "wayup_schedule"),
}
__getattr__, __dir__ = repro.lazy_exports(globals(), _EXPORTS)

__all__ = [
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
    "OracleStats",
    "SafetyOracle",
    "OVS_FAST",
    "PolicyView",
    "Property",
    "RuleState",
    "SCHEDULER_REGISTRY",
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
    "wayup_schedule",
    "waypoint_slalom_instance",
]
