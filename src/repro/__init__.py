"""repro: transiently secure updates in asynchronous SDNs.

A from-scratch reproduction of Shukla et al., *Towards Transiently Secure
Updates in Asynchronous SDNs* (SIGCOMM'16 demo): round-based network update
scheduling (WayUp, Peacock and friends) with transient-consistency
verification, executed over a simulated OpenFlow control plane (switches,
asynchronous channels, a Ryu-like controller and a Mininet-like network
lab).

Quick taste::

    from repro import UpdateProblem, schedule_update

    problem = UpdateProblem([1, 2, 3, 4, 5], [1, 6, 3, 7, 5], waypoint=3)
    result = schedule_update(problem, "wayup", verify=True)
    assert result.verified

Every scheduler resolves through one registry (``scheduler_names()``
lists them; specs like ``"combined:wpe+rlf"`` or
``"optimal:slf?max_rounds=4"`` parameterize them) and returns the same
``ScheduleResult`` envelope across the CLI, REST, and campaign layers.
See ``examples/quickstart.py`` for the end-to-end network-lab version.
"""

from repro.core import (
    CostModel,
    JointUpdateProblem,
    Property,
    RuleState,
    ScheduleRequest,
    ScheduleResult,
    Scheduler,
    TwoPhaseSchedule,
    UpdateKind,
    UpdateProblem,
    UpdateSchedule,
    VerificationReport,
    Violation,
    execute_request,
    greedy_joint_schedule,
    greedy_slf_schedule,
    merge_isolated_schedules,
    minimal_round_schedule,
    oneshot_schedule,
    peacock_schedule,
    register_scheduler,
    resolve_scheduler,
    schedule_update,
    schedule_update_time,
    scheduler_names,
    sequential_schedule,
    trace_walk,
    two_phase_schedule,
    verify_exhaustive,
    verify_schedule,
    wayup_schedule,
)
from repro.errors import ReproError
from repro.topology import Path, Topology, figure1, figure1_paths

__version__ = "1.0.0"

__all__ = [
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
