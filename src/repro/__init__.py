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

import importlib

__version__ = "1.0.0"


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's exports.

    ``table`` maps each submodule to the names the package exports from
    it (``"name as alias"`` exports ``name`` under ``alias``).  A process
    imports a submodule only when it first reads one of its names; the
    value is then stored in ``namespace``, so later reads are plain
    global lookups.  An unknown name raises ``AttributeError``, which is
    what lets ``from package import submodule`` import the submodule.
    """
    package = namespace["__name__"]
    owners = {}
    for module, names in table.items():
        for entry in names:
            name, _, alias = entry.partition(" as ")
            owners[alias or name] = (module, name)

    def __getattr__(name):
        if name not in owners:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module, attribute = owners[name]
        value = namespace[name] = getattr(importlib.import_module(module), attribute)
        return value

    def __dir__():
        return sorted({*namespace, *owners})

    return __getattr__, __dir__


_EXPORTS = {
    "repro.core.api": (
        "ScheduleRequest", "ScheduleResult", "execute_request", "schedule_update",
    ),
    "repro.core.cost": ("CostModel", "schedule_update_time"),
    "repro.core.greedy_slf": ("greedy_slf_schedule",),
    "repro.core.multipolicy": (
        "JointUpdateProblem", "greedy_joint_schedule", "merge_isolated_schedules",
    ),
    "repro.core.oneshot": ("oneshot_schedule",),
    "repro.core.optimal": ("minimal_round_schedule",),
    "repro.core.peacock": ("peacock_schedule",),
    "repro.core.problem": ("RuleState", "UpdateKind", "UpdateProblem", "trace_walk"),
    "repro.core.registry": (
        "Scheduler", "register_scheduler", "resolve_scheduler", "scheduler_names",
    ),
    "repro.core.schedule": ("UpdateSchedule", "sequential_schedule"),
    "repro.core.twophase": ("TwoPhaseSchedule", "two_phase_schedule"),
    "repro.core.verify": (
        "Property", "VerificationReport", "Violation", "verify_exhaustive",
        "verify_schedule",
    ),
    "repro.core.wayup": ("wayup_schedule",),
    "repro.errors": ("ReproError",),
    "repro.topology.builders": ("figure1", "figure1_paths"),
    "repro.topology.graph": ("Topology",),
    "repro.topology.paths": ("Path",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

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
