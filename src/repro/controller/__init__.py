"""Controller substrate: Ryu-like runtime, round FSM and REST apps."""

from repro.controller.app import RyuLikeApp
from repro.controller.core import Controller
from repro.controller.datapath_handle import Datapath
from repro.controller.events import (
    ControllerEvent,
    UpdateCompleted,
    UpdateRoundCompleted,
)
from repro.controller.ofctl_rest import OfctlRestApp, StatsFuture
from repro.controller.ofctl_rest_own import TransientUpdateApp
from repro.controller.rules import (
    POLICY_PRIORITY,
    TAGGED_PRIORITY,
    CompiledRound,
    CompiledUpdate,
    compile_initial_rules,
    compile_schedule,
    compile_two_phase,
)
from repro.controller.trace import ControlPlaneTrace, TraceEntry
from repro.controller.update_queue import (
    RoundTiming,
    UpdateExecution,
    UpdateQueueApp,
)

__all__ = [
    "CompiledRound",
    "ControlPlaneTrace",
    "CompiledUpdate",
    "Controller",
    "ControllerEvent",
    "Datapath",
    "OfctlRestApp",
    "POLICY_PRIORITY",
    "RoundTiming",
    "RyuLikeApp",
    "StatsFuture",
    "TAGGED_PRIORITY",
    "TraceEntry",
    "TransientUpdateApp",
    "UpdateCompleted",
    "UpdateExecution",
    "UpdateQueueApp",
    "UpdateRoundCompleted",
    "compile_initial_rules",
    "compile_schedule",
    "compile_two_phase",
]
