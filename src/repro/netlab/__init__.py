"""Network lab: the Mininet-substitute scenario runner."""

from repro.netlab.figure1 import (
    H1,
    H2,
    build_figure1_scenario,
    figure1_problem,
    run_figure1,
)
from repro.netlab.network import Host, Network
from repro.netlab.scenario import (
    ScenarioResult,
    UpdateScenario,
    final_path_of,
)

__all__ = [
    "H1",
    "H2",
    "Host",
    "Network",
    "ScenarioResult",
    "UpdateScenario",
    "build_figure1_scenario",
    "figure1_problem",
    "final_path_of",
    "run_figure1",
]
