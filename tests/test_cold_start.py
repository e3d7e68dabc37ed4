"""A cold process loads networkx only where a networkx graph is built.

The REST service, the CLI and every campaign worker start as fresh
interpreters, so what importing ``repro`` loads is paid per process.
networkx is imported only inside ``analysis.dependency_graph``, which
returns a networkx graph; a process that schedules, serves, executes an
update, runs a campaign cell or replays a churn trace never loads it.
The CLI parser loads no churn engine, controller or OpenFlow module.
The churn engine loads no controller module, and the package inits load
their exports only when they are read, so a churn run does not load the
scheduler service, the exact search, the OpenFlow codec or the injector.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = """
import sys, tempfile

import repro.cli.main
loaded = sorted(m for m in sys.modules if m == "networkx" or m.startswith(
    ("networkx.", "repro.churn.controller", "repro.controller.", "repro.openflow.")))
assert not loaded, f"import repro.cli.main loaded {loaded}"

from repro.campaign import CampaignSpec
from repro.campaign.runner import run_cell
from repro.core.api import schedule_update
from repro.core.hardness import reversal_instance
from repro.netlab.figure1 import build_figure1_scenario, run_figure1
from repro.rest.api import build_rest_api

assert schedule_update(reversal_instance(8), "peacock", verify=True).verified
assert schedule_update(reversal_instance(8), "optimal:slf").schedule
scenario = build_figure1_scenario(algorithm="wayup", seed=0)
scenario.prepare()
with tempfile.TemporaryDirectory() as root:
    api = build_rest_api(scenario.ofctl_app, scenario.update_app,
                         scenario.update_queue, flush=scenario.network.flush,
                         campaign_root=root)
    body = {"oldpath": [1, 2, 3, 4, 5], "newpath": [1, 6, 3, 7, 5], "wp": 3}
    assert api.handle("POST", "/schedule", body).status == 200
    api.campaigns.close()
assert run_figure1("wayup").violations == 0
spec = CampaignSpec.from_dict({
    "name": "cold", "families": [{"family": "random-update", "sizes": [8]}],
    "schedulers": ["peacock"], "verify": True,
})
record, _ = run_cell(spec.expand()[0].payload())
assert record["status"] == "ok", record
print("networkx" in sys.modules)
"""


CHURN = """
import sys

from repro.churn import generate_trace, run_churn

assert run_churn(generate_trace("wan", 16, 1)).quiescent
print(sorted(m for m in sys.modules if m.startswith(
    ("networkx", "repro.controller", "repro.openflow.")) or m in (
    "repro.core.api", "repro.core.registry", "repro.core.bnb",
    "repro.dataplane.injector", "repro.dataplane.packets")))
"""


def run_cold(script: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_no_entry_point_loads_networkx():
    assert run_cold(ENTRY_POINTS) == "False"


def test_a_wan_churn_run_loads_only_the_modules_it_runs():
    assert run_cold(CHURN) == "[]"
