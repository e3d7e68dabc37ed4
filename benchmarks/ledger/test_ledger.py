"""Tier-1 smoke of the perf ledger at ``--scale 0.02``.

Everything goes through the commands that ship, each pass in its own
process: the all-workloads command once, and beside it the driver's
single-pass form for the same seed again and for another seed.  The
checks are the ones a shrunken run can still make: every declared name is
reported, nothing fails, counters and digests repeat exactly under the
same seed and the digest moves with the seed.
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
RUN = str(HERE / "run.py")
DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in DECLARED["workloads"]]
TINY = ["--scale", "0.02", "--seconds", "0.05"]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import run  # noqa: E402


def start(cpu: int, *argv) -> subprocess.Popen:
    """``run.py`` on one CPU (a pass pins itself to the highest it may use)."""
    return subprocess.Popen(
        [sys.executable, RUN, *TINY, *map(str, argv)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )


def finish(process: subprocess.Popen) -> str:
    output, _ = process.communicate(timeout=300)
    assert process.returncode == 0, output[-2000:]
    return output


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """``whole``: the all-workloads command at seed 1.  ``again``: seed 1
    once more, pass by pass (every timed pass, one traced pass -- which
    samples every layer).  ``other``: the timed passes at seed 2."""
    root = tmp_path_factory.mktemp("ledger")
    cpus = sorted(os.sched_getaffinity(0))
    whole = start(cpus[-1], "--seed", 1, "--out", root / "whole")
    for name in NAMES:
        finish(start(cpus[0], "--workload", name, "--seed", 1, "--trace", 0,
                     "--out", root / "again"))
        finish(start(cpus[0], "--workload", name, "--seed", 2, "--trace", 0,
                     "--out", root / "other"))
    traced = finish(start(cpus[0], "--workload", "update_exec", "--seed", 1,
                          "--trace", 1, "--out", root / "again"))
    finish(whole)

    def last(label: str, name: str, trace: int) -> dict:
        return json.loads((root / label / f"last-{name}-t{trace}.json").read_text())

    return {
        "root": root,
        "results": json.loads((root / "whole" / "results.json").read_text()),
        "last": last,
        "traced_stdout": traced,
    }


def test_every_declared_metric_is_reported_with_its_unit(ledger):
    workloads = ledger["results"]["workloads"]
    assert sorted(workloads) == sorted(NAMES)
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    layers: set[str] = set()
    for name, entry in workloads.items():
        (timed,) = entry["runs"]
        assert set(timed["metrics"]) == end_to_end, name
        assert all(value > 0 for value in timed["metrics"].values()), name
        assert timed["failed"] == 0 and timed["attempted"] >= 1, name
        assert timed["info"]["failed_share"] == 0
        assert len(timed["info"]["setup_samples"]) == run.SETUPS
        layers |= set(entry["per_layer"])
    assert layers == {m["name"] for m in DECLARED["per_layer"]}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def test_same_seed_repeats_counters_and_digests_exactly(ledger):
    for name in NAMES:
        assert (
            ledger["last"]("whole", name, 0)["outcome_digest"]
            == ledger["last"]("again", name, 0)["outcome_digest"]
        ), name
    first = ledger["last"]("whole", "update_exec", 1)["metrics"]
    second = ledger["last"]("again", "update_exec", 1)["metrics"]
    exact = [key for key in first if compare.is_exact(key)]
    assert len(exact) >= 25
    for key in exact:
        assert first[key] == second[key], key


def test_another_seed_gives_another_digest(ledger):
    for name in NAMES:
        assert (
            ledger["last"]("whole", name, 0)["outcome_digest"]
            != ledger["last"]("other", name, 0)["outcome_digest"]
        ), name


def test_a_pass_ends_with_the_result_line_and_leaves_no_run_directory(ledger):
    result = json.loads(ledger["traced_stdout"].splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert not list(ledger["root"].glob("*/run-*")), "run directories must go"


def test_trace_file_holds_spans_with_parents(ledger):
    lines = (ledger["root"] / "whole" / "trace.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert all(
        {"id", "parent", "op", "name", "start", "end", "cpu_s", "fair_s"}
        == set(span) for span in spans
    )
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans), "span ids are unique across workloads"
    parents = {span["parent"] for span in spans} - {None}
    assert parents and parents <= ids
    assert {"rest.http_binding", "netlab.network.flush", "os.fsync"} <= {
        span["name"] for span in spans
    }


def test_compare_accepts_a_run_against_itself(ledger, tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(ledger["results"]))
    assert compare.main([path, path]) == 0
    assert "sets agree" in capsys.readouterr().out


def test_compare_flags_a_moved_counter_and_a_slower_metric(ledger):
    a = ledger["results"]
    b = json.loads(json.dumps(a))
    b["workloads"]["serve_small"]["per_layer"]["core.oracle.applies_per_op"] += 1
    b["workloads"]["update_exec"]["runs"][0]["metrics"]["p50_ms"] *= 2
    problems = compare.compare(a, b, DECLARED)
    assert any("applies_per_op" in p for p in problems)
    assert any("update_exec: p50_ms worse" in p for p in problems)
    assert len(problems) == 2


def test_spread_wider_than_the_bound_or_unknown_reads_unresolved():
    noisy = [100.0, 130.0, 90.0, 125.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10)[0] == "unresolved"
    assert compare.verdict([100.0], [101.0], "lower", 0.10)[0] == "unresolved"
    assert compare.verdict([100.0, 101.0], [100.5, 100.0], "lower", 0.10)[0] == "unchanged"
    assert compare.verdict([100.0, 130.0], [60.0, 70.0], "lower", 0.10)[0] == "better"
    assert compare.verdict([100.0], [130.0], "lower", 0.10)[0] == "worse"


def test_trace_checks_name_what_they_miss():
    good = {"trace.overhead_share": 0.01, "trace.coverage": 0.95}
    assert run.gate_misses("serve_small", good) == []
    assert run.gate_misses("churn_online", {**good, "trace.coverage": 0.5}) == []
    (miss,) = run.gate_misses("update_exec", {**good, "trace.coverage": 0.5})
    assert "trace.coverage" in miss
    (miss,) = run.gate_misses("exact_search", {**good, "trace.overhead_share": -0.2})
    assert "trace.overhead_share" in miss


@pytest.fixture
def bare_checkout(tmp_path):
    """Only what the benchmark owns: ``BENCHMARK.json`` and its directory."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    return tmp_path


def test_refuses_to_run_without_the_program(bare_checkout):
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "serve_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare_checkout, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_refuses_a_baseline_from_anything_but_a_clean_commit(bare_checkout):
    (bare_checkout / "src" / "repro").mkdir(parents=True)  # no git beside it
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--baseline"],
        cwd=bare_checkout, capture_output=True, text=True, timeout=60,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(bare_checkout.parent)},
    )
    assert done.returncode != 0
    assert "refusing to refresh baseline.json" in done.stderr
    assert not (bare_checkout / "benchmarks" / "ledger" / "out" / "results.json").exists()


def test_refuses_the_timed_pass_while_tracing_is_armed(tmp_path):
    done = subprocess.run(
        [sys.executable, RUN, *TINY, "--workload", "update_exec",
         "--out", str(tmp_path)],
        env={"REPRO_TRACE_DIR": str(tmp_path), "PATH": ""},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "REPRO_TRACE_DIR" in done.stderr
