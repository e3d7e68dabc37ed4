"""Perf ledger: one command, six workloads, end to end and layer by layer.

    python3 benchmarks/ledger/run.py [--seed N] [--seconds S]
        every workload, each pass in a fresh subprocess: the timed pass
        (tracing off, closed loop, one client), then the traced pass;
        prints every metric with its unit and writes results.json and
        trace.jsonl under --out

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
        one pass of one workload; the last line of stdout is one JSON
        object {correct, attempted, failed, metrics}

    python3 benchmarks/ledger/run.py --baseline
        three timed passes per workload, written to baseline.json

    python3 benchmarks/ledger/run.py --compare A.json B.json

See README.md beside this file for the workloads, the metric glossary
and how to read the output.
"""

import argparse
import gc
import importlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = pathlib.Path(__file__).resolve().parent
RUN = str(HERE / "run.py")
REPO = HERE.parents[1]
SPEC_FILE = REPO / "BENCHMARK.json"

#: workload name -> (module, class); modules import the program lazily so
#: that set-up time is charged to the workload that needs the import.
WORKLOADS = {
    "serve_small": ("wl_serve", "ServeSmall"),
    "serve_large": ("wl_serve", "ServeLarge"),
    "exact_search": ("wl_exact", "ExactSearch"),
    "campaign_fabric": ("wl_fabric", "CampaignFabric"),
    "churn_online": ("wl_churn", "ChurnOnline"),
    "update_exec": ("wl_update", "UpdateExec"),
}

#: Set-ups per timed pass (the pass's own plus forked ones); the reported
#: ``setup_s`` is their median.
SETUPS = 3
#: Timed passes per workload in a baseline refresh.
BASELINE_RUNS = 3
#: A traced pass spends this share of ``--seconds`` sampling its workload,
#: and samples every other workload at this share of its size.
TRACE_SHARE = 0.3
FILL_SCALE = 1 / 16
#: What the traced pass must show before its layer numbers are believed:
#: tracing costs under 5% of an op, and on the workloads whose layers the
#: harness can call one by one the layers add up to the op.
OVERHEAD_LIMIT = 0.05
COVERAGE_RANGE = (0.8, 1.1)
COVERED = ("serve_small", "serve_large", "update_exec")


def fail(message: str, code: int = 2):
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(code)


def load(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


# ---------------------------------------------------------------------------
# provenance and hygiene
# ---------------------------------------------------------------------------

def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=REPO, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None  # not a git checkout
    return done.stdout.strip()


def filesystem_of(path: pathlib.Path) -> str:
    """Filesystem type under ``path`` (fsync on tmpfs is free -- say so)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                _, mount, fstype = line.split()[:3]
                inside = str(path) == mount or str(path).startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def provenance(out: pathlib.Path) -> dict:
    status = _git("status", "--porcelain")
    program = _git("status", "--porcelain", "--", "src")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "tree_dirty": None if status is None else bool(status),
        "program_dirty": None if program is None else bool(program),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "scratch_fs": filesystem_of(out),
    }


def pin_to_one_cpu() -> None:
    """Keep every thread of this pass on one core (the highest-numbered
    one allowed; cpu0 also serves the interrupts).

    A closed loop has one runnable thread at a time -- the client or the
    thread serving it -- so one core is all it can use.  Left free, the
    two land on different virtual CPUs and every request pays two
    cross-CPU wake-ups of an idle vCPU, whose cost is the host's to
    decide: `serve_small` ran 480-500 requests/s free and 660-695 pinned,
    and the free runs were the ones whose p90 tripled in the host's
    noisy phases.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# ---------------------------------------------------------------------------
# one pass of one workload (the driver's entry points)
# ---------------------------------------------------------------------------

def set_up(name, seed, scale, root):
    """Build and warm one workload: the program's imports, seeded inputs
    with their reference outcomes, servers, warm-up ops.  Returns it with
    the time that took, at reference speed like every other time."""
    from harness import Pacer

    pacer = Pacer()
    since = pacer.stamp()
    workload = load(name)(seed, scale, root)
    try:
        workload.warm_up()
    except BaseException:
        workload.close()
        raise
    until = pacer.stamp()
    pacer.probe()
    return workload, pacer.fair(since, until)[2]


def forked_set_ups(name, seed, scale, root, count) -> list[float]:
    """Set-up times of ``count`` forked children, one after another.

    Forked before this process imports the program (and before it has a
    thread), so each child sets up as cold as the process itself will.
    """
    samples = []
    for _ in range(count):
        reader, writer = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(reader)
                workload, setup_s = set_up(name, seed, scale, root)
                workload.close()
                os.write(writer, repr(setup_s).encode("ascii"))
                code = 0
            except BaseException:  # noqa: BLE001 - reported, then the child ends
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(writer)
        with os.fdopen(reader, encoding="ascii") as pipe:
            text = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status or not text:
            fail(f"a forked set-up of {name} ended with status {status}", 1)
        samples.append(float(text))
    return samples


def timed_pass(name, seed, seconds, scale, root) -> dict:
    """Set-up (``SETUPS`` times), then the closed loop with tracing off."""
    from harness import measure

    if os.environ.get("REPRO_TRACE_DIR"):
        fail("REPRO_TRACE_DIR is set; the timed pass needs repro.obs off")
    samples = forked_set_ups(name, seed, scale, root, SETUPS - 1)
    workload, setup_s = set_up(name, seed, scale, root)
    samples.append(setup_s)
    try:
        from repro.obs import tracing_enabled

        if tracing_enabled():
            fail("repro.obs tracing is armed; the timed pass needs it off")
        result = measure(workload, seconds)
    finally:
        workload.close()
    result["metrics"] = {
        "setup_s": statistics.median(samples), **result["metrics"]
    }
    result["info"]["setup_samples"] = samples
    return result


def traced_pass(name, seed, seconds, scale, root, out) -> dict:
    """Per-layer metrics: ``name`` at full weight, then a small sample of
    every other workload, so that each layer has a measured number
    whichever workload was asked for (``own`` names the first kind)."""
    from harness import Tracer

    merged: dict[str, float] = {}
    spans = out / f"trace-{name}.jsonl"
    spans.write_text("", encoding="utf-8")
    for current in [name] + [w for w in WORKLOADS if w != name]:
        home = current == name
        workload = load(current)(seed, scale if home else scale * FILL_SCALE, root)
        # span ids stay unique when the passes' files are joined
        tracer = Tracer(current if home else f"{current}@{name}")
        try:
            metrics = workload.trace(tracer, seconds * TRACE_SHARE if home else 0.0)
        finally:
            workload.close()
        tracer.write(spans)
        if home:
            result = {
                "metrics": merged,
                "own": sorted(metrics),
                "attempted": int(metrics["trace.sampled_ops"]),
                "failed": workload.trace_failed,
            }
        for key, value in metrics.items():
            merged.setdefault(key, value)
        del workload, tracer
        gc.collect()
    return result


def gate_misses(name: str, metrics: dict) -> list[str]:
    """Which of its own acceptance checks a traced pass misses.  A pass
    prints them; the all-workloads command fails on them."""
    misses = []
    overhead = metrics["trace.overhead_share"]
    if abs(overhead) >= OVERHEAD_LIMIT:
        misses.append(
            f"trace.overhead_share {overhead:+.3f} is not within "
            f"+-{OVERHEAD_LIMIT}"
        )
    low, high = COVERAGE_RANGE
    coverage = metrics["trace.coverage"]
    if name in COVERED and not low <= coverage <= high:
        misses.append(f"trace.coverage {coverage:.3f} is outside {low}..{high}")
    return misses


def report(name: str, trace: int, result: dict, units: dict) -> None:
    print(f"== {name} "
          + (f"timed pass: {result['cycles']} cycles x "
             f"{result['ops_per_cycle']} ops = {result['attempted']} ops "
             f"({result['timed_ops']} latency samples), "
             f"{result['failed']} failed"
             if not trace else
             f"traced pass: {result['attempted']} sampled ops a round, "
             f"{result['failed']} failed") + " ==")
    own = result.get("own", result["metrics"])
    for key, value in result["metrics"].items():
        note = "" if key in own else "  (sample of another workload)"
        print(f"  {key:<48} {value:>14.4f} {units.get(key, '')}{note}")
    for key, value in result.get("info", {}).items():
        shown = value if isinstance(value, list) else f"{value:>14.4f}"
        print(f"  {key:<48} {shown} (info)")
    if "outcome_digest" in result:
        print(f"  outcome_digest  {result['outcome_digest']}")
    for miss in result.get("misses", ()):
        print(f"  NOT MET: {miss}")


def one_pass(args) -> int:
    out = pathlib.Path(args.out).resolve()
    root = out / f"run-{os.getpid()}"
    root.mkdir(parents=True, exist_ok=True)
    declared = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    try:
        if args.trace:
            result = traced_pass(
                args.workload, args.seed, args.seconds, args.scale, root, out
            )
            wanted = declared["per_layer"]
        else:
            result = timed_pass(
                args.workload, args.seed, args.seconds, args.scale, root
            )
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in wanted}
    if args.trace:
        result["misses"] = gate_misses(args.workload, result["metrics"])
    report(args.workload, args.trace, result, units)
    (out / f"last-{args.workload}-t{args.trace}.json").write_text(
        json.dumps(result, sort_keys=True) + "\n", encoding="utf-8"
    )
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        fail(f"no value for declared metrics {missing}", 1)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": result["metrics"][key], "unit": unit}
            for key, unit in units.items()
        },
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload (the human's entry point)
# ---------------------------------------------------------------------------

def all_workloads(args) -> int:
    out = pathlib.Path(args.out).resolve()
    stamp = provenance(out)
    print("provenance: " + json.dumps(stamp, sort_keys=True))
    if args.baseline and stamp["program_dirty"] is not False:
        fail("refusing to refresh baseline.json: src/ differs from a commit "
             "(or this is not a git checkout)")
    results: dict = {"provenance": stamp, "seed": args.seed,
                     "seconds": args.seconds, "scale": args.scale,
                     "workloads": {}}
    for name in WORKLOADS:
        entry = results["workloads"][name] = {"runs": []}
        for trace in [0] * (BASELINE_RUNS if args.baseline else 1) + [1]:
            done = subprocess.run(
                [sys.executable, RUN, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--scale", str(args.scale), "--trace", str(trace),
                 "--out", str(out)],
                timeout=170,
            )
            if done.returncode:
                fail(f"{name} --trace {trace} exited {done.returncode}", 1)
            found = json.loads(
                (out / f"last-{name}-t{trace}.json").read_text(encoding="utf-8")
            )
            if trace:
                entry["per_layer"] = {
                    key: found["metrics"][key] for key in found["own"]
                }
                entry["misses"] = found["misses"]
            else:
                entry["runs"].append(found)
    with open(out / "trace.jsonl", "w", encoding="utf-8") as whole:
        for name in WORKLOADS:
            whole.write((out / f"trace-{name}.jsonl").read_text(encoding="utf-8"))
    target = HERE / "baseline.json" if args.baseline else out / "results.json"
    target.write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {target} and {out / 'trace.jsonl'}")
    bad = [
        name for name, entry in results["workloads"].items()
        if any(run["failed"] for run in entry["runs"])
    ]
    if bad:
        fail(f"failed ops on {bad}", 1)
    # a shrunken run samples too few ops to judge its trace by
    missed = [
        f"{name}: {miss}" for name, entry in results["workloads"].items()
        for miss in entry["misses"]
    ]
    if missed and args.scale >= 1.0:
        fail("the traced passes miss their checks: " + "; ".join(missed), 1)
    return 0


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="timed wall per timed pass (whole cycles)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink every op list (tests use 0.02)")
    p.add_argument("--out", default=str(HERE / "out"),
                   help="results, trace.jsonl and the removed-at-exit run dirs")
    p.add_argument("--baseline", action="store_true",
                   help=f"{BASELINE_RUNS} timed passes per workload, written "
                        "to baseline.json; refused when src/ is not a commit")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    return p


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.compare:
        import compare

        return compare.main(args.compare)
    if not (REPO / "src" / "repro").is_dir() or not SPEC_FILE.is_file():
        fail(f"no program to measure under {REPO} (need src/repro and "
             "BENCHMARK.json)")
    sys.path.insert(0, str(REPO / "src"))
    pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)
    if args.workload:
        pin_to_one_cpu()  # a pass has its process to itself
        return one_pass(args)
    return all_workloads(args)


if __name__ == "__main__":
    sys.exit(main())
