"""The ``repro`` command-line interface.

Subcommands::

    repro figure1   -- run the paper's Figure 1 demo scenario
    repro schedule  -- compute and verify a schedule for given paths
    repro rounds    -- round-count scaling table on adversarial families
    repro topo      -- generate a topology JSON file
    repro serve     -- expose the demo over the REST HTTP binding
    repro campaign  -- run / inspect / report declarative scenario campaigns
    repro churn     -- online scheduling under topology churn
    repro trace     -- summarize structured traces (repro.obs)

Each prints human-readable tables; ``--json`` switches to machine output
(and, where verification runs, a non-zero exit code flags failures).

Where the flags come from: ``churn run``'s trace flags are the rows of
:data:`repro.churn_options.TRACE_KNOBS`, and ``campaign serve``'s fabric
flags those of :data:`repro.fabric_options.FABRIC_OPTIONS`; both pass on
only what the user gave, and the package checks it.  ``schedule
--family`` and ``rounds --family`` build their instances through the
campaign family registry (:func:`repro.campaign.families.single_problem`).
The other flags are declared here, by hand.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.churn_options import TRACE_KNOBS
from repro.core.api import schedule_update
from repro.core.problem import UpdateProblem
from repro.core.registry import PROPERTY_NAMES, parse_properties, scheduler_names
from repro.core.schedule import UpdateSchedule
from repro.core.verify import default_properties
from repro.errors import ReproError
from repro.fabric_options import FABRIC_OPTIONS, MAX_WORKERS
from repro.metrics.report import ascii_table
from repro.topology import builders
from repro.topology.io import save_topology


def _parse_path(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise SystemExit(f"bad path {text!r}; expected comma-separated ints") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_figure1(args: argparse.Namespace) -> int:
    from repro.netlab.figure1 import run_figure1

    result = run_figure1(
        algorithm=args.algorithm,
        seed=args.seed,
        channel_latency=args.channel_latency,
        packet_mode=args.packet_mode,
    )
    data = result.as_dict()
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    rows = [[key, value] for key, value in data.items()]
    print(ascii_table(["metric", "value"], rows, title=f"Figure 1 / {args.algorithm}"))
    return 0 if result.violations == 0 or args.algorithm == "oneshot" else 1


def _int_in(least: int, most: int | None = None):
    """The argparse type of an int flag in ``least..most``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least or most is not None and value > most:
            bound = f">= {least}" if most is None else f"in {least}..{most}"
            raise argparse.ArgumentTypeError(f"must be an int {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _generated_problem(args: argparse.Namespace, family: str, n: int,
                       size: int, params: dict) -> UpdateProblem:
    """The ``--family`` instance of ``schedule`` and ``rounds``: campaign
    ``family`` at ``size``, seeded from the verb's own ``--family`` label,
    ``--seed`` and ``n``."""
    from repro.campaign.families import single_problem
    from repro.campaign.spec import derive_seed

    seed = derive_seed(args.seed, args.family, n, 0)
    return single_problem(family, size, params, seed)


def cmd_schedule(args: argparse.Namespace) -> int:
    if args.family is not None:
        if args.old or args.new:
            raise SystemExit("--family replaces --old/--new; give one or the other")
        if args.wp is not None:
            raise SystemExit(
                "--wp picks a waypoint on explicit --old/--new paths; "
                "for --family random-update use --waypointed instead"
            )
        if args.waypointed and args.family != "random-update":
            raise SystemExit("--waypointed only applies to --family random-update")
        params = {"waypoint": True} if args.waypointed else {}
        problem = _generated_problem(args, args.family, args.n, args.n, params)
    else:
        if not (args.old and args.new):
            raise SystemExit("either --old and --new, or --family, is required")
        problem = UpdateProblem(
            _parse_path(args.old), _parse_path(args.new), waypoint=args.wp
        )
    names = [name for name in (args.properties or "").split(",") if name]
    properties = parse_properties("+".join(names)) if names else ()
    # CLI policy: without --properties, verify against the default
    # transient-security expectations of the problem (blackhole freedom,
    # plus WPE when waypointed) -- the registry's guarantee is what the
    # scheduler promises, the default is what the operator expects
    result = schedule_update(
        problem,
        args.algorithm or ("wayup" if problem.waypoint is not None else "peacock"),
        verify=True,
        properties=properties or default_properties(problem),
    )
    schedule = result.schedule
    report = result.report
    if args.json:
        print(
            json.dumps(
                {
                    "scheduler": result.scheduler,
                    "schedule": schedule.to_dict(),
                    # short names, same vocabulary as --properties and REST
                    "guarantee": [PROPERTY_NAMES[p] for p in result.guarantee],
                    "ok": report.ok,
                    "violations": [str(v) for v in report.violations],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if report.ok else 1
    names = schedule.metadata.get("round_names") or [
        str(i) for i in range(schedule.n_rounds)
    ]
    rows = [
        [index, names[index], ", ".join(map(str, sorted(nodes, key=repr)))]
        for index, nodes in enumerate(schedule.rounds)
    ]
    print(ascii_table(["round", "name", "switches"], rows, title=result.scheduler))
    print(f"verified: {report.ok}")
    for violation in report.violations:
        print(f"  {violation}")
    if args.explain:
        if isinstance(schedule, UpdateSchedule):
            from repro.core.analysis import explain_schedule

            for line in explain_schedule(schedule):
                print(line)
        else:
            print("(--explain only narrates round schedules, "
                  "not two-phase plans)")
    return 0 if report.ok else 1


def _exact_round_cell(problem, args) -> tuple:
    """The ``--exact-properties`` column of ``repro rounds``: ``(cell, record)``.

    ``cell`` is the human table entry; ``record`` the JSON fields.  A
    ``--time-limit`` running out degrades to the proven anytime
    ``[lower, upper]`` interval instead of failing the sweep.
    """
    from repro.errors import (
        ExactSearchBudgetError,
        InfeasibleUpdateError,
        UpdateModelError,
        VerificationError,
    )

    params: dict = {}
    if args.time_limit is not None:
        # internal deadline: the search raises with proven bounds
        params["time_limit_s"] = args.time_limit
    spec = f"optimal:{args.exact_properties}"
    try:
        result = schedule_update(
            problem, spec, include_cleanup=False, params=params
        )
    except ExactSearchBudgetError as exc:
        upper = "?" if exc.upper is None else exc.upper
        return (
            f"[{exc.lower},{upper}]",
            {
                "optimal": None,
                "optimal_status": "timeout",
                "optimal_lower": exc.lower,
                "optimal_upper": exc.upper,
            },
        )
    except InfeasibleUpdateError:
        return "infeasible", {"optimal": None, "optimal_status": "infeasible"}
    except (VerificationError, UpdateModelError) as exc:
        # over the exact-search cap, or e.g. WPE without a waypoint
        detail = "capped" if "capped" in str(exc) else "unsupported"
        return detail, {"optimal": None, "optimal_status": detail}
    return (
        result.schedule.n_rounds,
        {"optimal": result.schedule.n_rounds, "optimal_status": "ok"},
    )


def cmd_rounds(args: argparse.Namespace) -> int:
    family = "random-update" if args.family.startswith("random") else args.family
    params = {"waypoint": True} if args.family == "random-wp" else {}
    exact = args.exact_properties is not None
    if exact:
        # validate the property list before sweeping, not per row
        args.exact_properties = args.exact_properties.replace(",", "+")
        parse_properties(args.exact_properties)
    rows = []
    records = []
    all_ok = True
    for n in range(args.n_min, args.n_max + 1, args.step):
        size = max(1, (n - 3) // 2) if family == "slalom" else n
        problem = _generated_problem(args, family, n, size, params)
        if not problem.required_updates:
            # a no-op instance has a valid zero-round optimal schedule
            rows.append([n, 0, 0, "-"] + ([0] if exact else []))
            record = {"n": n, "peacock": 0, "greedy-slf": 0, "ok": True}
            if exact:
                record.update({"optimal": 0, "optimal_status": "ok"})
            records.append(record)
            continue
        # each scheduler is verified against the guarantee it promises
        # (the envelope's default); records key on the canonical
        # registry name, whatever spelling the table uses
        sweep = ["peacock", "greedy-slf"]
        if problem.waypoint is not None:
            sweep.append("wayup")
        results = {}
        record: dict = {"n": n}
        ok = True
        for spec in sweep:
            result = schedule_update(
                problem, spec, include_cleanup=False, verify=args.json
            )
            results[result.scheduler] = result
            record[result.scheduler] = result.schedule.n_rounds
            if result.verified is not None:
                ok = ok and result.verified
        if args.json:
            record["ok"] = ok
            all_ok = all_ok and ok
        row = [
            n,
            results["peacock"].schedule.n_rounds,
            results["greedy-slf"].schedule.n_rounds,
            results["wayup"].schedule.n_rounds if "wayup" in results else "-",
        ]
        if exact:
            cell, exact_record = _exact_round_cell(problem, args)
            row.append(cell)
            record.update(exact_record)
        records.append(record)
        rows.append(row)
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0 if all_ok else 1
    headers = ["n", "peacock (RLF)", "greedy (SLF)", "wayup (WPE)"]
    if exact:
        headers.append(f"optimal:{args.exact_properties}")
    print(
        ascii_table(
            headers,
            rows,
            title=f"rounds on {args.family} instances (seed={args.seed})",
        )
    )
    return 0


def cmd_topo(args: argparse.Namespace) -> int:
    kinds = {
        "linear": lambda: builders.linear(args.n, with_hosts=args.hosts),
        "ring": lambda: builders.ring(args.n),
        "grid": lambda: builders.grid(args.n, args.n),
        "fat-tree": lambda: builders.fat_tree(args.n),
        "figure1": lambda: builders.figure1(with_hosts=args.hosts),
    }
    topo = kinds[args.kind]()
    save_topology(topo, args.out)
    print(f"wrote {topo.name}: {len(topo)} nodes, {len(topo.links())} links -> {args.out}")
    return 0


def cmd_churn_run(args: argparse.Namespace) -> int:
    from repro.churn import ChurnPolicy, generate_trace, run_churn

    knobs = {row.name: getattr(args, row.name) for row in TRACE_KNOBS
             if getattr(args, row.name) is not None}
    trace = generate_trace(args.kind, args.size, args.seed, **knobs)
    policy = ChurnPolicy(
        scheduled=not args.unscheduled,
        preempt=not args.defer,
        replan_budget=args.replan_budget,
    )
    metrics = run_churn(trace, policy)
    data = {
        "trace": trace.summary(),
        "policy": {
            "scheduled": policy.scheduled,
            "preempt": policy.preempt,
            "replan_budget": policy.replan_budget,
        },
        "metrics": metrics.to_dict(),
    }
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        summary = metrics.to_dict()
        rows = [
            [key, summary[key]]
            for key in (
                "arrivals",
                "completed",
                "cancelled",
                "superseded",
                "aborted",
                "noops",
                "restorations",
                "replans",
                "rounds_issued",
                "flips",
                "peak_in_flight",
                "failed_link_crossings",
                "transient_violations",
                "time_to_quiescence_ms",
                "quiescent",
            )
        ]
        mode = "scheduled" if policy.scheduled else "unscheduled"
        print(ascii_table(["metric", "value"], rows, title=f"churn / {trace.name} / {mode}"))
    clean = metrics.quiescent and (
        not policy.scheduled or metrics.transient_violations == 0
    )
    return 0 if clean else 1


def _open_campaign_store(args: argparse.Namespace):
    """Resolve a run-directory path or a campaign id under ``--root``."""
    import pathlib

    from repro.campaign.store import RunStore

    target = pathlib.Path(args.campaign)
    if (target / "manifest.json").is_file():
        return RunStore.open_dir(target)
    return RunStore.open_dir(pathlib.Path(args.root) / args.campaign)


def _campaign_summary(status: dict, as_json: bool) -> bool:
    """Print a finished campaign's status: the JSON, or the ``done`` line
    and any verification failures.  True when no cell errored and every
    verification passed."""
    failures = status.get("verification_failures", 0)
    if as_json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        counts = ", ".join(f"{name}={count}" for name, count
                           in status["by_status"].items() if count)
        print(f"done: {status['done']}/{status['total']} cells ({counts})")
        if failures:
            print(f"verification FAILED for {failures} cell(s) "
                  "(see results.jsonl)")
    return status["by_status"].get("error", 0) == 0 and not failures


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import CampaignSpec

    with open(args.spec, encoding="utf-8") as handle:
        spec = CampaignSpec.from_dict(json.load(handle))

    def progress(record: dict, done: int, total: int) -> None:
        if not args.json and (done % 25 == 0 or done == total):
            print(f"  [{done}/{total}] {record['id']}: {record['status']}")

    runner = CampaignRunner(spec, root=args.root, workers=args.workers)
    if not args.json:
        print(f"campaign {spec.campaign_id} -> {runner.store.directory}")
    status = runner.run(progress=progress)
    if not args.json:
        from repro.campaign.aggregate import render_report

        store = runner.store
        print(render_report(
            store.records(), store.timings(), title=f"campaign {spec.campaign_id}"
        ))
    return 0 if _campaign_summary(status, args.json) else 1


def _render_telemetry(data: dict) -> str:
    """The per-worker live table of ``campaign status --watch``."""
    rows = []
    for worker in data["workers"]:
        beat = worker["last_seen_age_s"]
        if worker.get("quarantined"):
            state = "quarantined"
        elif worker["alive"]:
            state = "up"
        else:
            state = "dead"
        rows.append([
            worker["worker_id"],
            state,
            worker["cells_done"],
            worker["cells_per_s"],
            worker["in_flight"],
            "-" if beat is None else f"{beat:.1f}s",
            worker["timeouts"],
            worker["escalations"],
            worker["transient_failures"],
        ])
    if not rows:
        rows.append(["(no workers yet)"] + [""] * 8)
    counters = data["counters"]
    table = ascii_table(
        ["worker", "state", "done", "cells/s", "in-flight", "beat-age",
         "timeouts", "escalated", "transient"],
        rows,
        title=(
            f"{data['campaign']}: {data['done']}/{data['total']} cells, "
            f"up {data['uptime_s']:.0f}s"
        ),
    )
    tail = ", ".join(
        f"{name}={counters.get(name, 0)}"
        for name in (
            "leases_granted", "reclaims", "retries", "escalations",
            "integrity_rejects", "audits_run", "audit_mismatches",
            "quarantines", "poisoned_cells",
        )
    )
    return f"{table}\nfabric: {tail}"


def _watch_telemetry(args: argparse.Namespace) -> int:
    """Poll the coordinator's telemetry endpoint; loop under ``--watch``.

    A restarting coordinator (crash recovery) surfaces as a
    ``TransportError``, or briefly as a 404 while the new process has
    bound the port but not yet re-served the campaign.  Under ``--watch``
    both mean "reconnecting", not "crash the watch loop"; any other 4xx
    (401 auth mismatch, bad campaign id) still fails fast.
    """
    import time

    from repro.errors import HttpStatusError, TransportError
    from repro.rest.http_binding import HttpClient

    client = HttpClient(args.url, token=getattr(args, "token", None))
    path = f"/campaigns/{args.campaign}/fabric/telemetry"
    while True:
        try:
            data = client.get(path)
        except HttpStatusError as exc:
            if not args.watch or exc.status != 404:
                raise
            print("coordinator restarting (campaign not re-served yet)…",
                  file=sys.stderr)
            time.sleep(max(0.05, args.interval))
            continue
        except TransportError:
            if not args.watch:
                raise
            print("coordinator unreachable; reconnecting…", file=sys.stderr)
            time.sleep(max(0.05, args.interval))
            continue
        if args.json:
            print(json.dumps(data, sort_keys=True))
        else:
            print(_render_telemetry(data))
        if not args.watch or data.get("finished"):
            return 0
        time.sleep(max(0.05, args.interval))


def cmd_campaign_status(args: argparse.Namespace) -> int:
    if args.url:
        return _watch_telemetry(args)
    if args.watch:
        raise SystemExit("--watch needs --url (a live coordinator to poll)")
    status = _open_campaign_store(args).status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    rows = [[key, value] for key, value in status["by_status"].items()]
    print(ascii_table(
        ["status", "cells"], rows,
        title=f"{status['campaign_id']}: {status['done']}/{status['total']} done",
    ))
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs import load_trace, summarize_trace

    records = load_trace(args.trace)
    rows = summarize_trace(records)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    if not rows:
        print(f"no trace records in {args.trace}")
        return 1
    print(ascii_table(
        ["phase", "count", "errors", "total ms", "mean ms", "p50 ms",
         "p95 ms", "max ms"],
        [
            [row["name"], row["count"], row["errors"], row["total_ms"],
             row["mean_ms"], row["p50_ms"], row["p95_ms"], row["max_ms"]]
            for row in rows
        ],
        title=f"trace {args.trace} ({len(records)} records)",
    ))
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign.aggregate import render_report

    store = _open_campaign_store(args)
    text = render_report(
        store.records(),
        store.timings(),
        fmt=args.format,
        title=f"campaign {store.campaign_id}",
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + ("\n" if not text.endswith("\n") else ""))
        print(f"wrote {args.format} report -> {args.out}")
    else:
        print(text)
    return 0


def cmd_campaign_serve(args: argparse.Namespace) -> int:
    from repro.campaign.fabric import worker_main
    from repro.campaign.spec import CampaignSpec
    from repro.rest.api import build_campaign_api
    from repro.rest.http_binding import RestHttpServer

    with open(args.spec, encoding="utf-8") as handle:
        spec = CampaignSpec.from_dict(json.load(handle))

    api = build_campaign_api(campaign_root=args.root)
    server = RestHttpServer(api, port=args.port, host=args.host, token=args.token)
    server.start()
    body: dict = {"spec": spec.to_dict()}
    body.update((key, getattr(args, key)) for key in FABRIC_OPTIONS
                if getattr(args, key, None) is not None)
    try:
        api.campaigns.serve(body, capped=False)
        coordinator = api.campaigns.fabric(spec.campaign_id)
        if args.json:
            print(json.dumps({
                "campaign_id": spec.campaign_id,
                "url": server.url,
                "directory": str(coordinator.store.directory),
            }, sort_keys=True))
        else:
            print(f"fabric serving campaign {spec.campaign_id} on {server.url}")
            print(f"join with: repro campaign work {server.url}")
        sys.stdout.flush()

        procs = []
        if args.local_workers:
            import multiprocessing

            ctx = multiprocessing.get_context("spawn")
            procs = [
                ctx.Process(
                    target=worker_main,
                    args=(server.url, spec.campaign_id),
                    kwargs={"name": f"local{i}", "token": args.token},
                    daemon=True,
                )
                for i in range(args.local_workers)
            ]
            for proc in procs:
                proc.start()

        completed = coordinator.wait(timeout_s=args.timeout)
        for proc in procs:
            proc.join(timeout=10)
        status = coordinator.status()
    finally:
        server.stop()
        api.campaigns.close()
    ok = _campaign_summary(status, args.json)
    if not args.json:
        fabric = status["fabric"]
        print("fabric: " + ", ".join(
            f"{name}={fabric[name]}"
            for name in ("leases_granted", "reclaims", "retries", "escalations")
        ))
    return 0 if ok and completed else 1


def cmd_campaign_work(args: argparse.Namespace) -> int:
    from repro.campaign.fabric import worker_main
    from repro.rest.http_binding import HttpClient

    campaign_id = args.campaign
    if campaign_id is None:
        served = HttpClient(args.url, token=args.token).get(
            "/campaigns/fabric"
        )["campaigns"]
        if len(served) != 1:
            print(
                f"error: coordinator serves {len(served)} campaigns "
                f"({', '.join(served) or 'none'}); pass --campaign",
                file=sys.stderr,
            )
            return 2
        campaign_id = served[0]
    # worker_main installs SIGTERM/SIGINT drain handlers: finish the
    # in-flight cell, then deregister, which hands the rest back
    summary = worker_main(
        args.url,
        campaign_id,
        name=args.name,
        max_lease_cells=args.cells,
        max_offline_s=args.max_offline_s,
        token=args.token,
    )
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        tags = "".join(
            f" ({tag})"
            for tag in ("drained", "gave_up_offline", "quarantined")
            if summary.get(tag)
        )
        print(f"{summary['worker_id']}: {summary['cells_done']} cells done"
              + tags)
    if summary.get("quarantined"):
        return 1
    return 0 if not summary.get("gave_up_offline") else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.netlab.figure1 import build_figure1_scenario
    from repro.rest.api import build_rest_api
    from repro.rest.http_binding import RestHttpServer

    scenario = build_figure1_scenario(algorithm="wayup", seed=args.seed)
    scenario.prepare()
    api = build_rest_api(
        scenario.ofctl_app,
        scenario.update_app,
        scenario.update_queue,
        flush=scenario.network.flush,
    )
    server = RestHttpServer(api, port=args.port)
    server.start()
    print(f"figure-1 network ready; REST on {server.url}")
    print("try: curl -X POST -d '{" + '"oldpath": [1,2,9,3,4,5,12], '
          '"newpath": [1,6,2,5,3,7,8,12], "wp": 3, "interval": 0'
          + "}' " + f"{server.url}/update/wayup")
    try:
        import time

        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        server.stop()
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Transiently secure SDN updates: schedulers, verifiers, demo",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure1", help="run the paper's demo scenario")
    p_fig.add_argument("--algorithm", default="wayup",
                       choices=["wayup", "peacock", "oneshot", "greedy-slf", "two-phase"])
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--channel-latency", default="1.0")
    p_fig.add_argument("--packet-mode", default="instant", choices=["instant", "perhop"])
    p_fig.add_argument("--json", action="store_true")
    p_fig.set_defaults(func=cmd_figure1)

    p_sched = sub.add_parser("schedule", help="compute and verify a schedule")
    p_sched.add_argument("--old", default=None, help="comma-separated dpids")
    p_sched.add_argument("--new", default=None, help="comma-separated dpids")
    p_sched.add_argument("--wp", type=int, default=None)
    p_sched.add_argument("--family", default=None,
                         choices=["reversal", "sawtooth", "slalom",
                                  "random-update", "fat-tree"],
                         help="generate the instance instead of --old/--new")
    p_sched.add_argument("--n", type=int, default=10,
                         help="instance size for --family")
    p_sched.add_argument("--seed", type=int, default=0,
                         help="seed for randomized --family instances")
    p_sched.add_argument("--waypointed", action="store_true",
                         help="with --family random-update: add a waypoint")
    p_sched.add_argument("--algorithm", default=None, metavar="SCHEDULER",
                         help="registry scheduler spec: "
                              f"{', '.join(scheduler_names())}; "
                              "aliases and parameterized forms like "
                              "'combined:wpe+rlf' or 'optimal:slf?max_rounds=4' "
                              "resolve too (default: wayup for a waypointed "
                              "problem, else peacock)")
    p_sched.add_argument("--properties", default=None,
                         help="comma-separated: wpe,slf,rlf,blackhole")
    p_sched.add_argument("--explain", action="store_true",
                         help="print the per-round change narrative")
    p_sched.add_argument("--json", action="store_true")
    p_sched.set_defaults(func=cmd_schedule)

    p_rounds = sub.add_parser("rounds", help="round-count scaling table")
    p_rounds.add_argument("--family", default="reversal",
                          choices=["reversal", "sawtooth", "slalom",
                                   "random", "random-wp"])
    p_rounds.add_argument("--n-min", type=int, default=5)
    p_rounds.add_argument("--n-max", type=int, default=25)
    p_rounds.add_argument("--step", type=_int_in(1), default=5)
    p_rounds.add_argument("--seed", type=int, default=0,
                          help="seed for the randomized families")
    p_rounds.add_argument("--exact-properties", default=None,
                          metavar="P1+P2",
                          help="add an exact minimum-round column, "
                               "optimal:<P1+P2> (e.g. rlf)")
    p_rounds.add_argument("--time-limit", type=float, default=None,
                          metavar="SECONDS",
                          help="per-instance budget for the exact column; "
                               "running out degrades to the proven "
                               "[lower, upper] round interval")
    p_rounds.add_argument("--json", action="store_true",
                          help="machine output; verifies every schedule and "
                               "exits non-zero on a verification failure")
    p_rounds.set_defaults(func=cmd_rounds)

    p_campaign = sub.add_parser(
        "campaign", help="declarative scenario campaigns (run/status/report)"
    )
    campaign_sub = p_campaign.add_subparsers(dest="campaign_command", required=True)

    p_run = campaign_sub.add_parser("run", help="execute a campaign spec JSON")
    p_run.add_argument("spec", help="path to the campaign spec JSON file")
    p_run.add_argument("-j", "--workers", type=_int_in(1, MAX_WORKERS), default=1,
                       help="worker processes (1 = in-process)")
    p_run.add_argument("--root", default="campaign-runs",
                       help="directory holding campaign run directories")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=cmd_campaign_run)

    p_cserve = campaign_sub.add_parser(
        "serve", help="coordinate a campaign for a pull-based worker fleet"
    )
    p_cserve.add_argument("spec", help="path to the campaign spec JSON file")
    p_cserve.add_argument("--root", default="campaign-runs",
                          help="directory holding campaign run directories")
    p_cserve.add_argument("--port", type=int, default=0,
                          help="HTTP port for the fabric endpoints (0 = ephemeral)")
    p_cserve.add_argument("--host", default="127.0.0.1",
                          help="bind address; beyond loopback requires --token")
    p_cserve.add_argument("--token", default=None, metavar="SECRET",
                          help="shared secret workers must send as X-Repro-Auth")
    p_cserve.add_argument("--local-workers", type=_int_in(0, MAX_WORKERS),
                          default=0, metavar="N",
                          help="also spawn N worker processes against this server")
    p_cserve.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                          help="give up waiting for the fleet after this long")
    for key, option in FABRIC_OPTIONS.items():
        if option.flag is not None:
            p_cserve.add_argument(option.flag, dest=key, type=option.kind,
                                  default=None, metavar=option.metavar,
                                  help=option.help)
    p_cserve.add_argument("--json", action="store_true")
    p_cserve.set_defaults(func=cmd_campaign_serve)

    p_work = campaign_sub.add_parser(
        "work", help="join a served campaign as a pull worker"
    )
    p_work.add_argument("url", help="coordinator base URL (from 'campaign serve')")
    p_work.add_argument("--campaign", default=None,
                        help="campaign id (defaults to the single served one)")
    p_work.add_argument("--name", default="worker",
                        help="worker name shown in coordinator status")
    p_work.add_argument("--cells", type=int, default=None, metavar="N",
                        help="max cells to lease at a time")
    p_work.add_argument("--token", default=None, metavar="SECRET",
                        help="shared secret matching the coordinator's --token")
    p_work.add_argument("--max-offline-s", type=float, default=120.0,
                        metavar="SECONDS",
                        help="how long to wait out a coordinator outage "
                             "(reconnect backoff budget) before giving up")
    p_work.add_argument("--json", action="store_true")
    p_work.set_defaults(func=cmd_campaign_work)

    p_status = campaign_sub.add_parser("status", help="progress of a campaign")
    p_status.add_argument("campaign", help="campaign id or run directory path")
    p_status.add_argument("--root", default="campaign-runs")
    p_status.add_argument("--url", default=None, metavar="URL",
                          help="poll a live coordinator's telemetry endpoint "
                               "instead of reading the run directory")
    p_status.add_argument("--watch", action="store_true",
                          help="with --url: keep polling until the campaign "
                               "finishes, printing a per-worker table; rides "
                               "out coordinator restarts")
    p_status.add_argument("--token", default=None, metavar="SECRET",
                          help="shared secret matching the coordinator's --token")
    p_status.add_argument("--interval", type=float, default=1.0,
                          metavar="SECONDS", help="--watch poll period")
    p_status.add_argument("--json", action="store_true")
    p_status.set_defaults(func=cmd_campaign_status)

    p_report = campaign_sub.add_parser("report", help="aggregate sweep table")
    p_report.add_argument("campaign", help="campaign id or run directory path")
    p_report.add_argument("--root", default="campaign-runs")
    p_report.add_argument("--format", default="ascii",
                          choices=["ascii", "csv", "json"])
    p_report.add_argument("--out", default=None, help="write instead of print")
    p_report.set_defaults(func=cmd_campaign_report)

    p_trace = sub.add_parser(
        "trace", help="inspect structured traces (see repro.obs)"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summarize", help="per-phase time breakdown of a trace"
    )
    p_tsum.add_argument(
        "trace", help="trace JSONL file, or a directory of trace-*.jsonl"
    )
    p_tsum.add_argument("--json", action="store_true")
    p_tsum.set_defaults(func=cmd_trace_summarize)

    p_churn = sub.add_parser(
        "churn", help="online scheduling under topology churn"
    )
    churn_sub = p_churn.add_subparsers(dest="churn_command", required=True)
    p_crun = churn_sub.add_parser(
        "run", help="drive a seeded churn trace to quiescence"
    )
    p_crun.add_argument("--kind", default="fat-tree", choices=["fat-tree", "wan"])
    p_crun.add_argument("--size", type=int, default=4,
                        help="fat-tree arity (even) or WAN node count")
    p_crun.add_argument("--seed", type=int, default=0)
    for row in TRACE_KNOBS:
        p_crun.add_argument("--" + row.name.replace("_", "-"), dest=row.name,
                            type=type(row.default), default=None,
                            help=row.expects)
    p_crun.add_argument("--unscheduled", action="store_true",
                        help="one-shot baseline (no safety oracle)")
    p_crun.add_argument("--defer", action="store_true",
                        help="queue mid-update arrivals instead of preempting")
    p_crun.add_argument("--replan-budget", type=int, default=2,
                        help="immediate re-plans per link-failure event")
    p_crun.add_argument("--json", action="store_true")
    p_crun.set_defaults(func=cmd_churn_run)

    p_topo = sub.add_parser("topo", help="generate a topology JSON")
    p_topo.add_argument("--kind", default="figure1",
                        choices=["linear", "ring", "grid", "fat-tree", "figure1"])
    p_topo.add_argument("--n", type=int, default=4)
    p_topo.add_argument("--hosts", action="store_true")
    p_topo.add_argument("--out", default="topology.json")
    p_topo.set_defaults(func=cmd_topo)

    p_serve = sub.add_parser("serve", help="REST HTTP server on the demo network")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
