"""Reachability census: every definition in ``src/`` is used by the program.

A *definition* is a top-level function, class or constant of a ``src/``
module, or a method of a top-level class (dunder names excluded).  It is
*reached* when its name occurs in a place the program itself runs or
ships:

* module-level code of a ``src/`` module -- but not a package
  ``__init__``'s re-exports (``from repro... import``, or the lazy-export
  table ``{"repro.<module>": (names...)}`` its ``__getattr__`` reads)
  nor any ``__all__``, which name a definition without using it;
* any ``.py`` file under ``benchmarks/`` or ``examples/``;
* the body of another reached definition (the census is a fixpoint, so
  a helper that only dead code calls is dead too).

A name "occurs" as an AST ``Name`` or ``Attribute`` node, an import
alias, a keyword argument or an identifier-shaped string constant.
Matching is by bare name, so the census is blind to dead code that
shares its name with live code; it never calls live code dead except
code the program reaches only by a name it builds at run time, which
is what :data:`KEEP` lists.

Code that only its own tests reach is deleted with those tests.  A name
stays, and goes on :data:`KEEP` with its reason, when a test uses it to
set up or observe *other* behaviour, when it is the reference twin a
test compares a fast path against, or when it is dispatched by a
string.  Every entry must still be needed: a name the program reaches
again must leave the list.

The *parameter census* holds the same line for settable values: a
defaulted parameter of a ``src/`` function, method or constructor is
*set* when its name occurs as a keyword argument or an identifier-shaped
string anywhere in ``src/``, ``benchmarks/`` or ``examples/``, or when a
call by the callee's name (a class's name for ``__init__``) passes its
position.  A value nothing sets is a constant: it becomes one, read at
call time so a test can patch it, or its path goes.  The seams tests
drive the program through stay on :data:`KEEP_PARAMS`, each with its
reason.
"""

from __future__ import annotations

import ast
import fnmatch
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``"<path under src/repro>::<Qualname>"`` (fnmatch patterns) -> why it
#: stays although the program never names it.
KEEP = {
    # dispatched by a name built at run time
    "campaign/fabric/state.py::FabricState._on_*":
        "FabricState applies an event through getattr(self, f'_on_{kind}')",
    "campaign/fabric/coordinator.py::Coordinator._after_*":
        "Coordinator runs an event's effects through getattr(self, f'_after_{kind}')",
    "controller/ofctl_rest.py::OfctlRestApp.flowentry_*":
        "RestApi routes /stats/flowentry/<op> through getattr(ofctl, f'flowentry_{op}')",
    "rest/http_binding.py::_Server.process_request*":
        "socketserver overrides: the library calls them for every accepted connection",
    # reference twins a test holds a fast path to
    "core/optimal.py::round_is_safe_reference":
        "from-scratch round check the oracle tests compare SafetyOracle.round_is_safe against",
    "core/verify.py::verify_round":
        "per-round from-scratch verifier test_verify_equivalence folds verify_schedule against",
    "core/bnb.py::PrecedenceAnalysis.forced_pairs":
        "pair-wise form test_chain_front / test_precedence_fixpoints hold chain_front to",
    # used by tests to set up or observe other behaviour
    "core/hardness.py::crossing_clash_instance":
        "the exact-search, verifier and deadline tests build the WPE+SLF clash family with it",
    "core/oracle.py::SafetyOracle.memo_size":
        "test_safe_singletons observes through it that the singleton pass writes no memo entry",
    "core/bnb.py::rounds_lower_bound":
        "test_bnb holds the search's forced-chain bound admissible through it",
    "core/bnb.py::infeasibility_certificate":
        "test_feasible_under_weaker_properties reads the clash family's verdict next to iddfs == bnb",
    "core/optimal.py::minimal_round_count":
        "the exact-search tests read round counts of both modes through it",
    "core/cost.py::OVS_FAST":
        "test_cost prices schedules with it (round_time, breakdown, more rounds cost more)",
    "core/cost.py::HARDWARE_TCAM":
        "test_hardware_dominated_by_install prices a schedule with it",
    "core/multipolicy.py::MergedPlan.combined_rounds":
        "test_merge_rounds observes merge_isolated_schedules' rounds through it",
    "core/oracle.py::SafetyOracle.forward_frontier":
        "test_frontier_extends_incrementally_on_apply observes apply through it",
    "core/oracle.py::SafetyOracle.updated_nodes":
        "the oracle tests compare the oracle's state to the reference walk through it",
    "core/oracle.py::SafetyOracle.in_flight_nodes":
        "the oracle tests compare the oracle's state to the reference walk through it",
    "core/oracle.py::SafetyOracle.clear_memo":
        "test_memo_hits_count checks the memo's hits and size, emptying it with it",
    "core/problem.py::UpdateProblem.required_mask":
        "test_safe_singletons enumerates every state below the goal mask",
    "core/registry.py::SchedulerRegistry.unregister":
        "tests that plug a fake scheduler in take it out again",
    "core/registry.py::SchedulerRegistry.plain_names":
        "registry and REST tests sweep every plain scheduler through it",
    "core/registry.py::register_scheduler":
        "tests plug a fake scheduler in with it (also part of repro.__all__)",
    "core/schedule.py::UpdateSchedule.includes_cleanup":
        "scheduler tests observe the cleanup option through it",
    "core/twophase.py::TwoPhaseSchedule.includes_cleanup":
        "scheduler tests observe the cleanup option through it",
    "core/verify.py::VerificationReport.by_property":
        "verifier tests read one property's violations through it",
    "campaign/families.py::known_families":
        "test_churn_families_registered observes the churn families' registration",
    "churn/metrics.py::ChurnMetrics.lifecycle":
        "churn controller tests read one update's lifecycle through it",
    "channel/base.py::ChannelStats.mean_latency_ms":
        "test_stats checks the channel's latency accounting through it",
    "controller/trace.py::ControlPlaneTrace.flow_mods_before_barrier":
        "test_barrier_fencing_invariant checks the executed rounds' barrier fencing",
    "controller/trace.py::ControlPlaneTrace.rounds_observed":
        "test_rounds_observed_match_schedule checks the executed rounds against the schedule",
    "dataplane/packets.py::tcp_packet":
        "the byte-codec round-trip test builds a TCP packet with it",
    "dataplane/packets.py::udp_packet":
        "the byte-codec and custom packet-factory tests build UDP packets with it",
    "dataplane/packets.py::icmp_ping":
        "the byte-codec round-trip test builds an ICMP packet with it",
    "netlab/scenario.py::final_path_of":
        "end-to-end tests read the path a scenario ends on",
    "obs/trace.py::*Span.set_attr":
        "span tests set one attribute on live and no-op spans next to set_attrs",
    "obs/trace.py::Tracer.remove_sink":
        "the coordinator golden run detaches its recording sink",
    "obs/trace.py::Tracer.sinks":
        "tracing tests observe which sinks are armed",
    "obs/trace.py::disable_tracing":
        "test_disable_tracing_drops_sinks turns configure_tracing's sinks off with it",
    "openflow/flowmod.py::FlowMod.is_delete":
        "FlowMod tests observe command parsing through it",
    "openflow/flowmod.py::FlowMod.output_ports":
        "FlowMod and update-queue tests read the compiled output ports",
    "openflow/match.py::Match.specificity":
        "the Match reference property test observes replace() through it",
    "switch/datapath.py::SwitchSim.flow_count":
        "controller and switch tests count installed entries",
    "switch/datapath.py::SwitchSim.dump_flows":
        "switch and REST tests read installed entries",
    "switch/datapath.py::SwitchSim.busy_until":
        "test_busy_time_accounted checks install serialization through it",
    "switch/latency.py::SwitchTimingProfile.mean_install_ms":
        "test_means_ordered checks the timing profiles' order through it",
    "topology/graph.py::NodeInfo.is_switch":
        "test_kinds reads node kinds through it next to switches()",
    "topology/graph.py::NodeInfo.is_host":
        "test_kinds reads node kinds through it next to hosts()",
    "topology/graph.py::Topology.remove_link":
        "connectivity and walk-replay tests cut links with it",
    "topology/graph.py::Topology.degree":
        "test_ring checks the ring builder through it",
    "topology/io.py::topology_from_dict":
        "the round-trip tests read topology_to_dict's output back with it",
    "topology/random_graphs.py::erdos_renyi":
        "end-to-end and determinism tests build random topologies with it",
    "topology/random_graphs.py::random_waypointed_instance":
        "property tests draw waypointed instances with it",
}

#: ``"<path under src/repro>::<Qualname>(<parameter>)"`` (fnmatch
#: patterns) -> why it keeps its default although the program never sets
#: it.
KEEP_PARAMS = {
    "*(clock)": "tests drive leases, heartbeats and backoff with a hand-set clock",
    "*(store)": "tests hand a coordinator or runner a RunStore they set up",
    "core/registry.py::register_scheduler(factory)":
        "tests plug a fake scheduler in by its factory",
    "rest/api.py::build_campaign_api(service)":
        "the transport parity test serves a CampaignService it also drives in-process",
    "dataplane/packets.py::*_packet(dst_port)":
        "the packet builders serve only tests (KEEP), which choose the port",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(nodes) -> set[str]:
    found: set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.keyword) and node.arg:
                found.add(node.arg)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _IDENT.match(node.value)):
                found.add(node.value)
    return found


def _export_table(node) -> bool:
    """A dict literal keyed by ``repro`` module names: lazy re-exports."""
    return isinstance(node, ast.Dict) and bool(node.keys) and all(
        isinstance(key, ast.Constant) and isinstance(key.value, str)
        and key.value.startswith("repro")
        for key in node.keys
    )


def _names_nothing(node, in_init: bool) -> bool:
    """``__all__`` anywhere, and a package ``__init__``'s re-exports."""
    if isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    ):
        return True
    if in_init and isinstance(node, ast.Assign) and _export_table(node.value):
        return True
    return in_init and isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").startswith("repro")
    )


def _definitions(key: str, tree: ast.Module, in_init: bool, roots: set[str]):
    """Yield ``(key::qualname, name, uses)``; module-level code goes to roots."""
    for node in tree.body:
        if _names_nothing(node, in_init):
            continue
        if isinstance(node, _FUNCTIONS):
            yield f"{key}::{node.name}", node.name, _names([node])
        elif isinstance(node, ast.ClassDef):
            own = [n for n in node.body if not isinstance(n, _FUNCTIONS)]
            yield f"{key}::{node.name}", node.name, _names(
                node.decorator_list + node.bases + node.keywords + own)
            for method in node.body:
                if isinstance(method, _FUNCTIONS):
                    yield (f"{key}::{node.name}.{method.name}", method.name,
                           _names([method]))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            named = [t.id for t in targets if isinstance(t, ast.Name)]
            if not named or all(n.startswith("__") for n in named):
                roots |= _names([node])
                continue
            uses = _names([node.value]) if node.value is not None else set()
            for name in named:
                yield f"{key}::{name}", name, uses
        else:
            roots |= _names([node])


def unreached(root: Path = ROOT, keep=()) -> list[str]:
    """The census: definitions under ``root/src/repro`` that nothing reaches.

    ``keep`` patterns count as reached, and so does what they use.
    """
    package = root / "src" / "repro"
    roots: set[str] = set()
    defs = []
    for path in sorted(package.rglob("*.py")):
        key = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs.extend(_definitions(key, tree, path.name == "__init__.py", roots))
    for folder in ("benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            roots |= _names([ast.parse(path.read_text(encoding="utf-8"))])

    live = [
        name.startswith("__") or any(fnmatch.fnmatchcase(qual, p) for p in keep)
        for qual, name, _ in defs
    ]
    for index, (_, _, uses) in enumerate(defs):
        if live[index]:
            roots |= uses
    grew = True
    while grew:
        grew = False
        for index, (_, name, uses) in enumerate(defs):
            if not live[index] and name in roots:
                live[index] = True
                roots |= uses
                grew = True
    return [qual for (qual, _, _), on in zip(defs, live) if not on]


def _callees(func) -> list[str]:
    """The names a call goes by: ``f(...)``, ``x.f(...)``, and both arms
    of ``(f if c else g)(...)``."""
    if isinstance(func, ast.Name):
        return [func.id]
    if isinstance(func, ast.Attribute):
        return [func.attr]
    if isinstance(func, ast.IfExp):
        return _callees(func.body) + _callees(func.orelse)
    return []


def _settings(trees) -> tuple[set[str], dict[str, float]]:
    """Names set by keyword (or as identifier strings), and per callee
    name the most positional arguments any call passes it."""
    named: set[str] = set()
    passed: dict[str, float] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg:
                named.add(node.arg)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _IDENT.match(node.value)):
                named.add(node.value)
            elif isinstance(node, ast.Call):
                count = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                         else len(node.args))
                for name in _callees(node.func):
                    passed[name] = max(passed.get(name, 0), count)
    return named, passed


def _defaulted(key: str, tree: ast.Module):
    """Yield ``(key::qualname(param), param, names it is called by,
    position)`` for every defaulted parameter of a top-level function or
    method; ``position`` is ``None`` for a keyword-only one."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            yield from _parameters(f"{key}::{node.name}", node, [node.name], 0)
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if not isinstance(method, _FUNCTIONS):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in method.decorator_list)
                names = ([node.name, "__init__"] if method.name == "__init__"
                         else [method.name])
                yield from _parameters(f"{key}::{node.name}.{method.name}",
                                       method, names, 0 if static else 1)


def _parameters(qual: str, function, names: list[str], bound: int):
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        name = positional[index].arg
        yield f"{qual}({name})", name, names, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{qual}({arg.arg})", arg.arg, names, None


def unset_parameters(root: Path = ROOT, keep=()) -> list[str]:
    """The parameter census: defaulted parameters under ``root/src/repro``
    that nothing in ``src/``, ``benchmarks/`` or ``examples/`` sets.
    ``keep`` patterns count as set."""
    package = root / "src" / "repro"
    trees, params = [], []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        trees.append(tree)
        params.extend(_defaulted(path.relative_to(package).as_posix(), tree))
    for folder in ("benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            trees.append(ast.parse(path.read_text(encoding="utf-8")))
    named, passed = _settings(trees)
    return [
        qual for qual, param, names, position in params
        if param not in named
        and (position is None or all(passed.get(n, 0) <= position for n in names))
        and not any(fnmatch.fnmatchcase(qual, pattern) for pattern in keep)
    ]


def test_every_definition_is_reached():
    dead = unreached(keep=KEEP)
    assert not dead, (
        "defined in src/ but reached by nothing the program runs: delete "
        "them (with the tests that check only them), or add them to "
        "KEEP with the reason a test needs them:\n  " + "\n  ".join(dead)
    )


def test_every_keep_entry_is_still_needed():
    dead = unreached()
    stale = [
        pattern for pattern in KEEP
        if not any(fnmatch.fnmatchcase(qual, pattern) for qual in dead)
    ]
    assert not stale, f"reached again or gone, drop from KEEP: {stale}"


def test_every_keep_entry_has_a_reason():
    assert all(isinstance(why, str) and why.strip() for why in KEEP.values())


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def test_census_finds_code_only_dead_code_or_reexports_reach(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": (
            "from repro.mod import dead, helper, used\n"
            "__all__ = ['dead', 'helper', 'used']\n"),
        "src/repro/mod.py": (
            "LIMIT = 3\n"
            "def helper():\n    return LIMIT\n"
            "def dead():\n    return helper()\n"
            "def used():\n    return 1\n"
            "class Box:\n"
            "    def __init__(self):\n        self.n = 0\n"
            "    def grow(self):\n        self.n += 1\n"
            "    def shrink(self):\n        self.n -= 1\n"),
        "src/repro/cli.py": "from repro.mod import Box, used\nused()\nBox().grow()\n",
        "benchmarks/bench.py": "",
        "examples/demo.py": "",
    })
    assert unreached(root) == [
        "mod.py::LIMIT", "mod.py::helper", "mod.py::dead", "mod.py::Box.shrink",
    ]
    assert unreached(root, keep=["mod.py::dead"]) == ["mod.py::Box.shrink"]
    (root / "examples" / "demo.py").write_text("from repro.mod import Box\nBox().shrink()\n")
    assert unreached(root, keep=["mod.py::dead"]) == []


def test_every_parameter_is_set_by_the_program():
    unset = unset_parameters(keep=KEEP_PARAMS)
    assert not unset, (
        "defaulted in src/ but set by nothing the program runs: make each "
        "a constant read at call time (a test may patch it), drop the path "
        "it selects, or add it to KEEP_PARAMS with the reason a test needs "
        "it:\n  " + "\n  ".join(unset)
    )


def test_every_keep_params_entry_is_still_needed():
    unset = unset_parameters()
    stale = [
        pattern for pattern in KEEP_PARAMS
        if not any(fnmatch.fnmatchcase(qual, pattern) for qual in unset)
    ]
    assert not stale, f"set again or gone, drop from KEEP_PARAMS: {stale}"
    assert all(isinstance(why, str) and why.strip() for why in KEEP_PARAMS.values())


def test_a_lazy_export_table_reaches_nothing(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": (
            "def lazy_exports(namespace, table):\n    return table.get, list\n"
            "_EXPORTS = {'repro.mod': ('dead', 'used', 'Box as Crate')}\n"
            "__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)\n"
            "__all__ = ['Crate', 'dead', 'used']\n"),
        "src/repro/sub/__init__.py": (
            "import repro\n"
            "_EXPORTS = {'repro.sub.leaf': ('gone',)}\n"
            "__getattr__, __dir__ = repro.lazy_exports(globals(), _EXPORTS)\n"),
        "src/repro/sub/leaf.py": "def gone():\n    return 0\n",
        "src/repro/mod.py": (
            "def dead():\n    return 0\n"
            "def used():\n    return 1\n"
            "class Box:\n    pass\n"),
        "src/repro/cli.py": "from repro.mod import used\nused()\n",
        "benchmarks/bench.py": "",
        "examples/demo.py": "",
    })
    assert unreached(root) == ["mod.py::dead", "mod.py::Box", "sub/leaf.py::gone"]
    # the same table outside a package __init__ is code that names them
    (root / "src" / "repro" / "cli.py").write_text(
        "TABLE = {'repro.mod': ('dead', 'Box')}\nprint(TABLE)\n")
    assert unreached(root) == ["mod.py::used", "sub/leaf.py::gone"]


def test_parameter_census_counts_keywords_strings_and_positions(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/mod.py": (
            "def f(a, b=1, *, c=2, d=3):\n    return a + b + c + d\n"
            "def g(x=0, y=0):\n    return x + y\n"
            "class Box:\n"
            "    def __init__(self, size=1, seal=False):\n        self.size = size\n"
            "    def fill(self, n=1):\n        return n\n"
            "    @staticmethod\n"
            "    def empty(k=0):\n        return k\n"),
        "src/repro/cli.py": (
            "from repro.mod import Box, f, g\n"
            "f(0, 5, c=1)\n"
            "Box(2).fill()\n"
            "Box.empty(1)\n"
            "(g if True else max)(1)\n"),
        "benchmarks/bench.py": "OPTIONS = {'d': 4}\n",
        "examples/demo.py": "",
    })
    assert unset_parameters(root) == [
        "mod.py::g(y)", "mod.py::Box.__init__(seal)", "mod.py::Box.fill(n)",
    ]
    assert unset_parameters(root, keep=["*(seal)"]) == [
        "mod.py::g(y)", "mod.py::Box.fill(n)",
    ]
    (root / "examples" / "demo.py").write_text(
        "from repro.mod import Box, g\ng(1, 2)\nBox().fill(n=3)\n")
    assert unset_parameters(root, keep=["*(seal)"]) == []
