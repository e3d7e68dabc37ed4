"""Run provenance for the benchmark JSON artifacts.

Perf numbers are only comparable against their environment: every
``BENCH_*.json`` embeds the machine, python build and git revision that
produced it, so regressions can be told apart from hardware changes.
:func:`write` is every artifact's one writer, and it never stamps a sha
on numbers measured from code that commit does not hold.
"""

from __future__ import annotations

import json
import pathlib
import platform
import socket
import subprocess


def provenance() -> dict:
    """Machine / python / git-sha record for a benchmark payload."""
    record = {
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "hostname": socket.gethostname(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": None,
        "git_dirty": None,
        "src_dirty": None,
    }
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    try:
        record["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root, capture_output=True, text=True, timeout=10,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=repo_root, capture_output=True, text=True, timeout=10,
            check=True,
        ).stdout
        record["git_dirty"] = bool(status.strip())
        record["src_dirty"] = any(
            line[3:].startswith("src/") for line in status.splitlines()
        )
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout (e.g. a source tarball): sha stays None
    return record


def write(payload: dict, out: pathlib.Path) -> None:
    """Write a ``BENCH_*.json`` artifact -- unless ``src/`` differs from
    the commit whose sha the payload carries (the ledger's rule for its
    baseline)."""
    tag = payload["benchmark"]
    if payload["provenance"]["src_dirty"]:
        print(f"[{tag}] src/ has uncommitted changes: {out} not rewritten")
        return
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"[{tag}] wrote {out} ({payload['wall_seconds']}s)")
