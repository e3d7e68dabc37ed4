"""The coordinator knobs an operator may set, spelled once.

``POST /campaigns/serve`` (:mod:`repro.rest.campaigns`) reads exactly these
body keys through their rows (:mod:`repro.schema`, the one body decoder)
and hands them to :class:`~repro.campaign.fabric.Coordinator` by name;
``repro campaign serve`` builds its flags from the same rows.  A leaf
module: the CLI parser must not import the campaign engine or REST.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.schema import Field, integer, number


class Option(NamedTuple):
    """One knob: its type, range and CLI flag (``None``: the CLI has none)."""

    kind: type  #: ``int`` or ``float``: the flag's type and the wire's
    least: float
    most: float = math.inf
    flag: str | None = None
    metavar: str = ""
    help: str = ""

    def field(self, name: str) -> Field:
        """The row ``POST /campaigns/serve`` reads the knob by."""
        shape = (integer if self.kind is int else number)(self.least, self.most)
        kind = "an int" if self.kind is int else "a finite number"
        bound = (f">= {self.least}" if self.most == math.inf
                 else f"in {self.least}..{self.most}")
        return Field(name, shape, f"{kind} {bound}", None)


#: Most worker processes one host starts for a campaign: ``repro campaign
#: run -j``, ``repro campaign serve --local-workers`` and the ``workers``
#: of ``POST /campaigns`` all stop here.
MAX_WORKERS = 64

#: Body key -> its type, range and flag.
FABRIC_OPTIONS: dict[str, Option] = {
    "lease_ttl_s": Option(float, 0, flag="--lease-ttl", metavar="SECONDS",
                          help="lease TTL before an unrefreshed cell is reclaimed"),
    "heartbeat_interval_s": Option(float, 0, flag="--heartbeat-interval",
                                   metavar="SECONDS", help="worker heartbeat period"),
    "heartbeat_timeout_s": Option(float, 0),
    "lease_cells": Option(int, 1, flag="--lease-cells", metavar="N",
                          help="cells handed out per lease"),
    "max_transient_retries": Option(
        int, 0, flag="--max-retries", metavar="N",
        help="transient-failure retries before a cell errors out"),
    "escalation_factor": Option(float, 0),
    "journal_compact_every": Option(
        int, 1, flag="--journal-compact-every", metavar="N",
        help="compact the fabric write-ahead journal into a snapshot every "
             "N records"),
    "audit_fraction": Option(
        float, 0, 1, flag="--audit-fraction", metavar="F",
        help="fraction of accepted cells re-executed by a different worker "
             "and byte-compared (0 disables)"),
    "audit_seed": Option(int, 0, flag="--audit-seed", metavar="N",
                         help="seed for the deterministic audit sample"),
    "poison_kill_threshold": Option(
        int, 1, flag="--poison-kill-threshold", metavar="N",
        help="distinct worker deaths before a cell is declared poisoned and "
             "terminally recorded"),
}
