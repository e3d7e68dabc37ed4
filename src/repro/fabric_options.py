"""The coordinator knobs an operator may set, spelled once.

``POST /campaigns/serve`` (:mod:`repro.rest.campaigns`) accepts exactly
these body keys, each a number >= 0 handed to
:class:`~repro.campaign.fabric.Coordinator` under the same name, and
``repro campaign serve`` builds its flags from the same rows.  A leaf
module on purpose: the CLI parser reads it on every invocation and must
not import the campaign engine or the REST stack to do so.
"""

from __future__ import annotations

#: Body key -> its ``repro campaign serve`` flag as (flag, type, metavar,
#: help), or ``None`` for a knob the CLI does not offer.
FABRIC_OPTIONS: dict[str, tuple | None] = {
    "lease_ttl_s": ("--lease-ttl", float, "SECONDS",
                    "lease TTL before an unrefreshed cell is reclaimed"),
    "heartbeat_interval_s": ("--heartbeat-interval", float, "SECONDS",
                             "worker heartbeat period"),
    "heartbeat_timeout_s": None,
    "lease_cells": ("--lease-cells", int, "N", "cells handed out per lease"),
    "max_transient_retries": (
        "--max-retries", int, "N",
        "transient-failure retries before a cell errors out"),
    "escalation_factor": None,
    "journal_compact_every": (
        "--journal-compact-every", int, "N",
        "compact the fabric write-ahead journal into a snapshot every "
        "N records"),
    "audit_fraction": (
        "--audit-fraction", float, "F",
        "fraction of accepted cells re-executed by a different worker and "
        "byte-compared (0 disables)"),
    "audit_seed": ("--audit-seed", int, "N",
                   "seed for the deterministic audit sample"),
    "poison_kill_threshold": (
        "--poison-kill-threshold", int, "N",
        "distinct worker deaths before a cell is declared poisoned and "
        "terminally recorded"),
}
