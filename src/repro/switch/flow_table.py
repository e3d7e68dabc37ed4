"""Flow table with OpenFlow 1.3 add/modify/delete and matching semantics.

Implements the parts of the spec the experiments depend on:

* priority-ordered lookup (deterministic tie-break by insertion order),
* OFPFC_ADD replacing an entry with identical match+priority,
* OFPFC_MODIFY[_STRICT] / OFPFC_DELETE[_STRICT] aggregate vs strict
  semantics (non-strict operations apply to entries *subsumed* by the
  request's match),
* optional overlap checking (OFPFF_CHECK_OVERLAP),
* idle/hard timeout expiry,
* per-entry packet/byte counters,
* a capacity limit raising :class:`TableFullError` (hardware tables are
  small; Kuzniar et al. PAM'15 motivates modelling this).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Iterator, Mapping

from repro.errors import SwitchError, TableFullError
from repro.openflow.actions import Instruction
from repro.openflow.constants import FlowModFlags, FlowRemovedReason, Port
from repro.openflow.flowmod import FlowMod
from repro.openflow.match import Match, parse_ipv4_prefix


#: The table's clock (``now``, install and match times) is the simulator's,
#: in ms; an entry's ``idle_timeout`` / ``hard_timeout`` are OpenFlow's, in
#: seconds, as its FlowMod and flow-stats replies carry them.
MS_PER_S = 1000.0


@dataclass
class FlowEntry:
    """One installed flow entry plus its counters."""

    match: Match
    priority: int
    instructions: tuple[Instruction, ...] = ()
    cookie: int = 0
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    flags: int = 0
    table_id: int = 0
    install_time: float = 0.0
    last_match_time: float = 0.0
    packet_count: int = 0
    byte_count: int = 0
    seq: int = 0  # insertion order, the deterministic tie-breaker

    def key(self) -> tuple[int, Match]:
        """Identity for ADD-replace and strict operations."""
        return (self.priority, self.match)

    def expired(self, now: float) -> FlowRemovedReason | None:
        """Which timeout (if any) has fired by ``now``."""
        if self.hard_timeout and now >= self.install_time + MS_PER_S * self.hard_timeout:
            return FlowRemovedReason.HARD_TIMEOUT
        reference = max(self.last_match_time, self.install_time)
        if self.idle_timeout and now >= reference + MS_PER_S * self.idle_timeout:
            return FlowRemovedReason.IDLE_TIMEOUT
        return None

    def deadline(self) -> float | None:
        """When a timeout fires unless traffic touches the entry first
        (``None``: the entry carries no timeout)."""
        times = []
        if self.hard_timeout:
            times.append(self.install_time + MS_PER_S * self.hard_timeout)
        if self.idle_timeout:
            reference = max(self.last_match_time, self.install_time)
            times.append(reference + MS_PER_S * self.idle_timeout)
        return min(times, default=None)

    def touch(self, now: float, n_bytes: int) -> None:
        self.last_match_time = now
        self.packet_count += 1
        self.byte_count += n_bytes


def matches_overlap(a: Match, b: Match) -> bool:
    """Can some packet match both ``a`` and ``b``?

    Fields set in only one match are wildcards in the other (compatible);
    fields set in both must be reconcilable.
    """
    a_fields, b_fields = a.set_fields(), b.set_fields()
    for name in a_fields.keys() & b_fields.keys():
        va, vb = a_fields[name], b_fields[name]
        if name in ("ipv4_src", "ipv4_dst"):
            addr_a, mask_a = parse_ipv4_prefix(str(va))
            addr_b, mask_b = parse_ipv4_prefix(str(vb))
            common = mask_a & mask_b
            if addr_a & common != addr_b & common:
                return False
        elif va != vb:
            return False
    return True


class FlowTable:
    """One flow table of a switch."""

    def __init__(self, table_id: int = 0, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise SwitchError(f"capacity must be positive, got {capacity}")
        self.table_id = table_id
        self.capacity = capacity
        self._entries: dict[tuple[int, Match], FlowEntry] = {}
        self._seq = 0
        #: bumped by every FlowMod applied and every expiry that removes an
        #: entry: equal versions mean equal lookups, unless an entry times out
        self.version = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(sorted(self._entries.values(), key=lambda e: e.seq))

    def has_timeouts(self) -> bool:
        """Does some entry carry an idle or hard timeout (so that what a
        lookup returns depends on ``now``)?"""
        return any(e.idle_timeout or e.hard_timeout for e in self._entries.values())

    # ------------------------------------------------------------------
    # mutation (FlowMod application)
    # ------------------------------------------------------------------
    def apply_flow_mod(self, mod: FlowMod, now: float = 0.0) -> list[FlowEntry]:
        """Apply a FlowMod; returns entries removed by a delete.

        Raises :class:`TableFullError` / :class:`SwitchError` on the error
        conditions the spec maps to OFPET_FLOW_MOD_FAILED.
        """
        self.version += 1
        if mod.is_add():
            self._add(mod, now)
            return []
        if mod.is_modify():
            self._modify(mod)
            return []
        return self._delete(mod)

    def _add(self, mod: FlowMod, now: float) -> None:
        key = (mod.priority, mod.match)
        if mod.flags & FlowModFlags.CHECK_OVERLAP:
            for entry in self._entries.values():
                if entry.priority == mod.priority and entry.key() != key and matches_overlap(
                    entry.match, mod.match
                ):
                    raise SwitchError(
                        f"overlap check failed against entry {entry.key()!r}"
                    )
        replacing = key in self._entries
        if not replacing and len(self._entries) >= self.capacity:
            raise TableFullError(
                f"table {self.table_id} is full ({self.capacity} entries)"
            )
        self._seq += 1
        self._entries[key] = FlowEntry(
            match=mod.match,
            priority=mod.priority,
            instructions=mod.instructions,
            cookie=mod.cookie,
            idle_timeout=float(mod.idle_timeout),
            hard_timeout=float(mod.hard_timeout),
            flags=mod.flags,
            table_id=self.table_id,
            install_time=now,
            last_match_time=now,
            seq=self._seq,
        )

    def _modify(self, mod: FlowMod) -> None:
        if mod.is_strict():
            entry = self._entries.get((mod.priority, mod.match))
            if entry is not None:
                entry.instructions = mod.instructions
                entry.cookie = mod.cookie or entry.cookie
            return
        for entry in self._entries.values():
            if self._aggregate_selected(entry, mod):
                entry.instructions = mod.instructions
                entry.cookie = mod.cookie or entry.cookie

    def _delete(self, mod: FlowMod) -> list[FlowEntry]:
        removed: list[FlowEntry] = []
        if mod.is_strict():
            entry = self._entries.pop((mod.priority, mod.match), None)
            if entry is not None and self._out_port_selected(entry, mod):
                removed.append(entry)
            elif entry is not None:  # out_port filter failed: put it back
                self._entries[entry.key()] = entry
            return removed
        for key, entry in list(self._entries.items()):
            if self._aggregate_selected(entry, mod) and self._out_port_selected(entry, mod):
                removed.append(self._entries.pop(key))
        return removed

    @staticmethod
    def _aggregate_selected(entry: FlowEntry, mod: FlowMod) -> bool:
        """Non-strict selection: the request's match subsumes the entry's."""
        if mod.cookie_mask and (entry.cookie & mod.cookie_mask) != (
            mod.cookie & mod.cookie_mask
        ):
            return False
        return mod.match.subsumes(entry.match)

    @staticmethod
    def _out_port_selected(entry: FlowEntry, mod: FlowMod) -> bool:
        if mod.out_port == int(Port.ANY):
            return True
        from repro.openflow.actions import ApplyActions, OutputAction, WriteActions

        for instruction in entry.instructions:
            if isinstance(instruction, (ApplyActions, WriteActions)):
                for action in instruction.actions:
                    if isinstance(action, OutputAction) and action.port == mod.out_port:
                        return True
        return False

    # ------------------------------------------------------------------
    # lookup and expiry
    # ------------------------------------------------------------------
    def lookup(
        self, fields: Mapping[str, Any], now: float = 0.0, n_bytes: int = 0,
    ) -> FlowEntry | None:
        """Highest-priority matching entry, its counters updated."""
        best: FlowEntry | None = None
        for entry in self._entries.values():
            # NB: IDLE_TIMEOUT is enum value 0 -- compare against None
            if entry.expired(now) is not None:
                continue
            if not entry.match.matches(fields):
                continue
            if best is None or (entry.priority, -entry.seq) > (best.priority, -best.seq):
                best = entry
        if best is not None:
            best.touch(now, n_bytes)
        return best

    def next_deadline(self) -> float | None:
        """The earliest :meth:`FlowEntry.deadline` in the table."""
        deadlines = [entry.deadline() for entry in self._entries.values()]
        return min((at for at in deadlines if at is not None), default=None)

    def expire(self, now: float) -> list[tuple[FlowEntry, FlowRemovedReason]]:
        """Remove and return all entries whose timeout fired."""
        fired: list[tuple[FlowEntry, FlowRemovedReason]] = []
        for key, entry in list(self._entries.items()):
            reason = entry.expired(now)
            if reason is not None:
                del self._entries[key]
                fired.append((entry, reason))
        if fired:
            self.version += 1
        return fired
