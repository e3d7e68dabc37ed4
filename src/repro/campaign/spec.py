"""Declarative campaign specifications.

A *campaign* is a grid sweep over instance families, sizes, parameters,
seeds, and schedulers.  The spec is plain JSON so it can live in a file,
travel over REST, and be hashed into a stable campaign id:

.. code-block:: json

    {
      "name": "smoke",
      "seed": 42,
      "families": [
        {"family": "reversal", "sizes": [6, 10, 20]},
        {"family": "sawtooth", "sizes": [26], "grid": {"block": [2, 8]}},
        {"family": "random-update", "sizes": [10], "repeats": 3}
      ],
      "schedulers": ["peacock", "greedy-slf", "oneshot"],
      "verify": true
    }

Expansion is fully deterministic: cells are enumerated family-entry by
family-entry, grid-variant by grid-variant, size by size, repeat by
repeat, scheduler by scheduler, and every cell's instance seed is derived
by hashing ``(campaign seed, family, params, size, repeat)`` -- notably
*not* the scheduler, so all schedulers of a cell group see the identical
instance, and the same spec+seed reproduces bit-identical results no
matter how many workers execute it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import CampaignSpecError, SchedulerSpecError
from repro.schema import (Field, Schema, boolean, integer, is_object, list_of,
                          non_empty_string, number, string)

#: Bumped when the cell expansion or result record layout changes shape.
SPEC_VERSION = 1


def canonical_json(data: Any) -> str:
    """The canonical (sorted, compact) JSON encoding used for ids and hashes."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def derive_seed(*parts: Any) -> int:
    """Deterministic 64-bit seed from arbitrary labelled parts (sha256)."""
    text = "|".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


#: Payload fields the coordinator may legitimately rewrite while a cell is
#: open (timeout escalation bumps ``timeout_s`` and injects search-budget
#: ``scheduler_params``); everything else pins the cell's identity.
_MUTABLE_PAYLOAD_KEYS = frozenset({"timeout_s", "scheduler_params"})


def payload_identity_hash(payload: Mapping[str, Any]) -> str:
    """Stable sha256 identity of one cell payload.

    Workers echo this hash with every submission so the coordinator can
    reject a record computed against the wrong cell (or a stale payload).
    Mutable execution knobs are excluded: an escalated re-lease must still
    hash to the same identity.
    """
    identity = {
        key: value
        for key, value in dict(payload).items()
        if key not in _MUTABLE_PAYLOAD_KEYS
    }
    return hashlib.sha256(canonical_json(identity).encode("utf-8")).hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CampaignSpecError(message)


_POSITIVE, _NAMES = number(0, above=True), list_of(string, 1)
_AXIS = list_of(lambda value: True, 1)  # a grid axis: any non-empty list

#: One family line of a spec (:class:`FamilyEntry`).
FAMILY_ENTRY = Schema("family entry", (
    Field("family", non_empty_string, "a family name"),
    Field("sizes", list_of(integer(0), 1), "a non-empty list of ints >= 0", (0,)),
    Field("repeats", integer(1), "an int >= 1", 1),
    Field("params", is_object, "an object", {}),
    Field("grid", lambda grid: is_object(grid) and all(map(_AXIS, grid.values())),
          "an object of non-empty lists", {}),
    Field("schedulers", _NAMES, "a non-empty list of scheduler names", None),
), CampaignSpecError)

#: A campaign spec (:class:`CampaignSpec`); its keyword arguments by name
#: but ``version``, whose value is checked against :data:`SPEC_VERSION`.
SPEC = Schema("campaign spec", (
    Field("name", non_empty_string, "a non-empty string"),
    Field("families", list_of(is_object, 1), "a non-empty list of family entries"),
    Field("schedulers", _NAMES, "a non-empty list of scheduler names"),
    Field("seed", integer(), "an int", 0),
    Field("properties", list_of(string), "a list of property names", ()),
    Field("verify", boolean, "true or false", False),
    Field("cleanup", boolean, "true or false", False),
    Field("timeout_s", _POSITIVE, "a finite number > 0", None),
    Field("mem_limit_mb", _POSITIVE, "a finite number > 0", None),
    Field("cpu_limit_s", _POSITIVE, "a finite number > 0", None),
    Field("version", integer(), "an int", SPEC_VERSION),
), CampaignSpecError)


@dataclass(frozen=True)
class Cell:
    """One fully-resolved work unit of a campaign."""

    index: int
    cell_id: str
    family: str
    size: int
    params: Mapping[str, Any]
    repeat: int
    seed: int
    scheduler: str
    properties: tuple[str, ...]
    verify: bool
    cleanup: bool
    timeout_s: float | None
    mem_limit_mb: float | None = None
    cpu_limit_s: float | None = None

    def payload(self) -> dict:
        """Self-contained picklable dict of every field, handed to pool workers."""
        return {**vars(self), "params": dict(self.params),
                "properties": list(self.properties)}


@dataclass(frozen=True)
class FamilyEntry:
    """One family line of a spec: sizes x grid-variants x repeats."""

    family: str
    sizes: tuple[int, ...] = (0,)
    repeats: int = 1
    params: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    schedulers: tuple[str, ...] | None = None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FamilyEntry":
        entry = FAMILY_ENTRY.decode(data)
        schedulers = entry["schedulers"]
        return cls(
            family=entry["family"],
            sizes=tuple(entry["sizes"]),
            repeats=entry["repeats"],
            params=dict(entry["params"]),
            grid={key: list(values) for key, values in entry["grid"].items()},
            schedulers=None if schedulers is None else tuple(schedulers),
        )

    def to_dict(self) -> dict:
        data: dict = {"family": self.family, "sizes": list(self.sizes)}
        if self.repeats != 1:
            data["repeats"] = self.repeats
        if self.params:
            data["params"] = dict(self.params)
        if self.grid:
            data["grid"] = {key: list(values) for key, values in self.grid.items()}
        if self.schedulers is not None:
            data["schedulers"] = list(self.schedulers)
        return data

    def variants(self) -> list[dict]:
        """Cross product of the grid axes (sorted keys, listed value order)."""
        if not self.grid:
            return [{}]
        keys = sorted(self.grid)
        return [
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.grid[key] for key in keys))
        ]


@dataclass(eq=False, repr=False)
class CampaignSpec:
    """A validated campaign description; the unit the engine executes."""

    name: str
    families: Sequence[FamilyEntry]
    schedulers: Sequence[str]
    seed: int = 0
    properties: Sequence[str] = ()
    verify: bool = False
    cleanup: bool = False
    timeout_s: float | None = None
    mem_limit_mb: float | None = None
    cpu_limit_s: float | None = None

    def __post_init__(self) -> None:
        """Every family, scheduler and property the spec names must resolve."""
        from repro.campaign.families import validate_family
        from repro.core.registry import parse_properties, resolve_scheduler

        self.families = tuple(self.families)
        self.schedulers = tuple(self.schedulers)
        self.properties = tuple(self.properties)
        try:
            for entry in self.families:
                validate_family(entry.family, entry.sizes, entry.params, entry.grid)
                for scheduler in entry.schedulers or ():
                    resolve_scheduler(scheduler)
            for scheduler in self.schedulers:
                resolve_scheduler(scheduler)
            if self.properties:
                parse_properties("+".join(self.properties))
        except SchedulerSpecError as exc:  # the registry's, as a spec error
            raise CampaignSpecError(str(exc)) from None

    # ------------------------------------------------------------------
    # (de)serialization and identity
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        spec = SPEC.decode(data)
        version = spec.pop("version")
        _require(version == SPEC_VERSION, f"unsupported spec 'version' {version!r} "
                                          f"(engine speaks {SPEC_VERSION})")
        spec["families"] = [FamilyEntry.from_dict(entry) for entry in spec["families"]]
        for key in ("timeout_s", "mem_limit_mb", "cpu_limit_s"):
            if spec[key] is not None:
                spec[key] = float(spec[key])
        return cls(**spec)

    def to_dict(self) -> dict:
        data: dict = {
            "version": SPEC_VERSION,
            "name": self.name,
            "seed": self.seed,
            "families": [entry.to_dict() for entry in self.families],
            "schedulers": list(self.schedulers),
        }
        for key in ("properties", "verify", "cleanup",
                    "timeout_s", "mem_limit_mb", "cpu_limit_s"):
            value = getattr(self, key)
            if value:  # left out at its default: (), False or None
                data[key] = list(value) if key == "properties" else value
        return data

    @property
    def spec_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()

    @property
    def campaign_id(self) -> str:
        """Stable id: rerunning an identical spec resumes the same directory."""
        return f"{self.name}-{self.spec_hash[:10]}"

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def cell_count(self) -> int:
        """``len(self.expand())``, counted without building a cell."""
        return sum(
            len(entry.sizes) * math.prod(map(len, entry.grid.values()))
            * entry.repeats * len(entry.schedulers or self.schedulers)
            for entry in self.families
        )

    def expand(self) -> list[Cell]:
        """Enumerate every cell of the campaign in canonical order."""
        cells: list[Cell] = []
        for entry in self.families:
            schedulers = entry.schedulers or self.schedulers
            for variant in entry.variants():
                params = {**entry.params, **variant}
                # all params (entry-level and grid) go into the id, so two
                # entries of one family differing only in params expand to
                # distinct cells instead of a duplicate-id error
                variant_key = "".join(
                    f"-{key}{params[key]}" for key in sorted(params)
                )
                for size in entry.sizes:
                    for repeat in range(entry.repeats):
                        seed = derive_seed(
                            self.seed,
                            entry.family,
                            canonical_json(params),
                            size,
                            repeat,
                        )
                        for scheduler in schedulers:
                            cell_id = (
                                f"{entry.family}{variant_key}-n{size}"
                                f"-r{repeat}@{scheduler}"
                            )
                            cells.append(
                                Cell(
                                    index=len(cells),
                                    cell_id=cell_id,
                                    family=entry.family,
                                    size=size,
                                    params=params,
                                    repeat=repeat,
                                    seed=seed,
                                    scheduler=scheduler,
                                    properties=self.properties,
                                    verify=self.verify,
                                    cleanup=self.cleanup,
                                    timeout_s=self.timeout_s,
                                    mem_limit_mb=self.mem_limit_mb,
                                    cpu_limit_s=self.cpu_limit_s,
                                )
                            )
        seen: set[str] = set()
        for cell in cells:
            _require(
                cell.cell_id not in seen,
                f"duplicate cell id {cell.cell_id!r}: family entries collide",
            )
            seen.add(cell.cell_id)
        return cells

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CampaignSpec({self.name!r}, {len(self.families)} families, "
            f"{len(self.schedulers)} schedulers, seed={self.seed})"
        )
