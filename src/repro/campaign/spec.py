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
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import CampaignSpecError, SchedulerSpecError

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
        """Self-contained picklable dict handed to pool workers."""
        return {
            "index": self.index,
            "cell_id": self.cell_id,
            "family": self.family,
            "size": self.size,
            "params": dict(self.params),
            "repeat": self.repeat,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "properties": list(self.properties),
            "verify": self.verify,
            "cleanup": self.cleanup,
            "timeout_s": self.timeout_s,
            "mem_limit_mb": self.mem_limit_mb,
            "cpu_limit_s": self.cpu_limit_s,
        }


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
        _require(isinstance(data, Mapping), "family entry must be an object")
        unknown = set(data) - {
            "family", "sizes", "repeats", "params", "grid", "schedulers"
        }
        _require(not unknown, f"unknown family entry keys: {sorted(unknown)}")
        family = data.get("family")
        _require(
            isinstance(family, str) and bool(family),
            "family entry needs a 'family' name",
        )
        sizes = data.get("sizes", [0])
        _require(
            isinstance(sizes, Sequence)
            and not isinstance(sizes, str)
            and len(sizes) > 0
            and all(isinstance(s, int) and s >= 0 for s in sizes),
            f"family {family!r}: 'sizes' must be a non-empty list of ints >= 0",
        )
        repeats = data.get("repeats", 1)
        _require(
            isinstance(repeats, int) and repeats >= 1,
            f"family {family!r}: 'repeats' must be an int >= 1",
        )
        params = data.get("params", {})
        _require(
            isinstance(params, Mapping),
            f"family {family!r}: 'params' must be an object",
        )
        grid = data.get("grid", {})
        _require(
            isinstance(grid, Mapping)
            and all(
                isinstance(values, Sequence)
                and not isinstance(values, str)
                and len(values) > 0
                for values in grid.values()
            ),
            f"family {family!r}: 'grid' values must be non-empty lists",
        )
        schedulers = data.get("schedulers")
        if schedulers is not None:
            _require(
                isinstance(schedulers, Sequence)
                and not isinstance(schedulers, str)
                and len(schedulers) > 0
                and all(isinstance(s, str) for s in schedulers),
                f"family {family!r}: 'schedulers' must be a list of names",
            )
            schedulers = tuple(schedulers)
        return cls(
            family=family,
            sizes=tuple(sizes),
            repeats=repeats,
            params=dict(params),
            grid={key: list(values) for key, values in grid.items()},
            schedulers=schedulers,
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


class CampaignSpec:
    """A validated campaign description; the unit the engine executes."""

    def __init__(
        self,
        name: str,
        families: Sequence[FamilyEntry],
        schedulers: Sequence[str],
        seed: int = 0,
        properties: Sequence[str] = (),
        verify: bool = False,
        cleanup: bool = False,
        timeout_s: float | None = None,
        mem_limit_mb: float | None = None,
        cpu_limit_s: float | None = None,
    ) -> None:
        _require(isinstance(name, str) and bool(name), "spec needs a 'name'")
        _require(len(families) > 0, "spec needs at least one family entry")
        _require(len(schedulers) > 0, "spec needs at least one scheduler")
        self.name = name
        self.families = tuple(families)
        self.schedulers = tuple(schedulers)
        self.seed = seed
        self.properties = tuple(properties)
        self.verify = verify
        self.cleanup = cleanup
        self.timeout_s = timeout_s
        self.mem_limit_mb = mem_limit_mb
        self.cpu_limit_s = cpu_limit_s
        self._validate_names()

    def _validate_names(self) -> None:
        from repro.campaign.families import known_families, validate_family
        from repro.core.registry import parse_properties, resolve_scheduler

        names = known_families()
        try:
            for entry in self.families:
                _require(
                    entry.family in names,
                    f"unknown family {entry.family!r}; known: {sorted(names)}",
                )
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
        _require(isinstance(data, Mapping), "campaign spec must be a JSON object")
        unknown = set(data) - {
            "name", "seed", "families", "schedulers", "properties",
            "verify", "cleanup", "timeout_s", "mem_limit_mb",
            "cpu_limit_s", "version",
        }
        _require(not unknown, f"unknown spec keys: {sorted(unknown)}")
        version = data.get("version", SPEC_VERSION)
        _require(
            version == SPEC_VERSION,
            f"unsupported spec version {version!r} (engine speaks {SPEC_VERSION})",
        )
        families_data = data.get("families")
        _require(
            isinstance(families_data, Sequence) and not isinstance(families_data, str),
            "'families' must be a list",
        )
        schedulers = data.get("schedulers")
        _require(
            isinstance(schedulers, Sequence)
            and not isinstance(schedulers, str)
            and all(isinstance(s, str) for s in schedulers),
            "'schedulers' must be a list of names",
        )
        seed = data.get("seed", 0)
        _require(isinstance(seed, int), "'seed' must be an int")
        properties = data.get("properties", [])
        _require(
            isinstance(properties, Sequence)
            and not isinstance(properties, str)
            and all(isinstance(p, str) for p in properties),
            "'properties' must be a list of property names",
        )
        timeout_s = data.get("timeout_s")
        _require(
            timeout_s is None or (isinstance(timeout_s, (int, float)) and timeout_s > 0),
            "'timeout_s' must be a positive number",
        )
        mem_limit_mb = data.get("mem_limit_mb")
        _require(
            mem_limit_mb is None
            or (isinstance(mem_limit_mb, (int, float)) and mem_limit_mb > 0),
            "'mem_limit_mb' must be a positive number",
        )
        cpu_limit_s = data.get("cpu_limit_s")
        _require(
            cpu_limit_s is None
            or (isinstance(cpu_limit_s, (int, float)) and cpu_limit_s > 0),
            "'cpu_limit_s' must be a positive number",
        )
        return cls(
            name=data.get("name", ""),
            families=[FamilyEntry.from_dict(entry) for entry in families_data],
            schedulers=list(schedulers),
            seed=seed,
            properties=list(properties),
            verify=bool(data.get("verify", False)),
            cleanup=bool(data.get("cleanup", False)),
            timeout_s=float(timeout_s) if timeout_s is not None else None,
            mem_limit_mb=(
                float(mem_limit_mb) if mem_limit_mb is not None else None
            ),
            cpu_limit_s=(
                float(cpu_limit_s) if cpu_limit_s is not None else None
            ),
        )

    def to_dict(self) -> dict:
        data: dict = {
            "version": SPEC_VERSION,
            "name": self.name,
            "seed": self.seed,
            "families": [entry.to_dict() for entry in self.families],
            "schedulers": list(self.schedulers),
        }
        if self.properties:
            data["properties"] = list(self.properties)
        if self.verify:
            data["verify"] = True
        if self.cleanup:
            data["cleanup"] = True
        if self.timeout_s is not None:
            data["timeout_s"] = self.timeout_s
        if self.mem_limit_mb is not None:
            data["mem_limit_mb"] = self.mem_limit_mb
        if self.cpu_limit_s is not None:
            data["cpu_limit_s"] = self.cpu_limit_s
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
