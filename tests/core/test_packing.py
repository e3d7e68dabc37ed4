"""The witness-watching round packer vs the probe-everything reference.

Two arguments, both load-bearing for :mod:`repro.core.packing`:

* **differential** -- greedy-SLF, Peacock (exact and conservative) and the
  combined greedy must emit bit-identical rounds, round names and errors to
  the naive loops in ``reference_packer.py``, on the hardness families and
  on seeded random instances, with cold oracles and with oracles carrying a
  pre-learned nogood table;
* **soundness** -- every node the packer leaves asleep is rejected by a real
  ``try_apply`` on a shadow oracle standing in exactly the state the naive
  loop would have probed it in.
"""

from __future__ import annotations

import random

import pytest

from repro.core.combined import combined_greedy_schedule
from repro.core.greedy_slf import greedy_slf_schedule
from repro.core.hardness import (
    crossing_clash_instance,
    crossing_instance,
    double_diamond_instance,
    reversal_instance,
    sawtooth_instance,
    waypoint_slalom_instance,
)
from repro.core.oracle import SafetyOracle
from repro.core.packing import pack_rounds
from repro.core.peacock import peacock_schedule
from repro.core.problem import UpdateProblem
from repro.core.verify import Property
from repro.errors import ReproError
from repro.topology.random_graphs import random_update_instance
from tests.core.reference_packer import (
    reference_combined,
    reference_greedy_slf,
    reference_peacock,
)

SLF, RLF, WPE, BH = Property.SLF, Property.RLF, Property.WPE, Property.BLACKHOLE

#: Combined property mixes; the WPE ones only run on waypointed problems.
MIXES = (
    (SLF,), (RLF,), (BH,), (SLF, BH), (RLF, BH),
    (WPE,), (WPE, SLF), (WPE, RLF), (WPE, BH), (WPE, SLF, BH), (WPE, RLF, BH),
)


def _variants(problem: UpdateProblem):
    """``(label, oracle kwargs, production run, reference run)`` per scheduler."""
    yield (
        "greedy-slf", {"properties": (SLF,)},
        lambda p, o: greedy_slf_schedule(p, oracle=o),
        reference_greedy_slf,
    )
    for exact in (True, False):
        yield (
            f"peacock exact={exact}", {"properties": (RLF,), "exact_rlf": exact},
            lambda p, o, exact=exact: peacock_schedule(p, exact=exact, oracle=o),
            reference_peacock,
        )
    for mix in MIXES:
        if WPE in mix and problem.waypoint is None:
            continue
        yield (
            "combined:" + "+".join(p.name for p in mix), {"properties": mix},
            lambda p, o, mix=mix: combined_greedy_schedule(p, mix, oracle=o),
            lambda p, o, mix=mix: reference_combined(p, o, mix),
        )


def _warm(oracle: SafetyOracle, seed: int) -> None:
    """Pre-learn a nogood table from seeded random round queries."""
    oracle.enable_nogood_learning()
    rng = random.Random(seed)
    nodes = sorted(oracle.problem.required_updates, key=repr)
    for _ in range(min(len(nodes), 24)):
        picked = [node for node in nodes if rng.random() < 0.5]
        cut = rng.randint(0, len(picked))
        oracle.round_is_safe(picked[:cut], picked[cut:])


def _outcome(run, problem, oracle):
    try:
        result = run(problem, oracle)
    except ReproError as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):  # reference: (rounds, names)
        rounds, names = result
        return tuple(frozenset(r) for r in rounds), list(names)
    return result.rounds, result.metadata["round_names"]


def assert_same_as_reference(problem: UpdateProblem, warm_seed: int | None, only=None):
    for label, oracle_kwargs, produce, refer in _variants(problem):
        if only is not None and label not in only:
            continue
        oracles = []
        for _ in range(2):
            oracle = SafetyOracle(problem, **oracle_kwargs)
            if warm_seed is not None:
                _warm(oracle, warm_seed)
            oracles.append(oracle)
        got = _outcome(produce, problem, oracles[0])
        want = _outcome(refer, problem, oracles[1])
        assert got == want, (problem, label, warm_seed)
        visits = oracles[1].stats.applies + oracles[1].stats.nogood_hits
        stats = oracles[0].stats
        assert stats.applies + stats.nogood_hits + stats.watch_skips == visits, label
        assert stats.applies <= oracles[1].stats.applies, label


FAMILIES = [
    reversal_instance(5),
    reversal_instance(24),
    reversal_instance(61),
    sawtooth_instance(30, 4),
    sawtooth_instance(41, 7),
    sawtooth_instance(40, 38),
    crossing_instance(),
    crossing_clash_instance(12),
    crossing_clash_instance(17, block=3),
    waypoint_slalom_instance(3),
    waypoint_slalom_instance(6),
    double_diamond_instance(),
]


@pytest.mark.parametrize("problem", FAMILIES, ids=lambda p: p.name)
@pytest.mark.parametrize("warm_seed", [None, 7], ids=["cold", "nogood-warm"])
def test_hardness_families_match_the_reference(problem, warm_seed):
    assert_same_as_reference(problem, warm_seed)


def _random_problem(index: int) -> UpdateProblem:
    rng = random.Random(f"packing-{index}")
    with_waypoint = index % 2 == 1
    old, new, waypoint = random_update_instance(
        rng.randint(6, 60),
        seed=rng,
        overlap=rng.choice((0.3, 0.6, 0.9, 1.0)),
        with_waypoint=with_waypoint,
    )
    return UpdateProblem(old, new, waypoint=waypoint, name=f"random-{index}")


@pytest.mark.parametrize("chunk", range(10))
def test_random_instances_match_the_reference(chunk):
    """520 seeded instances, n=6..60; every one runs greedy-SLF, both
    Peacock modes and two combined mixes that rotate with the index; odd
    ones are waypointed, every fourth starts from a nogood-warm oracle."""
    for index in range(chunk * 52, (chunk + 1) * 52):
        problem = _random_problem(index)
        if not problem.required_updates:
            continue
        mixes = [m for m in MIXES if problem.waypoint is not None or WPE not in m]
        only = {"greedy-slf", "peacock exact=True", "peacock exact=False"}
        for offset in (0, 5):
            mix = mixes[(index + offset) % len(mixes)]
            only.add("combined:" + "+".join(p.name for p in mix))
        assert_same_as_reference(
            problem, warm_seed=index if index % 4 == 0 else None, only=only
        )


class _ShadowedOracle(SafetyOracle):
    """Checks, at every probe and commit, the candidates the packer passed
    over since the last probe: the naive loop would have probed them in this
    very state, and a fresh shadow oracle must reject each of them."""

    def watch_over(self, order: list) -> None:
        self.order = list(order)
        self.placed: set = set()
        self.cursor = 0  # next position of ``order`` the naive loop would visit
        self.skipped = 0
        self.shadow = SafetyOracle(
            self.problem, self.properties, exact_rlf=self.exact_rlf
        )

    def _check_skipped(self, upto: int) -> None:
        for node in self.order[self.cursor:upto]:
            if node in self.placed:
                continue
            self.skipped += 1
            self.shadow.reset(self.updated_nodes(), self.in_flight_nodes())
            assert not self.shadow.try_apply(node), (self.problem, node)
        self.cursor = upto

    def try_apply_watched(self, node):
        position = self.order.index(node)
        self._check_skipped(position)
        self.cursor = position + 1
        kept, watch = super().try_apply_watched(node)
        if kept:
            self.placed.add(node)
        return kept, watch

    def end_of_round(self) -> None:
        self._check_skipped(len(self.order))
        self.cursor = 0

    def commit_round(self) -> None:
        self.end_of_round()
        super().commit_round()


@pytest.mark.parametrize("chunk", range(4))
def test_every_skipped_candidate_is_rejected_by_a_real_probe(chunk):
    skipped = 0
    problems = FAMILIES if chunk == 0 else [
        _random_problem(1000 + index) for index in range(chunk * 40, chunk * 40 + 40)
    ]
    for index, problem in enumerate(problems):
        mixes = [m for m in MIXES if problem.waypoint is not None or WPE not in m]
        mix = mixes[index % len(mixes)]
        for exact in (True, False):
            oracle = _ShadowedOracle(problem, mix, exact_rlf=exact)
            if index % 3 == 0:
                _warm(oracle, index)
            candidates = sorted(problem.required_updates, key=repr)
            random.Random(index).shuffle(candidates)
            oracle.watch_over(candidates)
            oracle.reset()
            rounds, stuck = pack_rounds(oracle, candidates)
            if stuck:
                oracle.end_of_round()
            assert oracle.placed == set().union(*rounds)
            assert set(stuck) == set(candidates) - oracle.placed
            skipped += oracle.skipped
    assert skipped > 0  # the property was exercised, not vacuous
