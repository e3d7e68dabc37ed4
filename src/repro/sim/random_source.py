"""Named, reproducible random streams.

Every stochastic component (each channel, each switch's install latency,
the traffic injector) draws from its *own* stream derived from a master
seed and a stable name.  Changing one component's consumption pattern then
never perturbs the randomness any other component sees -- runs stay
comparable across experiments.

A stream is seeded at its first use, so a component that never draws
(a channel under a constant latency and no loss) costs no seeding.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit seed derived from a master seed and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class _Unseeded(random.Random):
    """A stream before its first use.  Reading any attribute (every draw
    does) seeds it with :func:`derive_seed` and turns it into the
    :class:`random.Random` it would have been had it been seeded eagerly."""

    def __init__(self, master_seed: int, name: str) -> None:  # seeds nothing
        self._origin = (master_seed, name)

    def __getattribute__(self, attribute: str):
        master_seed, name = object.__getattribute__(self, "__dict__").pop("_origin")
        self.__class__ = random.Random
        self.seed(derive_seed(master_seed, name))
        return getattr(self, attribute)


class RandomStreams:
    """Factory of named :class:`random.Random` streams.

    >>> streams = RandomStreams(7)
    >>> a1 = streams.stream("chan-1").random()
    >>> a2 = RandomStreams(7).stream("chan-1").random()
    >>> a1 == a2
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name`` (created on first use, cached after;
        seeded when first drawn from)."""
        if name not in self._streams:
            self._streams[name] = _Unseeded(self.master_seed, name)
        return self._streams[name]

    def fork(self, name: str) -> "RandomStreams":
        """A child factory whose streams are independent of the parent's."""
        return RandomStreams(derive_seed(self.master_seed, f"fork:{name}"))
