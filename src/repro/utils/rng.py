"""Deterministic random-number-generator management.

Every stochastic component in the library (catalog generation, exposure
generation, the Year Event Table simulator, workload presets) accepts either
an integer seed or a :class:`numpy.random.Generator`.  Centralising the
seed-handling logic here guarantees that

* the same seed always produces the same workload, independent of the order
  in which subsystems consume randomness, and
* parallel workers can be handed statistically independent streams derived
  from a single user-facing seed (via :func:`spawn_rngs`), which is the
  standard ``SeedSequence.spawn`` approach recommended for HPC Monte-Carlo
  codes.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

RNGLike = Union[int, np.random.Generator, np.random.SeedSequence, None]

__all__ = ["RNGLike", "derive_rng", "spawn_rngs", "SeedSequenceFactory"]


def derive_rng(seed: RNGLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from any seed-like input.

    Parameters
    ----------
    seed:
        ``None`` (non-deterministic), an ``int`` seed, an existing
        ``Generator`` (returned unchanged so callers can share a stream), or a
        ``SeedSequence``.

    Examples
    --------
    >>> rng = derive_rng(42)
    >>> rng2 = derive_rng(42)
    >>> float(rng.random()) == float(rng2.random())
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return np.random.default_rng(int(seed))
    raise TypeError(
        "seed must be None, an int, a numpy Generator or a SeedSequence; "
        f"got {type(seed).__name__}"
    )


def spawn_rngs(seed: RNGLike, count: int, start: int = 0) -> list[np.random.Generator]:
    """Spawn ``count`` statistically independent generators from one seed.

    Used to hand each parallel worker process — and
    each replication of a secondary-uncertainty analysis — its own stream so
    that results do not depend on the number of workers or on how the
    replications are blocked.

    The children are *prefix-stable*: child ``i`` depends only on the root
    seed and on ``i``, never on ``count`` or ``start``.  Hence
    ``spawn_rngs(s, 8)[3]`` and ``spawn_rngs(s, 2, start=3)[0]`` draw
    identical streams, which is what lets the streamed replication path
    sample block by block and still reproduce the all-at-once draws exactly.

    Parameters
    ----------
    seed:
        Root seed.  If a ``Generator`` is passed its underlying bit generator
        seed sequence is *not* recoverable, so a fresh ``SeedSequence`` is
        created from its output — still deterministic for a seeded generator
        (but note the generator is advanced, so prefix stability across
        *calls* only holds for int and ``SeedSequence`` seeds).
    count:
        Number of independent child generators to create.
    start:
        Index of the first child stream to return; the result covers children
        ``start .. start + count - 1`` of the root seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif seed is None:
        root = np.random.SeedSequence()
    else:
        root = np.random.SeedSequence(int(seed))
    # Children are built directly from the root's entropy instead of via
    # ``root.spawn`` so that (a) a caller-owned SeedSequence's spawn counter
    # is left untouched and (b) child ``i`` never depends on how many
    # children earlier calls asked for — the prefix-stability guarantee.
    spawn_key = tuple(root.spawn_key)
    children = [
        np.random.SeedSequence(
            entropy=root.entropy,
            spawn_key=spawn_key + (start + i,),
            pool_size=root.pool_size,
        )
        for i in range(count)
    ]
    return [np.random.default_rng(child) for child in children]


class SeedSequenceFactory:
    """Deterministic factory of named random streams.

    The factory derives one child stream per *name*, so a component asking for
    ``factory.rng("yet")`` always receives the same stream regardless of how
    many other components asked before it.  This removes inter-component
    coupling of random state, which is essential for reproducible workload
    generation in tests and benchmarks.

    Examples
    --------
    >>> f1, f2 = SeedSequenceFactory(7), SeedSequenceFactory(7)
    >>> float(f1.rng("yet").random()) == float(f2.rng("yet").random())
    True
    >>> float(f1.rng("elt").random()) == float(f1.rng("yet").random())
    False
    """

    def __init__(self, seed: RNGLike = None) -> None:
        if isinstance(seed, np.random.SeedSequence):
            self._root = seed
        elif isinstance(seed, np.random.Generator):
            self._root = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
        elif seed is None:
            self._root = np.random.SeedSequence()
        elif isinstance(seed, (int, np.integer)):
            self._root = np.random.SeedSequence(int(seed))
        else:
            raise TypeError(f"unsupported seed type: {type(seed).__name__}")
        self._entropy = self._root.entropy

    @property
    def entropy(self):
        """Root entropy of the factory (for logging / provenance)."""
        return self._entropy

    @staticmethod
    def _name_key(name: str) -> int:
        """Map a stream name to a stable 64-bit integer key."""
        # FNV-1a over the UTF-8 bytes of the name: stable across processes
        # and Python versions (unlike the built-in ``hash``).
        h = 0xCBF29CE484222325
        for byte in name.encode("utf-8"):
            h ^= byte
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h

    def seed_sequence(self, name: str) -> np.random.SeedSequence:
        """Return the child :class:`~numpy.random.SeedSequence` for ``name``."""
        key = self._name_key(name)
        return np.random.SeedSequence(
            entropy=self._entropy, spawn_key=(key & 0xFFFFFFFF, key >> 32)
        )

    def rng(self, name: str) -> np.random.Generator:
        """Return a fresh generator for the named stream."""
        return np.random.default_rng(self.seed_sequence(name))

    def rngs(self, names: Iterable[str]) -> dict[str, np.random.Generator]:
        """Return a dictionary of generators, one per name."""
        return {name: self.rng(name) for name in names}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SeedSequenceFactory(entropy={self._entropy!r})"
