"""Global randomness control.

Every stochastic component in the library (initializers, dropout, data
generators, compressors) draws from a generator obtained here, so a single
:func:`set_seed` call makes an entire run reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["set_seed", "get_rng", "spawn_rng", "derive_seed"]

_GLOBAL_RNG = np.random.default_rng(0)


def set_seed(seed: int) -> None:
    """Re-seed the library-wide generator."""
    global _GLOBAL_RNG
    _GLOBAL_RNG = np.random.default_rng(seed)


def get_rng() -> np.random.Generator:
    """Return the library-wide generator."""
    return _GLOBAL_RNG


def spawn_rng() -> np.random.Generator:
    """Return an independent child generator (stable under set_seed)."""
    return np.random.default_rng(_GLOBAL_RNG.integers(0, 2**63 - 1))


def derive_seed(seed: int, kind: int, index: int) -> int:
    """Counter-keyed sub-seed for stream ``index`` of ``kind``.

    Each caller owns a stable set of kind ids; renumbering one changes every
    run seeded through it.  Spaced so nearby seeds, kinds and indices never
    share a stream.
    """
    return (seed * 1_000_003 + kind * 65_537 + index) % 2**63
