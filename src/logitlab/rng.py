"""Deterministic, schedule-independent random substreams.

Every stochastic operation in this package derives its randomness from an
explicit integer seed plus a tuple of stream coordinates (e.g. row index,
manifold index, sample index). Two calls with the same (seed, coords) are
bitwise identical regardless of evaluation order or parallelism.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *coords: int) -> np.random.Generator:
    """Return a generator for the substream identified by (seed, *coords)."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:  # None: OS entropy
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(coords))
    return np.random.Generator(np.random.Philox(ss))
