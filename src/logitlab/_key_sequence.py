"""The seed sequence through which `rng.substream` hands Philox its key.

It lives apart from `rng` because subclassing numpy's ISeedSequence imports
numpy.random, which `import logitlab.cli` does not otherwise load; `rng`
imports this module on its first draw.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class KeySequence(ISeedSequence):
    """A seed sequence that knows only one Philox key: it cannot spawn."""

    __slots__ = ("key",)

    def __init__(self, key: tuple[int, int]):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds a Philox key only, asked for ({n_words}, {dtype})")
        return np.array(self.key, dtype=np.uint64)
