"""Manipulated distillation-target generators.

Each transform rewrites every row of a logit matrix while preserving a stated
invariant: fix-k permute shuffles the bottom values, fix-k average flattens
them, correct-fix-1 swaps the predicted and true classes, and hybrid merge
reassigns one matrix's sorted values onto another matrix's class ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import substream
from .store import (
    LabelVector, LogitMatrix, ValidationError, _adopt, row_blocks, validate_bundle,
)

KINDS = ("fix_k_permute", "fix_k_average", "correct_fix_1", "hybrid")


@dataclass(frozen=True)
class ManipulationSpec:
    kind: str  # one of KINDS
    k: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(f"unknown manipulation kind {self.kind!r}")
        if self.kind.startswith("fix_k") and not _at_least(self.k, 1):
            raise ValidationError(f"fix-k manipulations require an integer k >= 1, got {self.k!r}")
        if (self.kind == "fix_k_permute" or self.seed is not None) and not _at_least(self.seed, 0):
            raise ValidationError(f"seed must be an integer >= 0, got {self.seed!r}")


def _at_least(x, low: int) -> bool:
    return isinstance(x, (int, np.integer)) and x >= low


def _rewrite_tail(m: LogitMatrix, k: int, rewrite) -> LogitMatrix:
    """m with the values below each row's top k rewritten in place by
    rewrite(b, rest), one block b of rows at a time; rest holds the block's
    bottom values in column order, one row per row of m."""
    if k == m.cols:
        return m
    if not (1 <= k <= m.cols):
        raise ValidationError(f"k must be in [1, {m.cols}], got {k}")
    out = m.values.copy()
    for b in row_blocks(m.rows, m.cols):
        block, bottom = out[b], m.positions[b] >= k
        rewrite(b, rest := block[bottom].reshape(-1, m.cols - k))
        block[bottom] = rest.ravel()
    return _adopt(out)


def fix_k_permute(m: LogitMatrix, k: int, seed: int) -> LogitMatrix:
    """Keep each row's top-k values in place; permute the rest uniformly.
    Ties keep the lower class index in the top k."""
    ManipulationSpec("fix_k_permute", k, seed)

    def permute(b: slice, rest: np.ndarray) -> None:
        # row r's shuffle depends only on (seed, r), as the rng contract fixes
        for r, row in zip(range(b.start, b.stop), rest):
            substream(seed, r).shuffle(row)

    return _rewrite_tail(m, k, permute)


def fix_k_average(m: LogitMatrix, k: int) -> LogitMatrix:
    """Keep each row's top-k values; set the rest to their arithmetic mean.
    Ties keep the lower class index in the top k."""
    ManipulationSpec("fix_k_average", k)
    return _rewrite_tail(m, k, lambda _, rest: np.copyto(rest, rest.mean(axis=1, keepdims=True)))


def correct_fix_1(m: LogitMatrix, labels: LabelVector) -> LogitMatrix:
    """Swap each misclassified row's argmax and true-class values."""
    validate_bundle(m, labels)
    out = m.values.copy()
    preds = np.argmax(out, axis=1)
    rows = np.flatnonzero(preds != labels.labels)
    p, t = preds[rows], labels.labels[rows]
    out[rows, p], out[rows, t] = out[rows, t], out[rows, p]
    return _adopt(out)


def hybrid_merge(value_source: LogitMatrix, index_source: LogitMatrix) -> LogitMatrix:
    """Assign value_source's sorted values to index_source's class ranking.

    Per row, the r-th largest value lands on the class that holds rank r in
    index_source. The output row has index_source's rank order and
    value_source's value multiset.
    """
    if value_source.values.shape != index_source.values.shape:
        raise ValidationError("hybrid_merge requires matrices of the same shape")
    out = np.empty(value_source.values.shape, dtype=np.float64)
    for b in row_blocks(*out.shape):
        sorted_desc = np.sort(value_source.values[b], axis=1)[:, ::-1]
        out[b] = np.take_along_axis(sorted_desc, index_source.positions[b], axis=1)
    return _adopt(out)


def apply_manipulation(
    spec: ManipulationSpec, m: LogitMatrix,
    labels: LabelVector | None = None, index_source: LogitMatrix | None = None,
) -> LogitMatrix:
    if spec.kind == "fix_k_permute":
        return fix_k_permute(m, spec.k, spec.seed)
    if spec.kind == "fix_k_average":
        return fix_k_average(m, spec.k)
    if spec.kind == "correct_fix_1":
        if labels is None:
            raise ValidationError("correct_fix_1 requires labels")
        return correct_fix_1(m, labels)
    if index_source is None:
        raise ValidationError("hybrid requires an index-source matrix")
    return hybrid_merge(m, index_source)
