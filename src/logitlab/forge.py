"""Manipulated distillation-target generators.

Each transform rewrites every row of a logit matrix while preserving a stated
invariant: fix-k permute shuffles the bottom values, fix-k average flattens
them, correct-fix-1 swaps the predicted and true classes, and hybrid merge
reassigns one matrix's sorted values onto another matrix's class ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import substream
from .stats import descending_order
from .store import LabelVector, LogitMatrix, ValidationError


@dataclass(frozen=True)
class ManipulationSpec:
    kind: str  # fix_k_permute | fix_k_average | correct_fix_1 | hybrid
    k: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        kinds = ("fix_k_permute", "fix_k_average", "correct_fix_1", "hybrid")
        if self.kind not in kinds:
            raise ValidationError(f"unknown manipulation kind {self.kind!r}")
        if self.kind.startswith("fix_k") and (self.k is None or self.k < 1):
            raise ValidationError("fix-k manipulations require k >= 1")
        if self.kind == "fix_k_permute" and self.seed is None:
            raise ValidationError("fix_k_permute requires a seed")


def _bottom(m: LogitMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Mask of each row's entries outside its top k (ties keep the lower class
    index in the top k), and those entries as an (n, c-k) table in column order."""
    if not (1 <= k <= m.cols):
        raise ValidationError(f"k must be in [1, {m.cols}], got {k}")
    bottom = np.ones(m.values.shape, dtype=bool)
    np.put_along_axis(bottom, descending_order(m.values)[:, :k], False, axis=1)
    return bottom, m.values[bottom].reshape(m.rows, m.cols - k)


def fix_k_permute(m: LogitMatrix, k: int, seed: int) -> LogitMatrix:
    """Keep each row's top-k values in place; permute the rest uniformly."""
    if k == m.cols:
        return m
    bottom, rest = _bottom(m, k)
    perms = np.empty(rest.shape, dtype=np.intp)
    # row r's permutation depends only on (seed, r), as the rng contract fixes
    for r in range(m.rows):
        perms[r] = substream(seed, r).permutation(rest.shape[1])
    out = m.values.copy()
    out[bottom] = np.take_along_axis(rest, perms, axis=1).ravel()
    return LogitMatrix(out)


def fix_k_average(m: LogitMatrix, k: int) -> LogitMatrix:
    """Keep each row's top-k values; set the rest to their arithmetic mean."""
    if k == m.cols:
        return m
    bottom, rest = _bottom(m, k)
    return LogitMatrix(np.where(bottom, rest.mean(axis=1)[:, None], m.values))


def correct_fix_1(m: LogitMatrix, labels: LabelVector) -> LogitMatrix:
    """Swap each misclassified row's argmax and true-class values."""
    if len(labels) != m.rows:
        raise ValidationError(
            f"labels length mismatch: {len(labels)} labels for {m.rows} rows"
        )
    if labels.labels.size and labels.labels.max() >= m.cols:
        i = int(np.argmax(labels.labels >= m.cols))
        raise ValidationError(f"label out of range at index {i}")
    out = m.values.copy()
    preds = np.argmax(out, axis=1)
    for r in np.flatnonzero(preds != labels.labels):
        p, t = preds[r], labels.labels[r]
        out[r, p], out[r, t] = out[r, t], out[r, p]
    return LogitMatrix(out)


def hybrid_merge(value_source: LogitMatrix, index_source: LogitMatrix) -> LogitMatrix:
    """Assign value_source's sorted values to index_source's class ranking.

    Per row, the r-th largest value lands on the class that holds rank r in
    index_source. The output row has index_source's rank order and
    value_source's value multiset.
    """
    if value_source.values.shape != index_source.values.shape:
        raise ValidationError("hybrid_merge requires matrices of the same shape")
    rank_order = descending_order(index_source.values)
    out = np.empty(rank_order.shape, dtype=np.float64)
    np.put_along_axis(out, rank_order, np.sort(value_source.values, axis=1)[:, ::-1], axis=1)
    return LogitMatrix(out)


def apply_manipulation(
    spec: ManipulationSpec,
    m: LogitMatrix,
    labels: Optional[LabelVector] = None,
    index_source: Optional[LogitMatrix] = None,
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
