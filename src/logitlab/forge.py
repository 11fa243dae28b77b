"""Manipulated distillation-target generators.

Each transform rewrites a logit matrix row by row while preserving a stated
invariant: fix-k permute shuffles the bottom values, fix-k average flattens
them, correct-fix-1 swaps the predicted and true classes, and hybrid merge
reassigns one matrix's sorted values onto another matrix's class ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import substream
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


def _top_k_mask(row: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest entries; ties keep the lower class index."""
    n = row.size
    # descending value, ascending index on ties
    order = np.lexsort((np.arange(n), -row))
    mask = np.zeros(n, dtype=bool)
    mask[order[:k]] = True
    return mask


def fix_k_permute(m: LogitMatrix, k: int, seed: int) -> LogitMatrix:
    """Keep each row's top-k values in place; permute the rest uniformly."""
    if not (1 <= k <= m.cols):
        raise ValidationError(f"k must be in [1, {m.cols}], got {k}")
    out = m.values.copy()
    if k == m.cols:
        return LogitMatrix(out)
    for r in range(m.rows):
        mask = _top_k_mask(out[r], k)
        ids = np.flatnonzero(~mask)
        rng = substream(seed, r)
        out[r, ids] = out[r, ids[rng.permutation(ids.size)]]
    return LogitMatrix(out)


def fix_k_average(m: LogitMatrix, k: int) -> LogitMatrix:
    """Keep each row's top-k values; set the rest to their arithmetic mean."""
    if not (1 <= k <= m.cols):
        raise ValidationError(f"k must be in [1, {m.cols}], got {k}")
    out = m.values.copy()
    if k == m.cols:
        return LogitMatrix(out)
    for r in range(m.rows):
        mask = _top_k_mask(out[r], k)
        out[r, ~mask] = out[r, ~mask].mean()
    return LogitMatrix(out)


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
    n, c = value_source.values.shape
    cols = np.arange(c)
    out = np.empty((n, c), dtype=np.float64)
    for r in range(n):
        vals = np.sort(value_source.values[r])[::-1]
        rank_order = np.lexsort((cols, -index_source.values[r]))
        out[r, rank_order] = vals
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
