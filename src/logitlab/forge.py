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
from .store import LabelVector, LogitMatrix, ValidationError, _adopt, row_blocks


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


def _check_k(m: LogitMatrix, k: int) -> None:
    if not (1 <= k <= m.cols):
        raise ValidationError(f"k must be in [1, {m.cols}], got {k}")


def fix_k_permute(m: LogitMatrix, k: int, seed: int) -> LogitMatrix:
    """Keep each row's top-k values in place; permute the rest uniformly.
    Ties keep the lower class index in the top k."""
    if k == m.cols:
        return m
    _check_k(m, k)
    out = m.values.copy()
    width = m.cols - k
    for b in row_blocks(m.rows, m.cols):
        block, bottom = out[b], m.positions[b] >= k
        # row r's permutation depends only on (seed, r), as the rng contract fixes
        perms = np.empty((b.stop - b.start, width), dtype=np.intp)
        for i, r in enumerate(range(b.start, b.stop)):
            perms[i] = substream(seed, r).permutation(width)
        rest = block[bottom].reshape(-1, width)  # in column order
        block[bottom] = np.take_along_axis(rest, perms, axis=1).ravel()
    return _adopt(out)


def fix_k_average(m: LogitMatrix, k: int) -> LogitMatrix:
    """Keep each row's top-k values; set the rest to their arithmetic mean.
    Ties keep the lower class index in the top k."""
    if k == m.cols:
        return m
    _check_k(m, k)
    out = m.values.copy()
    for b in row_blocks(m.rows, m.cols):
        block, bottom = out[b], m.positions[b] >= k
        rest = block[bottom].reshape(-1, m.cols - k)
        np.copyto(block, rest.mean(axis=1)[:, None], where=bottom)
    return _adopt(out)


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
