"""Distributional and comparative statistics over logit matrices.

Covers max-logit and logit-gap distributions, gap-vs-adversarial-accuracy
curves, per-class confidence rank profiles and their divergence, error
prediction from class-mean logits, average overlap of rank lists, and
cosine-similarity neighbor queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import substream
from .store import DatasetBundle, LogitMatrix, class_positions, descending_order, row_blocks


# Largest histogram a bin width may ask for; checked before anything is allocated.
MAX_BINS = 1_000_000


class StatsError(Exception):
    pass


@dataclass(frozen=True)
class DistributionSummary:
    mean: float
    std: float
    skewness: float
    histogram: tuple  # columns (bin_left, bin_right, count), one entry per bin


@dataclass(frozen=True)
class RankProfile:
    sample_ids: np.ndarray
    ranks: np.ndarray


@dataclass(frozen=True)
class OverlapCurve:
    k_values: np.ndarray
    ao_at_k: np.ndarray


def _check_bins(lo: float, hi: float, bin_width: float) -> None:
    """Refuse a histogram of [lo, hi] that would need more than MAX_BINS bins,
    or whose outer bin edges would leave the float range."""
    # Python floats: an overflow gives inf (refused) rather than a warning
    lo, hi = float(lo), float(hi)
    n_bins = (hi - lo) / bin_width + 2
    if not n_bins <= MAX_BINS:
        raise StatsError(
            f"bin_width {bin_width:g} needs about {n_bins:.3g} histogram bins, "
            f"more than {MAX_BINS}"
        )
    # the edges run from floor(lo / w) * w to at most (floor(hi / w) + 1) * w;
    # an infinite or huge w, or huge values over a fine w, overflow them
    span = ((hi / bin_width) // 1 + 1 - (lo / bin_width) // 1) * bin_width
    if not math.isfinite(span):
        raise StatsError(f"bin_width {bin_width:g} puts histogram bin edges beyond float range")


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax, safe against overflow."""
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=axis, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=axis, keepdims=True)


def adjusted_skewness(x: np.ndarray) -> float:
    """Adjusted Fisher-Pearson estimator g1*sqrt(n(n-1))/(n-2); 0 for constant data."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 3:
        raise StatsError(f"skewness needs at least 3 samples, got {n}")
    mu = x.mean()
    m2 = np.mean((x - mu) ** 2)
    if m2 == 0.0:
        return 0.0
    m3 = np.mean((x - mu) ** 3)
    g1 = m3 / m2**1.5
    return float(g1 * np.sqrt(n * (n - 1)) / (n - 2))


def _summarize(x: np.ndarray, bin_width: float) -> DistributionSummary:
    if bin_width <= 0:
        raise StatsError("bin_width must be positive")
    _check_bins(x.min(), x.max(), bin_width)
    lo = np.floor(x.min() / bin_width) * bin_width
    hi = np.ceil(x.max() / bin_width) * bin_width
    if hi <= lo:
        hi = lo + bin_width
    n_bins = int(round((hi - lo) / bin_width))
    edges = lo + bin_width * np.arange(n_bins + 1)
    if n_bins < 1 or not (edges[1:] > edges[:-1]).all():
        raise StatsError(
            f"bin_width {bin_width:g} is below the float spacing of values near {lo:g}: "
            f"the histogram bin edges do not increase"
        )
    counts, _ = np.histogram(x, bins=edges)
    return DistributionSummary(
        mean=float(x.mean()),
        std=float(x.std(ddof=0)),
        skewness=adjusted_skewness(x),
        histogram=(edges[:-1], edges[1:], counts),
    )


def max_logit_distribution(m: LogitMatrix, bin_width: float) -> DistributionSummary:
    """Summary of the per-row maximum logit values."""
    return _summarize(m.values.max(axis=1), bin_width)


def logit_gaps(m: LogitMatrix) -> np.ndarray:
    """Per-row difference between the largest and second-largest logit."""
    part = np.partition(m.values, m.cols - 2, axis=1)
    return part[:, -1] - part[:, -2]


def gap_distribution(m: LogitMatrix, bin_width: float) -> DistributionSummary:
    return _summarize(logit_gaps(m), bin_width)


def gap_accuracy_curve(
    bundle: DatasetBundle, bin_width: float = 0.25, min_count: int = 50
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fraction of attack-surviving samples per logit-gap bin, as the columns
    (gap_low, gap_high, n_samples, adversarial_accuracy).

    Bins with fewer than min_count samples are merged into their right
    neighbor; a trailing underpopulated bin stays merged with the last
    emitted one.
    """
    if bundle.flags is None:
        raise StatsError("gap_accuracy_curve requires robustness flags")
    if bin_width <= 0:
        raise StatsError("bin_width must be positive")
    if min_count < 1:
        raise StatsError(f"min_count must be >= 1, got {min_count}")
    gaps = logit_gaps(bundle.logits)
    _check_bins(0.0, gaps.max(), bin_width)
    flags = bundle.flags.flags.astype(np.float64)
    n_bins = int(np.floor(gaps.max() / bin_width)) + 1
    edges = bin_width * np.arange(n_bins + 1)
    idx = np.minimum((gaps / bin_width).astype(int), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    hits = np.bincount(idx, weights=flags, minlength=n_bins)
    # a merged bin closes at the first populated bin that brings it to
    # min_count samples; an empty bin adds none, so only populated ones are walked
    filled = np.flatnonzero(counts)  # ends with the last bin: the largest gap is there
    n_cum = np.cumsum(counts[filled])
    h_cum = np.cumsum(hits[filled])  # whole numbers, so the differences below are exact
    ends, start = [], 0  # where merged bins close, in filled; samples they hold
    for i, total in enumerate(n_cum.tolist()):
        if total - start >= min_count:
            ends.append(i)
            start = total
    # an underpopulated tail joins the last merged bin; with none closed, one
    # bin holds every sample
    if start < n_cum[-1]:
        ends[-1:] = [filled.size - 1]
    high = edges[filled[ends] + 1]
    n_samples = np.diff(n_cum[ends], prepend=0)
    accuracy = np.diff(h_cum[ends], prepend=0.0) / n_samples
    low = np.concatenate([edges[:1], high[:-1]])
    return low, high, n_samples, accuracy


def confidence_ranks(bundle: DatasetBundle, class_index: int) -> RankProfile:
    """Rank samples of a ground-truth class by predicted-class softmax confidence.

    Rank 0 is the most confident sample; ties break by ascending sample id.
    """
    labels = bundle.labels.labels
    ids = np.flatnonzero(labels == class_index)
    if ids.size == 0:
        raise StatsError(f"class {class_index} has no samples")
    probs = softmax(bundle.logits.values[ids])
    conf = probs.max(axis=1)
    # ids ascend, so ties in confidence keep ascending sample id; int64, as
    # rank_divergence subtracts ranks and an unsigned dtype would wrap
    ranks = np.empty(ids.size, dtype=np.int64)
    ranks[descending_order(conf)] = np.arange(ids.size)
    return RankProfile(sample_ids=ids, ranks=ranks)


def rank_divergence(a: RankProfile, b: RankProfile, threshold_fraction: float) -> float:
    """Fraction of shared samples whose two ranks differ by more than
    threshold_fraction of the maximum possible rank difference."""
    if not (0.0 < threshold_fraction <= 1.0):
        raise StatsError("threshold_fraction must be in (0, 1]")
    if a.sample_ids.shape != b.sample_ids.shape or not np.array_equal(
        a.sample_ids, b.sample_ids
    ):
        raise StatsError("rank profiles cover different sample sets")
    n = a.sample_ids.size
    if n == 1:
        return 0.0
    diff = np.abs(a.ranks - b.ranks)
    return float(np.mean(diff > threshold_fraction * (n - 1)))


def error_prediction_profile(bundle: DatasetBundle) -> np.ndarray:
    """Histogram over k of how often a misclassified sample's predicted class
    sits at 0-based position k within its true class's correct-sample mean
    logit vector (descending, ties by class index).

    Index 0 is the true class itself (the argmax of every sample averaged), so
    it collects no mass; index 1 counts errors that predict the class second
    in that vector. Returns an all-zero profile when there are no errors.
    """
    logits = bundle.logits.values
    labels = bundle.labels.labels
    n, n_classes = logits.shape
    preds = np.argmax(logits, axis=1)
    correct = preds == labels

    mean_vectors = np.empty((n_classes, n_classes))
    for c in range(n_classes):
        mask = correct & (labels == c)
        if (labels == c).any() and not mask.any():
            raise StatsError(f"class {c} has no correctly predicted samples")
        if mask.any():
            mean_vectors[c] = logits[mask].mean(axis=0)
        else:
            mean_vectors[c] = np.nan

    wrong = np.flatnonzero(~correct)
    if wrong.size == 0:
        return np.zeros(n_classes)
    # position[c, j] = 0-based rank of class j in class c's mean vector
    position = class_positions(mean_vectors)
    ranks = position[labels[wrong], preds[wrong]]
    return np.bincount(ranks, minlength=n_classes) / wrong.size


def average_overlap(m1: LogitMatrix, m2: LogitMatrix, k_max: int) -> OverlapCurve:
    """AO@k between the two matrices' per-row class rankings, sample-averaged."""
    return _overlap(m1, m2, k_max)


def _overlap(m1: LogitMatrix, m2: LogitMatrix, k_max: int, rows2=None) -> OverlapCurve:
    """AO@k between m1's rows and m2's rows rows2 (all rows, in order, if None)."""
    if m1.values.shape != m2.values.shape:
        raise StatsError("matrices must have the same shape")
    if not (1 <= k_max <= m1.cols):
        raise StatsError("k_max must be in [1, N_classes]")
    n, c = m1.values.shape
    # a class is in both top-d lists iff max(pos1, pos2) < d, so the overlap
    # counts at every depth d are one cumulative histogram of those maxima
    counts = np.zeros(c, dtype=np.int64)
    for b in row_blocks(n, c):
        other = m2.positions[b if rows2 is None else rows2[b]]
        counts += np.bincount(np.maximum(m1.positions[b], other).ravel(), minlength=c)
    shared = np.cumsum(counts)[:k_max]
    depth = np.arange(1, k_max + 1)
    overlap = shared / (n * depth)  # overlap at depth d, averaged over samples
    return OverlapCurve(k_values=depth, ao_at_k=np.cumsum(overlap) / depth)


def within_class_permuted_overlap(
    bundle1: DatasetBundle, bundle2: DatasetBundle, k_max: int, seed: int
) -> OverlapCurve:
    """AO@k after permuting bundle2's samples uniformly within each class."""
    l1 = bundle1.labels.labels
    l2 = bundle2.labels.labels
    if not np.array_equal(l1, l2):
        raise StatsError("bundles must share labels")
    perm = np.arange(l1.size)
    for c in np.unique(l1):
        ids = np.flatnonzero(l1 == c)
        perm[ids] = substream(seed, int(c)).permutation(ids)
    # ranks are per row: the permuted matrix's row r ranks as bundle2's row perm[r]
    return _overlap(bundle1.logits, bundle2.logits, k_max, rows2=perm)


def cosine_neighbors(m: LogitMatrix, seed_row: int, n: int) -> list[tuple[int, float]]:
    """The n rows most cosine-similar to the seed row, descending, ties by index."""
    if n < 0:
        raise StatsError(f"n must be >= 0, got {n}")
    if not (0 <= seed_row < m.rows):
        raise StatsError(f"seed_row {seed_row} out of range")
    v = m.values[seed_row]
    nv = np.linalg.norm(v)
    if nv == 0:
        raise StatsError("seed row has zero norm")
    norms = m.row_norms
    if (norms == 0).any():
        raise StatsError(f"row {int(np.argmax(norms == 0))} has zero norm")
    sims = m.values @ v / (norms * nv)
    order = descending_order(sims)
    order = order[order != seed_row][:n]
    return [(int(i), float(sims[i])) for i in order]
