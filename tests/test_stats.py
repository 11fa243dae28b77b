import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitlab import stats
from logitlab.store import (
    DatasetBundle,
    LabelVector,
    LogitMatrix,
    RobustFlags,
    class_positions,
    validate_bundle,
)


def _bundle(values, labels, flags=None):
    return validate_bundle(
        LogitMatrix(values),
        LabelVector(labels),
        RobustFlags(flags) if flags is not None else None,
    )


# ---------- max-logit distribution ----------

def test_constant_rows_zero_skewness():
    m = LogitMatrix([[5.0, 0.0, 0.0]] * 4)
    summ = stats.max_logit_distribution(m, 0.5)
    assert summ.mean == 5.0
    assert summ.std == 0.0
    assert summ.skewness == 0.0


def test_positive_skew_forced():
    m = LogitMatrix([[0.0, -1.0], [0.0, -1.0], [10.0, -1.0]])
    summ = stats.max_logit_distribution(m, 1.0)
    assert summ.mean == pytest.approx(10.0 / 3.0)
    assert summ.skewness > 0


def test_two_pass_moment_oracle():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((100, 7)) * 2.0 + 1.0
    m = LogitMatrix(vals)
    summ = stats.max_logit_distribution(m, 0.25)
    x = vals.max(axis=1)
    n = x.size
    mu = x.sum() / n
    m2 = ((x - mu) ** 2).sum() / n
    m3 = ((x - mu) ** 3).sum() / n
    g1 = m3 / m2**1.5
    adj = g1 * np.sqrt(n * (n - 1)) / (n - 2)
    assert summ.mean == pytest.approx(mu, abs=1e-12)
    assert summ.std == pytest.approx(np.sqrt(m2), abs=1e-12)
    assert summ.skewness == pytest.approx(adj, abs=1e-12)
    left, right, counts = summ.histogram
    assert counts.sum() == n
    # bins contiguous ascending
    np.testing.assert_allclose(right[:-1], left[1:])
    assert (left < right).all()


def test_skewness_needs_three_rows():
    with pytest.raises(stats.StatsError):
        stats.max_logit_distribution(LogitMatrix([[1.0, 2.0]] * 2), 0.5)


# ---------- logit gaps ----------

def test_gap_examples():
    m = LogitMatrix([[3.0, 1.0, 0.5], [2.0, 2.0, 2.0]])
    assert stats.logit_gaps(m).tolist() == [2.0, 0.0]


def test_gap_sort_oracle():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((50, 10))
    gaps = stats.logit_gaps(LogitMatrix(vals))
    srt = np.sort(vals, axis=1)
    assert np.array_equal(gaps, srt[:, -1] - srt[:, -2])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
            min_size=2, max_size=8,
        ),
        min_size=1, max_size=10,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_gaps_nonnegative(rows):
    gaps = stats.logit_gaps(LogitMatrix(np.array(rows)))
    assert (gaps >= 0).all()


# ---------- gap accuracy curve ----------

def test_all_flags_true():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((200, 5))
    b = _bundle(vals, np.zeros(200, dtype=int), np.ones(200, dtype=bool))
    _, _, n, acc = stats.gap_accuracy_curve(b, 0.25, 50)
    assert n.size
    assert (n >= 50).all()
    assert (acc == 1.0).all()


def test_step_rule_curve():
    rng = np.random.default_rng(1)
    base = rng.uniform(0, 2, size=400)
    vals = np.zeros((400, 3))
    vals[:, 0] = base
    flags = base > 1.0
    b = _bundle(vals, np.zeros(400, dtype=int), flags)
    for lo, hi, _, acc in zip(*stats.gap_accuracy_curve(b, 0.25, 10)):
        if hi <= 1.0:
            assert acc == 0.0
        elif lo >= 1.0:
            assert acc == 1.0


def test_hand_binning_oracle():
    gaps_src = np.array([0.1, 0.1, 0.3, 0.6, 0.6, 1.1])
    vals = np.zeros((6, 2))
    vals[:, 0] = gaps_src
    flags = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
    b = _bundle(vals, np.zeros(6, dtype=int), flags)
    low, high, n, acc = stats.gap_accuracy_curve(b, 0.5, 2)
    # bins of width 0.5: [0,.5)->3 samples 2 hits; [.5,1)->2 samples 1 hit; [1,1.5)->1 sample merged left
    assert low.tolist() == [0.0, 0.5]
    assert high[0] == 0.5
    assert n.tolist() == [3, 3]  # trailing underpopulated bin merged
    assert acc == pytest.approx([2 / 3, 2 / 3])


def _ref_gap_accuracy_curve(gaps, flags, bin_width, min_count):
    """The rows of the gap-accuracy curve, from a walk over every bin."""
    n_bins = int(np.floor(gaps.max() / bin_width)) + 1
    edges = bin_width * np.arange(n_bins + 1)
    idx = np.minimum((gaps / bin_width).astype(int), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    hits = np.bincount(idx, weights=flags.astype(np.float64), minlength=n_bins)
    merged = []  # (low, high, samples, hits)
    acc_n, acc_h, lo = 0, 0.0, edges[0]
    for b in range(n_bins):
        acc_n += int(counts[b])
        acc_h += float(hits[b])
        if acc_n >= min_count:
            merged.append((float(lo), float(edges[b + 1]), acc_n, acc_h))
            acc_n, acc_h, lo = 0, 0.0, edges[b + 1]
    if acc_n > 0:
        if merged:
            lo, _, pn, ph = merged.pop()
            acc_n, acc_h = pn + acc_n, ph + acc_h
        merged.append((float(lo), float(edges[-1]), acc_n, acc_h))
    return [(lo, hi, n, h / n) for lo, hi, n, h in merged]


def test_trailing_bin_merges_through_the_last_accuracy():
    # 49 gaps with one survivor close a bin, and one more gap trails; the merged
    # bin's accuracy is its hits over its samples, where reweighting the closed
    # bin's 1/49 by 49 would round below 1
    vals = np.zeros((50, 2))
    vals[:49, 0], vals[49, 0] = 0.1, 0.7
    b = _bundle(vals, np.zeros(50, dtype=int), np.arange(50) == 0)
    _, high, n, acc = stats.gap_accuracy_curve(b, 0.5, 49)
    assert high.tolist() == [1.0] and n.tolist() == [50]
    assert acc.tolist() == [1 / 50] != [(1 / 49 * 49) / 50]


def test_each_bin_accuracy_is_its_hits_over_its_samples():
    # one rounding per bin, the last merged one included (seed 240 has a trailing
    # bin whose reweighted accuracy was 1 ulp off); a width of 0.25 keeps edges exact
    for seed in range(250):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        vals = rng.standard_normal((n, 3)) * 2
        flags = rng.random(n) < rng.random()
        b = _bundle(vals, np.zeros(n, dtype=int), flags)
        curve = stats.gap_accuracy_curve(b, 0.25, int(rng.integers(1, 60)))
        gaps = stats.logit_gaps(b.logits)
        for lo, hi, count, acc in zip(*curve):
            inside = (gaps >= lo) & (gaps < hi)
            assert count == inside.sum()
            assert acc == flags[inside].sum() / count


@pytest.mark.parametrize("bin_width", [0.01, 0.1, 0.25, 1.0, 10.0])
@pytest.mark.parametrize("min_count", [1, 2, 7, 50, 400])
def test_curve_matches_a_walk_over_every_bin(bin_width, min_count):
    # rounded gaps leave most fine bins empty and make ties; the same rows, bit for bit
    rng = np.random.default_rng(11)
    vals = np.round(rng.standard_normal((300, 4)) * 2, 1)
    flags = rng.random(300) > 0.4
    b = _bundle(vals, np.zeros(300, dtype=int), flags)
    got = stats.gap_accuracy_curve(b, bin_width, min_count)
    assert [c.dtype.kind for c in got] == ["f", "f", "i", "f"]
    want = _ref_gap_accuracy_curve(stats.logit_gaps(b.logits), flags, bin_width, min_count)
    assert list(zip(*(c.tolist() for c in got))) == want  # float == is bit-exact here


@pytest.mark.parametrize("bin_width", [1e-13, 1e-310, float("nan")])
def test_bin_count_is_capped(bin_width):
    b = _bundle([[0.0, 2.0], [3.0, 0.5], [1.0, 1.0]], [1, 0, 0], [True, False, True])
    with pytest.raises(stats.StatsError, match="histogram bins"):
        stats.gap_accuracy_curve(b, bin_width)
    with pytest.raises(stats.StatsError, match="histogram bins"):
        stats.max_logit_distribution(b.logits, bin_width)


@pytest.mark.parametrize("values,bin_width", [
    ([[-3.0, -5.0], [4.0, 1.0], [2.0, 2.5]], float("inf")),
    ([[-3.0, -5.0], [4.0, 1.0], [2.0, 2.5]], 1e308),  # edges -1e308 and 1e308
    ([[1e300, 0.0], [1e300, 1.0], [1e300, 2.0]], 1e-10),
])
def test_bin_edges_beyond_float_range_are_refused(values, bin_width):
    with pytest.raises(stats.StatsError, match="beyond float range"):
        stats.max_logit_distribution(LogitMatrix(values), bin_width)


@pytest.mark.parametrize("max_logits", [
    [1e17 + 2] * 4,  # one value: lo + 1 rounds back to lo, so no bin at all
    np.linspace(1e17, 1e17 + 64, 4),  # 64 bins of width 1, most of them zero-width
])
def test_bin_width_below_float_spacing_is_refused(max_logits):
    values = np.column_stack([max_logits, np.zeros(4)])
    with pytest.raises(stats.StatsError, match="below the float spacing"):
        stats.max_logit_distribution(LogitMatrix(values), 1.0)
    assert stats.max_logit_distribution(LogitMatrix(values), 64.0).histogram[2].sum() == 4


@pytest.mark.parametrize("min_count", [0, -1])
def test_gap_accuracy_needs_a_positive_min_count(min_count):
    b = _bundle([[0.0, 2.0], [3.0, 0.5], [1.0, 1.0]], [1, 0, 0], [True, False, True])
    with pytest.raises(stats.StatsError, match="min_count must be >= 1"):
        stats.gap_accuracy_curve(b, 0.25, min_count)


def test_missing_flags_error():
    b = _bundle(np.zeros((3, 2)), [0, 0, 0])
    with pytest.raises(stats.StatsError):
        stats.gap_accuracy_curve(b)


# ---------- confidence ranks ----------

def test_rank_single_and_pair():
    b = _bundle([[2.0, 0.0]], [0])
    prof = stats.confidence_ranks(b, 0)
    assert prof.ranks.tolist() == [0]
    b = _bundle([[0.5, 0.0], [3.0, 0.0]], [0, 0])
    prof = stats.confidence_ranks(b, 0)
    assert prof.ranks.tolist() == [1, 0]


def test_rank_sort_oracle_and_shift_invariance():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((20, 6))
    labels = np.zeros(20, dtype=int)
    b = _bundle(vals, labels)
    prof = stats.confidence_ranks(b, 0)
    conf = stats.softmax(vals).max(axis=1)
    order = sorted(range(20), key=lambda i: (-conf[i], i))
    expect = np.empty(20, dtype=int)
    expect[order] = np.arange(20)
    assert prof.ranks.tolist() == expect.tolist()
    shifted = _bundle(vals + rng.standard_normal((20, 1)), labels)
    assert stats.confidence_ranks(shifted, 0).ranks.tolist() == prof.ranks.tolist()


def test_rank_ties_match_class_positions():
    # repeated rows tie in confidence: tied samples rank by ascending sample
    # id, as class_positions ranks a row's tied columns by ascending column
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((4, 5))[rng.integers(0, 4, 40)]  # four distinct rows
    labels = rng.integers(0, 2, 40)
    prof = stats.confidence_ranks(_bundle(vals, labels), 1)
    conf = stats.softmax(vals[labels == 1]).max(axis=1)
    assert len(set(conf)) < conf.size and prof.ranks.dtype == np.int64
    assert prof.ranks.tolist() == class_positions(conf[None])[0].tolist()


def test_empty_class_error():
    b = _bundle([[1.0, 0.0]], [0])
    with pytest.raises(stats.StatsError):
        stats.confidence_ranks(b, 1)


# ---------- rank divergence ----------

def test_rank_divergence_identity_and_reversal():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((11, 4))
    b = _bundle(vals, np.zeros(11, dtype=int))
    a = stats.confidence_ranks(b, 0)
    assert stats.rank_divergence(a, a, 0.5) == 0.0
    rev = stats.RankProfile(a.sample_ids, (10 - a.ranks))
    # |i - (10 - i)| > 5 for i in {0,1,2,8,9,10}
    assert stats.rank_divergence(a, rev, 0.5) == pytest.approx(6 / 11)


def test_rank_divergence_mismatch():
    b1 = _bundle(np.zeros((2, 2)) + [[1, 0]], [0, 0])
    b2 = _bundle(np.zeros((3, 2)) + [[1, 0]], [0, 0, 0])
    a = stats.confidence_ranks(b1, 0)
    b = stats.confidence_ranks(b2, 0)
    with pytest.raises(stats.StatsError):
        stats.rank_divergence(a, b, 0.5)
    with pytest.raises(stats.StatsError):
        stats.rank_divergence(a, a, 0.0)


# ---------- error prediction profile ----------

def test_error_profile_all_correct_is_all_zero_without_warning():
    # tier-1 turns warnings into errors, so a warning would fail this call
    b = _bundle([[5.0, 0.0], [0.0, 5.0], [5.0, 0.0]], [0, 1, 0])
    prof = stats.error_prediction_profile(b)
    assert prof.tolist() == [0.0, 0.0]


def test_error_profile_constructed_k2():
    # class 0 mean vector ranks class 1 second; the error predicts class 1
    vals = [
        [5.0, 3.0, 0.0],   # correct, class 0
        [5.0, 3.0, 0.0],   # correct, class 0
        [1.0, 6.0, 0.0],   # error: true 0, predicted 1
        [0.0, 0.0, 9.0],   # correct, class 2
    ]
    b = _bundle(vals, [0, 0, 0, 2])
    prof = stats.error_prediction_profile(b)
    assert prof.tolist() == [0.0, 1.0, 0.0]
    assert prof.sum() == pytest.approx(1.0)


def test_error_profile_recount_oracle():
    rng = np.random.default_rng(11)
    n, c = 100, 3
    vals = rng.standard_normal((n, c))
    labels = rng.integers(0, c, size=n)
    preds = vals.argmax(axis=1)
    # ensure every class has a correct sample
    for cls in range(c):
        i = np.flatnonzero(labels == cls)[0]
        vals[i] = 0.0
        vals[i, cls] = 5.0
    preds = vals.argmax(axis=1)
    b = _bundle(vals, labels)
    prof = stats.error_prediction_profile(b)
    # brute-force recount
    expect = np.zeros(c)
    wrong = [i for i in range(n) if preds[i] != labels[i]]
    for i in wrong:
        mv = vals[(preds == labels) & (labels == labels[i])].mean(axis=0)
        order = sorted(range(c), key=lambda j: (-mv[j], j))
        expect[order.index(preds[i])] += 1
    expect /= len(wrong)
    assert np.allclose(prof, expect, atol=1e-12)
    assert prof[0] == 0.0  # errors never predict the true class


def test_error_profile_no_correct_in_class():
    b = _bundle([[0.0, 5.0], [0.0, 5.0]], [0, 0])
    with pytest.raises(stats.StatsError, match="class 0"):
        stats.error_prediction_profile(b)


# ---------- average overlap ----------

def test_overlap_identity():
    rng = np.random.default_rng(4)
    m = LogitMatrix(rng.standard_normal((10, 5)))
    curve = stats.average_overlap(m, m, 5)
    assert np.allclose(curve.ao_at_k, 1.0)


def test_overlap_hand_example():
    m1 = LogitMatrix([[3.0, 2.0, 1.0]])   # ranking [0,1,2]
    m2 = LogitMatrix([[2.0, 3.0, 1.0]])   # ranking [1,0,2]
    curve = stats.average_overlap(m1, m2, 3)
    assert curve.ao_at_k[0] == pytest.approx(0.0)
    assert curve.ao_at_k[1] == pytest.approx(0.5)
    assert curve.ao_at_k[2] == pytest.approx(2 / 3)


def test_overlap_disjoint_top1():
    m1 = LogitMatrix([[9.0, 0.0, 0.0]])
    m2 = LogitMatrix([[0.0, 9.0, 0.0]])
    assert stats.average_overlap(m1, m2, 1).ao_at_k[0] == 0.0


def test_overlap_brute_force_oracle():
    rng = np.random.default_rng(9)
    v1, v2 = rng.standard_normal((2, 100, 6))
    curve = stats.average_overlap(LogitMatrix(v1), LogitMatrix(v2), 6)
    for k in range(1, 7):
        total = 0.0
        for s in range(100):
            r1 = sorted(range(6), key=lambda j: (-v1[s, j], j))
            r2 = sorted(range(6), key=lambda j: (-v2[s, j], j))
            ao = sum(
                len(set(r1[:i]) & set(r2[:i])) / i for i in range(1, k + 1)
            ) / k
            total += ao
        assert curve.ao_at_k[k - 1] == pytest.approx(total / 100, abs=1e-12)
    # the running average keeps AO@k in [0, 1]; it reaches 1 at k = N only
    # for identical rankings (the depth-N overlap O(N) alone is always 1)
    assert np.all((curve.ao_at_k >= 0) & (curve.ao_at_k <= 1))


def _ao_depth_loop(v1: np.ndarray, v2: np.ndarray, k_max: int) -> np.ndarray:
    """Reference AO@k: one pass per depth over per-row rank positions."""
    n, c = v1.shape
    cols = np.broadcast_to(np.arange(c), (n, c))
    rows = np.arange(n)[:, None]
    pos1 = np.empty((n, c), dtype=np.int64)
    pos2 = np.empty((n, c), dtype=np.int64)
    pos1[rows, np.lexsort((cols, -v1), axis=1)] = np.arange(c)
    pos2[rows, np.lexsort((cols, -v2), axis=1)] = np.arange(c)
    ao = np.zeros(k_max)
    ao_sum = np.zeros(n)
    for i in range(1, k_max + 1):
        ao_sum += ((pos1 < i) & (pos2 < i)).sum(axis=1) / i
        ao[i - 1] = np.mean(ao_sum / i)
    return ao


@pytest.mark.parametrize("tie_heavy", [False, True], ids=["random", "ties"])
@pytest.mark.parametrize("k_max", [5, 12], ids=["k_below_c", "k_equals_c"])
def test_overlap_matches_depth_loop(tie_heavy, k_max):
    rng = np.random.default_rng(17)
    v1, v2 = rng.standard_normal((2, 300, 12))
    if tie_heavy:
        v1, v2 = np.round(v1), np.round(v1 + v2 * 0.7)
    curve = stats.average_overlap(LogitMatrix(v1), LogitMatrix(v2), k_max)
    np.testing.assert_allclose(curve.ao_at_k, _ao_depth_loop(v1, v2, k_max),
                               rtol=1e-14, atol=0)
    assert curve.k_values.tolist() == list(range(1, k_max + 1))


def test_overlap_shape_and_k_errors():
    m1 = LogitMatrix(np.zeros((2, 3)) + [[1, 2, 3]])
    m2 = LogitMatrix(np.zeros((3, 3)) + [[1, 2, 3]])
    with pytest.raises(stats.StatsError):
        stats.average_overlap(m1, m2, 2)
    with pytest.raises(stats.StatsError):
        stats.average_overlap(m1, m1, 4)


# ---------- permuted overlap ----------

def test_permuted_overlap_deterministic_and_single_sample():
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((8, 4))
    labels = np.arange(8) % 8  # one sample per class is impossible (4 classes); use per-class singles
    labels = np.arange(8) % 4
    b1 = _bundle(vals, labels)
    b2 = _bundle(rng.standard_normal((8, 4)), labels)
    c1 = stats.within_class_permuted_overlap(b1, b2, 4, seed=42)
    c2 = stats.within_class_permuted_overlap(b1, b2, 4, seed=42)
    assert np.array_equal(c1.ao_at_k, c2.ao_at_k)
    # single sample per class: permutation forced to identity
    vals1 = rng.standard_normal((4, 4))
    vals2 = rng.standard_normal((4, 4))
    bs1 = _bundle(vals1, [0, 1, 2, 3])
    bs2 = _bundle(vals2, [0, 1, 2, 3])
    direct = stats.average_overlap(bs1.logits, bs2.logits, 4)
    perm = stats.within_class_permuted_overlap(bs1, bs2, 4, seed=3)
    assert np.array_equal(direct.ao_at_k, perm.ao_at_k)


def test_permuted_overlap_constant_rows():
    vals = np.tile([[3.0, 2.0, 1.0]], (6, 1))
    b = _bundle(vals, [0, 0, 0, 1, 1, 1])
    curve = stats.within_class_permuted_overlap(b, b, 3, seed=0)
    assert np.allclose(curve.ao_at_k, 1.0)


def test_permuted_overlap_label_mismatch():
    b1 = _bundle(np.zeros((2, 2)) + [[1, 0]], [0, 1])
    b2 = _bundle(np.zeros((2, 2)) + [[1, 0]], [1, 0])
    with pytest.raises(stats.StatsError):
        stats.within_class_permuted_overlap(b1, b2, 2, seed=0)


# ---------- cosine neighbors ----------

def test_cosine_duplicate_and_orthogonal():
    m = LogitMatrix([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    nb = stats.cosine_neighbors(m, 0, 2)
    assert nb[0] == (1, pytest.approx(1.0))
    assert nb[1][1] == pytest.approx(0.0)


def test_cosine_brute_force_oracle():
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((10, 4))
    nb = stats.cosine_neighbors(LogitMatrix(vals), 3, 9)
    sims = {
        i: float(vals[i] @ vals[3] / (np.linalg.norm(vals[i]) * np.linalg.norm(vals[3])))
        for i in range(10) if i != 3
    }
    expect = sorted(sims.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [i for i, _ in nb] == [i for i, _ in expect]
    for (_, a), (_, b) in zip(nb, expect):
        assert a == pytest.approx(b, abs=1e-12)


def test_cosine_neighbor_count():
    # n = 0 asks for no neighbours; a negative n is refused, not read as a
    # slice that drops the last |n| rows
    m = LogitMatrix(np.random.default_rng(10).standard_normal((6, 3)))
    assert stats.cosine_neighbors(m, 0, 0) == []
    assert len(stats.cosine_neighbors(m, 0, 5)) == 5
    for n in (-1, -5):
        with pytest.raises(stats.StatsError, match=f"n must be >= 0, got {n}"):
            stats.cosine_neighbors(m, 0, n)


def test_cosine_zero_norm_error():
    m = LogitMatrix([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(stats.StatsError):
        stats.cosine_neighbors(m, 0, 1)


def test_cosine_repeated_calls_reuse_row_norms():
    rng = np.random.default_rng(9)
    vals = rng.standard_normal((50, 7))
    m = LogitMatrix(vals)
    first = [stats.cosine_neighbors(m, r, 10) for r in range(5)]
    again = [stats.cosine_neighbors(m, r, 10) for r in range(5)]
    fresh = [stats.cosine_neighbors(LogitMatrix(vals), r, 10) for r in range(5)]
    assert first == again == fresh
    assert m.row_norms is m.row_norms and not m.row_norms.flags.writeable
    np.testing.assert_array_equal(m.row_norms, np.linalg.norm(vals, axis=1))
    zero_row = LogitMatrix(np.vstack([vals[:3], np.zeros(7)]))
    for _ in range(2):  # the cached norms still name the zero row
        with pytest.raises(stats.StatsError, match="row 3 has zero norm"):
            stats.cosine_neighbors(zero_row, 0, 1)
