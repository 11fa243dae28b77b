"""Row-blocked kernels against whole-matrix references.

The cached class positions, AO@k and the four forge ops run in blocks of
about ``store.BLOCK_VALUES`` values. Each is checked bit for bit against the
whole-matrix code it replaced (kept below as the reference) on tie-heavy
matrices of several blocks with a ragged last block, and their numpy
allocations are bounded with ``tracemalloc``. So is the linear-response
experiment, whose Omega diagonal is summed in the same blocks (its dense
oracle is in test_response.py), the checks of its problem's inputs, the CSV
writer, which formats one row at a time, the text reader, which parses
one read of whole lines at a time, report, which formats each SVG one
block of rows at a time, stats, which hands its histograms to the writer
as numpy columns, and store's non-finite scan, which refuses an all-NaN
matrix a block at a time.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from logitlab import cli, forge, report, response, stats
from logitlab.store import (
    BLOCK_VALUES,
    MAGIC,
    DatasetBundle,
    LabelVector,
    LogitMatrix,
    ParseError,
    RobustFlags,
    ValidationError,
    class_positions,
    descending_order,
    first_non_finite,
    load_matrix,
    store_flags,
    store_matrix,
)
from logitlab.surrogate import MeanFieldParams


# ---------- whole-matrix references ----------

def _order(v):
    return np.argsort(-v, axis=-1, kind="stable")


def _ref_positions(v):
    position = np.empty(v.shape, dtype=np.intp)
    np.put_along_axis(position, _order(v), np.arange(v.shape[1])[None, :], axis=1)
    return position


def _ref_average_overlap(v1, v2, k_max):
    n, c = v1.shape
    first_shared = np.maximum(_ref_positions(v1), _ref_positions(v2))
    shared = np.cumsum(np.bincount(first_shared.ravel(), minlength=c))[:k_max]
    depth = np.arange(1, k_max + 1)
    return np.cumsum(shared / (n * depth)) / depth


def _ref_stream(seed, *coords):
    # the rng contract's definition, built without logitlab.rng
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=coords)))


def _ref_permuted_overlap(v1, v2, labels, k_max, seed):
    perm = np.arange(labels.size)
    for c in np.unique(labels):
        ids = np.flatnonzero(labels == c)
        perm[ids] = ids[_ref_stream(seed, int(c)).permutation(ids.size)]
    return _ref_average_overlap(v1, v2[perm], k_max)


def _ref_bottom(v, k):
    bottom = np.ones(v.shape, dtype=bool)
    np.put_along_axis(bottom, _order(v)[:, :k], False, axis=1)
    return bottom, v[bottom].reshape(v.shape[0], v.shape[1] - k)


def _ref_fix_k_permute(v, k, seed):
    bottom, rest = _ref_bottom(v, k)
    perms = np.empty(rest.shape, dtype=np.intp)
    for r in range(v.shape[0]):
        perms[r] = _ref_stream(seed, r).permutation(rest.shape[1])
    out = v.copy()
    out[bottom] = np.take_along_axis(rest, perms, axis=1).ravel()
    return out


def _ref_fix_k_average(v, k):
    bottom, rest = _ref_bottom(v, k)
    return np.where(bottom, rest.mean(axis=1)[:, None], v)


def _ref_correct_fix_1(v, labels):
    out = v.copy()
    preds = np.argmax(out, axis=1)
    for r in np.flatnonzero(preds != labels):
        p, t = preds[r], labels[r]
        out[r, p], out[r, t] = out[r, t], out[r, p]
    return out


def _ref_hybrid(values, index):
    out = np.empty(values.shape)
    np.put_along_axis(out, _order(index), np.sort(values, axis=1)[:, ::-1], axis=1)
    return out


# ---------- inputs ----------

def _ragged_rows(cols, blocks=2):
    """A row count giving `blocks` full blocks plus a ragged last one."""
    return blocks * (BLOCK_VALUES // cols) + 37


def _tie_heavy(rng, rows, cols):
    """Values rounded to one decimal, plus all-equal rows and rows of +-0.0."""
    v = np.round(rng.standard_normal((rows, cols)), 1)
    v[::7] = 0.5
    v[3::11] = rng.choice([-0.0, 0.0], size=(v[3::11].shape))
    v[5::13] = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(v[5::13].shape))
    return v


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


# ---------- cached class positions ----------

def _near_ties(rng, rows, cols):
    """Odd rows: standard normal with one pair of 1-ulp neighbours. Even rows:
    a cluster of values at most 2 * cols ulps from one value, so that distinct
    values share their high bits, beside exact ties."""
    v = rng.standard_normal((rows, cols))
    v[1::2, -1] = np.nextafter(v[1::2, 0], np.inf)
    steps = rng.integers(-2 * cols, 2 * cols, size=v[::2].shape)
    v[::2] = (v[::2, :1].view(np.int64) + steps).view(np.float64)
    return v


def _specials(rng, rows, cols, pool, share):
    """Standard normal values with about share of the cells drawn from pool."""
    v = rng.standard_normal((rows, cols))
    pick = rng.random((rows, cols)) < share
    v[pick] = rng.choice(pool, size=int(pick.sum()))
    return v


BIG, NEG_NAN = np.finfo(np.float64).max, np.copysign(np.nan, -1.0)
EXTREMES = [np.inf, -np.inf, BIG, -BIG, 5e-324, -5e-324, 1e-310, -1e-310, 0.0, -0.0]


def _rank_input(kind, rng, rows, cols):
    v = {
        "random": lambda: rng.standard_normal((rows, cols)),
        "rounded": lambda: np.round(rng.standard_normal((rows, cols))),
        "all_equal": lambda: np.full((rows, cols), 2.5),
        "signed_zero": lambda: rng.choice([-0.0, 0.0], size=(rows, cols)),
        "near_tie": lambda: _near_ties(rng, rows, cols),
        "inf_subnormal": lambda: _specials(rng, rows, cols, EXTREMES, 0.3),
        "nan": lambda: _specials(rng, rows, cols, [np.nan, NEG_NAN, np.inf, 0.0], 0.02),
    }[kind]()
    if kind == "nan":
        v[4:5] = NEG_NAN  # an all-NaN row, where there is a fifth row
    return v


RANK_KINDS = ["random", "rounded", "all_equal", "signed_zero", "near_tie", "inf_subnormal", "nan"]


@pytest.mark.parametrize("cols,dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16),
                                        (1000, np.uint16)])
@pytest.mark.parametrize("kind", RANK_KINDS)
def test_positions_invert_the_stable_descending_order(cols, dtype, kind):
    rng = np.random.default_rng(cols)
    v = _rank_input(kind, rng, _ragged_rows(cols), cols)
    positions = class_positions(v)
    assert positions.dtype == dtype
    assert np.array_equal(positions, _ref_positions(v))
    if np.isfinite(v).all():  # a LogitMatrix holds finite values only
        m = LogitMatrix(v)
        assert not m.positions.flags.writeable
        assert np.array_equal(m.positions, positions)
        assert m.positions is m.positions  # computed once


@pytest.mark.parametrize("kind", RANK_KINDS)
def test_descending_order_of_one_long_row_is_the_stable_argsort(kind):
    # cosine_neighbors' use: 20k similarities, 15 index bits
    v = _rank_input(kind, np.random.default_rng(20_000), 1, 20_000)[0]
    assert np.array_equal(descending_order(v), np.argsort(-v, kind="stable"))


# ---------- AO@k and forge, bit for bit ----------

SHAPES = [(_ragged_rows(100), 100), (_ragged_rows(1000, 3), 1000)]


@pytest.fixture(scope="module", params=SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def pair(request):
    rows, cols = request.param
    rng = np.random.default_rng(rows * cols)
    a = _tie_heavy(rng, rows, cols)
    b = np.round(a + rng.standard_normal(a.shape) * 0.3, 1)
    b[1::9] = a[1::9]
    labels = rng.integers(0, cols, rows)
    labels[::5] = np.argmax(a[::5], axis=1)
    return a, b, labels


def test_overlap_curves_match_the_whole_matrix_reference(pair):
    a, b, labels = pair
    c = a.shape[1]
    for k_max in (1, 7, c):
        got = stats.average_overlap(LogitMatrix(a), LogitMatrix(b), k_max).ao_at_k
        assert _same_bits(got, _ref_average_overlap(a, b, k_max))
    lab = LabelVector(labels % 3)  # few classes: long within-class permutations
    got = stats.within_class_permuted_overlap(
        DatasetBundle(LogitMatrix(a), lab), DatasetBundle(LogitMatrix(b), lab), c, 5).ao_at_k
    assert _same_bits(got, _ref_permuted_overlap(a, b, lab.labels, c, 5))


def test_forge_ops_match_the_whole_matrix_reference(pair):
    a, b, labels = pair
    m = LogitMatrix(a)
    for k in (1, 5, a.shape[1] - 1):
        assert _same_bits(forge.fix_k_permute(m, k, 17).values, _ref_fix_k_permute(a, k, 17))
        assert _same_bits(forge.fix_k_average(m, k).values, _ref_fix_k_average(a, k))
    assert _same_bits(forge.correct_fix_1(m, LabelVector(labels)).values,
                      _ref_correct_fix_1(a, labels))
    assert _same_bits(forge.hybrid_merge(m, LogitMatrix(b)).values, _ref_hybrid(a, b))


# ---------- memory ----------

ROWS, COLS = 20_000, 100   # 15.3 MiB per matrix, about 15 blocks
MATRIX_BYTES = ROWS * COLS * 8
BLOCK_BYTES = BLOCK_VALUES // COLS * COLS * 8   # one row block of float64


def _peak_bytes(fn):
    """Peak traced allocation while fn runs; what it returns stays counted."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _fresh(seed):
    return LogitMatrix(np.random.default_rng(seed).standard_normal((ROWS, COLS)))


def test_both_overlap_curves_stay_under_three_quarters_of_a_matrix():
    a, b = _fresh(0), _fresh(1)
    labels = LabelVector(np.random.default_rng(2).integers(0, COLS, ROWS))

    def both():
        stats.average_overlap(a, b, COLS)
        stats.within_class_permuted_overlap(DatasetBundle(a, labels), DatasetBundle(b, labels),
                                            COLS, 0)

    assert _peak_bytes(both) <= 0.75 * MATRIX_BYTES


@pytest.mark.parametrize("op", ["fix_k_permute", "fix_k_average", "correct_fix_1", "hybrid"])
def test_forge_ops_stay_under_one_and_a_half_matrices(op):
    m, other = _fresh(3), _fresh(4)
    labels = LabelVector(np.random.default_rng(5).integers(0, COLS, ROWS))
    run = {
        "fix_k_permute": lambda: forge.fix_k_permute(m, 5, 0),
        "fix_k_average": lambda: forge.fix_k_average(m, 5),
        "correct_fix_1": lambda: forge.correct_fix_1(m, labels),
        "hybrid": lambda: forge.hybrid_merge(m, other),
    }[op]
    bound = 1.5 * MATRIX_BYTES
    if op == "fix_k_permute":
        # the output, the uint8 positions and 2.5 row blocks, about 1.29
        # matrices: each tail row is shuffled in place, so a per-block
        # permutation index array (8 bytes a tail value) would not fit
        bound = MATRIX_BYTES + ROWS * COLS + 2.5 * BLOCK_BYTES
    assert _peak_bytes(run) <= bound


def test_binary_store_writes_without_copying_the_matrix(tmp_path):
    m = _fresh(6)
    assert _peak_bytes(lambda: store_matrix(m, tmp_path / "m.lgt", "binary")) \
        <= 0.1 * MATRIX_BYTES


def test_text_load_holds_a_few_reads_beside_the_matrix(tmp_path):
    # 5k x 100 (3.8 MiB): the matrix and 5 MiB; the whole 9.6 MiB file as
    # text, or its list of lines, would not fit
    rows = 5_000
    store_matrix(LogitMatrix(np.random.default_rng(8).standard_normal((rows, COLS))),
                 tmp_path / "m.txt", "text")
    assert _peak_bytes(lambda: load_matrix(tmp_path / "m.txt", "text")) \
        <= 8 * rows * COLS + 5 * 2**20


def _peak_refusing(path, fmt):
    def load():
        with pytest.raises(ParseError, match="non-finite value at row 0, column 0$"):
            load_matrix(path, fmt)
    return _peak_bytes(load)


def test_all_nan_binary_load_holds_the_matrix_and_a_block(tmp_path):
    # the first non-finite cell is found a block at a time; a whole-matrix
    # np.isfinite, or argwhere over every NaN cell (32 bytes a cell), would not fit
    with open(tmp_path / "m.lgt", "wb") as f:
        f.write(MAGIC + struct.pack("<II", ROWS, COLS))
        f.write(np.full((ROWS, COLS), np.nan).data)
    assert _peak_refusing(tmp_path / "m.lgt", "binary") <= 1.2 * MATRIX_BYTES


def test_all_nan_text_load_holds_a_few_reads_beside_the_matrix(tmp_path):
    rows = 4_000  # 3.1 MiB; argwhere over its NaN cells would take 12 MiB more
    with open(tmp_path / "m.txt", "w") as f:
        f.write(f"{rows},{COLS}\n")
        f.writelines(",".join(["nan"] * COLS) + "\n" for _ in range(rows))
    assert _peak_refusing(tmp_path / "m.txt", "text") <= 8 * rows * COLS + 3 * 2**20


def test_all_nan_logit_matrix_is_refused_a_block_at_a_time():
    values = np.full((ROWS, COLS), np.nan)

    def build():
        with pytest.raises(ValidationError, match="non-finite logit at row 0, column 0$"):
            LogitMatrix(values)

    assert _peak_bytes(build) <= 0.1 * MATRIX_BYTES


@pytest.mark.parametrize("rows,cols", [(3 * BLOCK_VALUES // 100 + 7, 100), (5, 3 * BLOCK_VALUES),
                                       (4, 0), (0, 4)])
def test_first_non_finite_matches_the_whole_matrix_reference(rows, cols):
    # first cells of a block, the last cell, and cells past a block's end
    x = np.zeros((rows, cols))
    assert first_non_finite(x) is None
    step = max(1, BLOCK_VALUES // max(cols, 1))
    for cell in [(r, c) for r in {0, step - 1, step, rows - 1} for c in {0, cols - 1}
                 if 0 <= r < rows and cols]:
        for bad in (np.nan, np.inf, -np.inf):
            y = x.copy()
            y[cell] = bad
            y[rows - 1, cols - 1] = np.nan  # a later non-finite cell is not named
            ref = tuple(np.argwhere(~np.isfinite(y))[0])
            assert first_non_finite(y) == ref == first_non_finite(np.asfortranarray(y))


@pytest.mark.parametrize("n_data,n_feats", [(1200, 600), (600, 1200)],
                         ids=["tall_1200x600", "wide_600x1200"])
def test_gap_shift_holds_no_data_by_rank_matrix_beside_x(n_data, n_feats):
    # X, the Gram matrix and its eigenvectors (rank x rank each), and blocks
    # of about BLOCK_VALUES values; an N_data x rank factor would not fit
    rank = min(n_data, n_feats)
    bound = 8 * (n_data * n_feats + 2 * rank * rank) + 2 * 2**20
    params = MeanFieldParams(5.0, 5.0, 10, 0.2)
    assert _peak_bytes(lambda: response.gap_shift_experiment(params, n_data, n_feats, 0.1, seed=0)) \
        <= bound


def test_response_problem_checks_its_inputs_one_row_block_at_a_time():
    # finiteness and row norms each take one block of about BLOCK_VALUES
    # values; a whole-matrix np.isfinite(X) would take X.size bytes
    x = np.random.default_rng(7).standard_normal((2000, 1000))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    z = np.zeros((2000, 10))
    labels = LabelVector(np.zeros(2000, dtype=int))
    bound = 8 * BLOCK_VALUES + 8 * 2000 + 2**17
    assert bound < x.size
    assert _peak_bytes(lambda: response.ResponseProblem(X=x, Z_tilde=z, labels=labels)) <= bound


def test_analytic_csv_holds_no_rows_as_python_objects(tmp_path):
    # 300 betas, 90k rows: the three float64 columns and 2 MiB; one block of
    # BLOCK_VALUES Python floats (4 MiB with their list slots) would not fit
    argv = ["analytic", "--surface", "--beta-min", "0.01", "--beta-max", "3",
            "--beta-step", "0.01", "--out", str(tmp_path)]
    rows = 300 * 300
    bound = 8 * 3 * rows + 2 * 2**20
    codes = []
    assert _peak_bytes(lambda: codes.append(cli.main(argv))) <= bound
    assert codes == [0]
    assert len((tmp_path / "loss_surface.csv").read_text().splitlines()) == rows + 1


def test_stats_holds_no_histogram_bin_as_python_objects(tmp_path):
    # 2000 x 10 at bin width 2e-5: 192k max-logit and 147k gap bins, the
    # histograms' edge and count columns and the curve's bin counts (about
    # 8 MiB); a tuple of Python objects per bin (over 40 MiB) would not fit
    rng = np.random.default_rng(10)
    store_matrix(LogitMatrix(rng.standard_normal((2000, 10))), tmp_path / "m.lgt", "binary")
    store_flags(RobustFlags(rng.random(2000) > 0.5), tmp_path / "f.txt")
    argv = ["stats", "--logits", str(tmp_path / "m.lgt"), "--flags", str(tmp_path / "f.txt"),
            "--bin-width", "2e-5", "--min-count", "1", "--out", str(tmp_path / "out")]
    codes = []
    assert _peak_bytes(lambda: codes.append(cli.main(argv))) <= 16 * 2**20
    assert codes == [0]
    with open(tmp_path / "out" / "max_logit.csv") as f:
        assert sum(1 for _ in f) > 180_000


def test_report_holds_each_csv_once_as_floats(tmp_path):
    # 300 betas, 90k rows in each of two CSVs: their float64 arrays (4.1 MiB),
    # their grid indices and a block of SVG lines; their rows as lists of
    # Python floats (13.7 MiB a CSV) would not fit
    assert cli.main(["analytic", "--surface", "--shrinkage", "--beta-min", "0.01",
                     "--beta-max", "3", "--beta-step", "0.01", "--out", str(tmp_path)]) == 0
    svgs = []
    assert _peak_bytes(lambda: svgs.extend(report.emit_report(tmp_path))) <= 16 * 2**20
    assert [p.name for p in svgs] == ["gap_shrinkage.svg", "loss_surface.svg"]
