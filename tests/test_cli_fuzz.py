"""Exit-code fuzz: whatever the options of `stats`, `overlap`, `manipulate`,
`analytic`, `response` and `mftma`, and whatever the CSVs given to `report`,
the CLI ends with a documented exit code (0, 2, 3 or 4; never 3, an input
error, for `analytic` and `response`, which read no file), a failure prints
one stderr line and leaves --out as it was, and no exception escapes
`cli.main`. Every test runs with warnings as errors."""

import math
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logitlab import cli
from logitlab.store import (
    LabelVector,
    LogitMatrix,
    RobustFlags,
    store_flags,
    store_labels,
    store_matrix,
)

# a warning would be a second stderr line, or a stray one on success; the
# ignored one is raised by hypothesis itself while it reports a failure
pytestmark = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

EXIT_CODES = {0, 2, 3, 4}
ODD = [math.nan, math.inf, -math.inf, 0.0, -0.0]
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _floats(lo, hi, special=()):
    return st.one_of(st.floats(lo, hi), st.sampled_from(ODD + list(special)))


SEEDS = st.integers(-2, 2**70)
FORMATS = st.sampled_from(["binary", "text"])


def _text(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


@pytest.fixture(scope="module")
def manifolds(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz_manifolds")
    rng = np.random.default_rng(40)
    names = []
    for i in range(4):
        center = rng.standard_normal(6)
        store_matrix(LogitMatrix(center + 0.3 * rng.standard_normal((3, 6))),
                     d / f"m{i}.lgt", "binary")
        names.append(f"m{i}.lgt")
    (d / "manifolds.txt").write_text("\n".join(names) + "\n")
    return d


@pytest.fixture(scope="module")
def logits(tmp_path_factory):
    """A 12x5 matrix in both formats (m.lgt binary, m.txt text), a second
    matrix, labels and flags: tiny inputs for the file-reading subcommands."""
    d = tmp_path_factory.mktemp("fuzz_logits")
    rng = np.random.default_rng(41)
    m = LogitMatrix(rng.standard_normal((12, 5)) * 2)
    store_matrix(m, d / "m.lgt", "binary")
    store_matrix(m, d / "m.txt", "text")
    m2 = LogitMatrix(rng.standard_normal((12, 5)))
    store_matrix(m2, d / "m2.lgt", "binary")
    store_matrix(m2, d / "m2.txt", "text")
    store_labels(LabelVector(rng.integers(0, 5, size=12)), d / "y.txt")
    store_flags(RobustFlags(rng.random(12) > 0.5), d / "f.txt")
    return d


def _matrix(d, name: str, fmt: str, matching: bool):
    """name's file in fmt, or in the other format when not matching."""
    return d / f"{name}.{'lgt' if (fmt == 'binary') == matching else 'txt'}"


def _snapshot(out):
    """Every file under out, name -> bytes; None when out does not exist."""
    if not out.exists():
        return None
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def _check_exit(argv, capsys, codes=EXIT_CODES):
    out = argv[argv.index("--out") + 1]
    before = _snapshot(out)
    code = cli.main([_text(a) for a in argv])
    err = capsys.readouterr().err
    assert code in codes, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        assert err.count("\n") == 1, (argv, err)
        # examples share --out, so this also covers a failure after a success
        assert _snapshot(out) == before, (argv, err)
    return code


@FUZZ
@given(
    n_data=st.integers(-1, 64), n_feats=st.integers(-1, 64), n_classes=st.integers(1, 12),
    beta_correct=_floats(-2.0, 12.0, [math.log(9), -800.0]),
    beta_wrong=_floats(-2.0, 12.0, [math.log(9), math.log(7)]),
    error_rate=_floats(-0.5, 1.5, [1.0]), epsilon=_floats(-1.0, 1.0, [1e200, 1e308]),
    sigma0=_floats(-1.0, 1.0, [1e60, 1e100, 1e150, 1e154, 1e160]), c=_floats(-1.0, 2.0), seed=st.integers(0, 3),
)
def test_response_exit_codes(tmp_path, capsys, n_data, n_feats, n_classes, beta_correct,
                             beta_wrong, error_rate, epsilon, sigma0, c, seed):
    _check_exit(["response", "--n-data", n_data, "--n-feats", n_feats,
                 "--n-classes", n_classes, "--beta-correct", beta_correct,
                 "--beta-wrong", beta_wrong, "--error-rate", error_rate,
                 "--epsilon", epsilon, "--sigma0", sigma0, "--c", c, "--seed", seed,
                 "--out", tmp_path / "r"], capsys,
                EXIT_CODES - {3})  # response reads no input file


@FUZZ
@given(
    n_samples=st.integers(-1, 12), kappa=_floats(-1.0, 3.0, [1e155]),
    n_dichotomies=st.integers(-1, 5), empirical=st.booleans(),
    project=st.booleans(), seed=st.integers(0, 3),
)
def test_mftma_exit_codes(manifolds, tmp_path, capsys, n_samples, kappa, n_dichotomies,
                          empirical, project, seed):
    argv = ["mftma", "--manifolds", manifolds / "manifolds.txt", "--n-samples", n_samples,
            "--kappa", kappa, "--n-dichotomies", n_dichotomies, "--seed", seed,
            "--out", tmp_path / "m"]
    argv += ["--empirical"] * empirical + ["--project-centers"] * project
    _check_exit(argv, capsys)


@FUZZ
@given(
    fmt=FORMATS, matching=st.booleans(), bin_width=_floats(-1.0, 5.0, [1e-13, 1e-310, 1e308]),
    min_count=st.integers(-2, 20), labels=st.booleans(), flags=st.booleans(),
)
def test_stats_exit_codes(logits, tmp_path, capsys, fmt, matching, bin_width, min_count,
                          labels, flags):
    argv = ["stats", "--logits", _matrix(logits, "m", fmt, matching), "--format", fmt,
            "--bin-width", bin_width, "--min-count", min_count, "--out", tmp_path / "s"]
    argv += ["--labels", logits / "y.txt"] * labels + ["--flags", logits / "f.txt"] * flags
    _check_exit(argv, capsys)


@FUZZ
@given(fmt=FORMATS, matching=st.booleans(), k=st.integers(-2, 8), labels=st.booleans(),
       seed=SEEDS)
def test_overlap_exit_codes(logits, tmp_path, capsys, fmt, matching, k, labels, seed):
    argv = ["overlap", "--logits", _matrix(logits, "m", fmt, matching),
            "--logits2", _matrix(logits, "m2", fmt, True), "--format", fmt, "--k", k,
            "--seed", seed, "--out", tmp_path / "o"]
    argv += ["--labels", logits / "y.txt"] * labels
    _check_exit(argv, capsys)


@FUZZ
@given(
    fmt=FORMATS, matching=st.booleans(),
    kind=st.sampled_from(["fix_k_permute", "fix_k_average", "correct_fix_1", "hybrid",
                          "bogus"]),
    k=st.one_of(st.none(), st.integers(-2, 8)), labels=st.booleans(),
    index_source=st.booleans(), seed=SEEDS,
)
def test_manipulate_exit_codes(logits, tmp_path, capsys, fmt, matching, kind, k, labels,
                               index_source, seed):
    argv = ["manipulate", "--logits", _matrix(logits, "m", fmt, matching), "--format", fmt,
            "--kind", kind, "--seed", seed, "--out", tmp_path / "p"]
    argv += [] if k is None else ["--k", k]
    argv += ["--labels", logits / "y.txt"] * labels
    argv += ["--index-source", _matrix(logits, "m2", fmt, True)] * index_source
    _check_exit(argv, capsys)


@FUZZ
@given(
    surface=st.booleans(), shrinkage=st.booleans(), threshold=st.booleans(),
    n_classes=st.integers(-1, 8), error_rate=_floats(-0.5, 1.5, [1.0]),
    branch=st.sampled_from(["plus", "minus"]),
    beta_min=_floats(-2.0, 12.0, [math.log(9)]), beta_max=_floats(-2.0, 12.0),
    beta_step=_floats(0.5, 4.0, [1e-9, -0.25, 1e308]),
)
def test_analytic_exit_codes(tmp_path, capsys, surface, shrinkage, threshold, n_classes,
                             error_rate, branch, beta_min, beta_max, beta_step):
    # steps of 0.5 and more keep the grids at <= 29 of the MAX_BETAS betas
    argv = ["analytic", "--n-classes", n_classes, "--error-rate", error_rate,
            "--branch", branch, "--beta-min", beta_min, "--beta-max", beta_max,
            "--beta-step", beta_step, "--out", tmp_path / "a"]
    argv += ["--surface"] * surface + ["--shrinkage"] * shrinkage + ["--threshold"] * threshold
    _check_exit(argv, capsys, EXIT_CODES - {3})  # analytic reads no input file


CELLS = st.one_of(st.floats(-1e3, 1e3).map(repr),
                  st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "x", ""]))


@FUZZ
@given(
    header=st.sampled_from(["bin_left,bin_right,count", "beta_correct,beta_wrong,loss",
                            "mean,std,skewness"]),
    rows=st.lists(st.lists(CELLS, min_size=1, max_size=4), max_size=6),
)
def test_report_exit_codes(tmp_path, capsys, header, rows):
    out = tmp_path / "csv"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    (out / "a.csv").write_text(header + "\n" + "".join(",".join(r) + "\n" for r in rows))
    if _check_exit(["report", "--out", out], capsys, {0, 3}) == 0:
        svg = (out / "a.svg").read_text()
        assert "nan" not in svg and "inf" not in svg, (rows, svg)
