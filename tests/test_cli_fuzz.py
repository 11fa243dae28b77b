"""Exit-code fuzz: whatever the options of `response` and `mftma`, the CLI
ends with a documented exit code (0, 2, 3 or 4; never 3, an input error,
for `response`, which reads no file), a failure prints one stderr line, and
no exception escapes `cli.main`."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logitlab import cli
from logitlab.store import LogitMatrix, store_matrix

EXIT_CODES = {0, 2, 3, 4}
ODD = [math.nan, math.inf, -math.inf, 0.0, -0.0]
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _floats(lo, hi, special=()):
    return st.one_of(st.floats(lo, hi), st.sampled_from(ODD + list(special)))


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


def _check_exit(argv, capsys, codes=EXIT_CODES):
    code = cli.main([_text(a) for a in argv])
    err = capsys.readouterr().err
    assert code in codes, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        assert err.count("\n") == 1, (argv, err)


@FUZZ
@given(
    n_data=st.integers(-1, 64), n_feats=st.integers(-1, 64), n_classes=st.integers(1, 12),
    beta_correct=_floats(-2.0, 12.0, [math.log(9)]),
    beta_wrong=_floats(-2.0, 12.0, [math.log(9), math.log(7)]),
    error_rate=_floats(-0.5, 1.5, [1.0]), epsilon=_floats(-1.0, 1.0),
    sigma0=_floats(-1.0, 1.0), c=_floats(-1.0, 2.0), seed=st.integers(0, 3),
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
    n_samples=st.integers(-1, 12), kappa=_floats(-1.0, 3.0),
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
