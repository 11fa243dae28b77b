import re

import numpy as np
import pytest

from logitlab import mftma, response, stats, surrogate
from logitlab.rng import substream
from logitlab.store import LabelVector, LogitMatrix, validate_bundle


@pytest.mark.parametrize("seed", [None, -1, 1.0, "3", np.float64(2.0), np.int64(-4)])
def test_substream_refuses_a_seed_that_is_not_an_integer_at_least_0(seed):
    # SeedSequence(entropy=None) would seed from the OS: another stream every call
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
        substream(seed, 0)


def test_substream_takes_numpy_integers():
    draw = substream(5, 1, 2).standard_normal(4)
    for seed in (np.int64(5), np.uint8(5)):
        assert np.array_equal(substream(seed, 1, 2).standard_normal(4), draw)


_rng = np.random.default_rng(0)
_BUNDLE = validate_bundle(LogitMatrix(_rng.standard_normal((12, 4))),
                          LabelVector(_rng.integers(0, 4, 12)))
_CLOUDS = mftma.ManifoldSet(tuple(_rng.standard_normal((4, 6)) + 3 * i for i in range(2)))
_x = _rng.standard_normal((20, 8))
_PROBLEM = response.ResponseProblem(
    X=_x / np.linalg.norm(_x, axis=1, keepdims=True), Z_tilde=_rng.standard_normal((20, 5)),
    labels=LabelVector(_rng.integers(0, 5, 20)), sigma0=1e-3, c=1.0)
SEEDED = {
    "within_class_permuted_overlap":
        lambda seed: stats.within_class_permuted_overlap(_BUNDLE, _BUNDLE, 3, seed).ao_at_k,
    "mftma_capacity": lambda seed: mftma.mftma_capacity(_CLOUDS, 5, 0.0, seed).alpha_mftma,
    "empirical_capacity": lambda seed: mftma.empirical_capacity(_CLOUDS, 3, seed),
    "gap_shift_experiment": lambda seed: response.gap_shift_experiment(
        surrogate.MeanFieldParams(5.0, 5.0, 10, 0.2), 20, 10, 0.1, seed=seed),
    "fyodorov_omega": lambda seed: response.fyodorov_omega(_PROBLEM, seed),
}


@pytest.mark.parametrize("name", SEEDED)
def test_a_none_seed_is_refused_where_it_would_draw_os_entropy(name):
    call = SEEDED[name]
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got None"):
        call(None)
    assert np.array_equal(call(0), call(0))  # a given seed is one answer
