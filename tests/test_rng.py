import pickle
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


@pytest.mark.parametrize("coord", ["3", 1.5, -1, None, np.float64(2.0), np.int64(-4)])
def test_substream_refuses_a_coordinate_that_is_not_an_integer_at_least_0(coord):
    # numpy's SeedSequence would parse "3" as 3 and blame the seed for 1.5
    with pytest.raises(ValueError, match=re.escape(
            f"coordinate 1 must be an integer >= 0, got {coord!r}")):
        substream(0, 2, coord)


def _numpy_stream(seed, coords):
    # the rng contract's definition: numpy's own SeedSequence and Philox
    ss = np.random.SeedSequence(entropy=seed, spawn_key=coords)
    return ss.generate_state(2, np.uint64), np.random.Generator(np.random.Philox(ss))


# words of 32 bits: 2**32 and 2**64 take 2 and 3, 2**200 + 11 takes 7
ORACLE_SEEDS = [0, 7, 2**31, 2**32 - 1, 2**32, 2**40 + 3, 2**200 + 11, np.int64(9), np.uint8(200)]
ORACLE_COORDS = [(), (5,), (3, 11), (300, 64), (2**32,), (2**64,), (2**64 + 1, 2**32 - 1, 0),
                 (np.int64(4), np.uint16(9))]


@pytest.mark.parametrize("coords", ORACLE_COORDS, ids=repr)
@pytest.mark.parametrize("seed", ORACLE_SEEDS, ids=repr)
def test_substream_is_numpys_seed_sequence_stream_bit_for_bit(seed, coords):
    key, want = _numpy_stream(seed, coords)
    got = substream(seed, *coords)
    assert np.array_equal(got.bit_generator.state["state"]["key"], key)
    assert got.bytes(64) == want.bytes(64)
    assert np.array_equal(got.permutation(95), want.permutation(95))


def test_substream_keys_every_row_as_numpy_does():
    rows = range(20_000)
    got = [substream(12345, r).bit_generator.state["state"]["key"] for r in rows]
    want = [np.random.SeedSequence(12345, spawn_key=(r,)).generate_state(2, np.uint64)
            for r in rows]
    assert np.array_equal(got, want)


def test_each_substream_is_a_fresh_generator():
    a, b = substream(3, 1), substream(3, 1)
    first = a.bytes(32)
    assert a.bytes(32) != first  # a moved on; b did not
    assert b.bytes(32) == first
    with pytest.raises(ValueError, match="Philox key only"):
        a.bit_generator.seed_seq.generate_state(4)
    c = pickle.loads(pickle.dumps(b))
    assert c.bytes(32) == b.bytes(32)


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
