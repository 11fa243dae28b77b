import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitlab import forge
from logitlab.store import LabelVector, LogitMatrix, ValidationError

row_strategy = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-100, max_value=100),
    min_size=4, max_size=10,
)


def test_spec_validation():
    forge.ManipulationSpec("fix_k_permute", k=2, seed=1)
    with pytest.raises(ValidationError):
        forge.ManipulationSpec("nonsense")
    with pytest.raises(ValidationError):
        forge.ManipulationSpec("fix_k_average")
    with pytest.raises(ValidationError):
        forge.ManipulationSpec("fix_k_permute", k=2)


@pytest.mark.parametrize("kind,k,seed,match", [
    ("fix_k_permute", 1, -1, "seed must be an integer >= 0, got -1"),
    ("fix_k_permute", 1, 1.0, "seed must be an integer >= 0, got 1.0"),
    ("fix_k_permute", 1, "3", "seed must be an integer >= 0, got '3'"),
    ("fix_k_average", 1, -2, "seed must be an integer >= 0, got -2"),
    ("fix_k_permute", 2.5, 0, "integer k >= 1, got 2.5"),
    ("fix_k_average", 2.0, None, "integer k >= 1, got 2.0"),
    ("fix_k_average", "2", None, "integer k >= 1, got '2'"),
])
def test_spec_refuses_seeds_and_ks_that_are_not_integers(kind, k, seed, match):
    # numpy's substream would raise ValueError on the first row, and reshape
    # a TypeError, instead of one ValidationError before any work
    with pytest.raises(ValidationError, match=match):
        forge.ManipulationSpec(kind, k, seed)


@pytest.mark.parametrize("call,match", [
    (lambda m: forge.fix_k_permute(m, 1, None), "seed must be an integer >= 0, got None"),
    (lambda m: forge.fix_k_permute(m, 1, -1), "seed must be an integer >= 0, got -1"),
    (lambda m: forge.fix_k_permute(m, 2.5, 0), "integer k >= 1, got 2.5"),
    (lambda m: forge.fix_k_average(m, 2.5), "integer k >= 1, got 2.5"),
    (lambda m: forge.fix_k_average(m, 4.0), "integer k >= 1, got 4.0"),
], ids=["permute_seed_none", "permute_seed_negative", "permute_k_float", "average_k_float",
        "average_k_float_at_cols"])
def test_fix_k_calls_refuse_what_the_spec_refuses(call, match):
    # a None seed drew OS entropy, so every call gave another result; -1 and
    # 2.5 leaked numpy's ValueError and TypeError; 4.0 == cols returned m
    m = LogitMatrix(np.arange(12.0).reshape(3, 4))
    with pytest.raises(ValidationError, match=match):
        call(m)


def test_spec_accepts_numpy_integers():
    spec = forge.ManipulationSpec("fix_k_permute", np.int64(2), np.uint8(7))
    m = LogitMatrix(np.random.default_rng(0).standard_normal((4, 5)))
    assert forge.apply_manipulation(spec, m) == forge.fix_k_permute(m, 2, 7)


def test_fix_k_permute_identity_at_full_k():
    rng = np.random.default_rng(0)
    m = LogitMatrix(rng.standard_normal((5, 6)))
    out = forge.fix_k_permute(m, 6, seed=1)
    assert np.array_equal(out.values, m.values)


def test_fix_k_permute_top_fixed_and_multiset():
    m = LogitMatrix([[5.0, 3.0, 1.0, 0.0]])
    out = forge.fix_k_permute(m, 1, seed=9)
    assert out.values[0, 0] == 5.0
    assert sorted(out.values[0, 1:]) == [0.0, 1.0, 3.0]


def test_fix_k_permute_deterministic():
    rng = np.random.default_rng(2)
    m = LogitMatrix(rng.standard_normal((100, 10)))
    a = forge.fix_k_permute(m, 3, seed=7)
    b = forge.fix_k_permute(m, 3, seed=7)
    assert a.values.tobytes() == b.values.tobytes()
    c = forge.fix_k_permute(m, 3, seed=8)
    assert a.values.tobytes() != c.values.tobytes()


def test_fix_k_average_example():
    m = LogitMatrix([[5.0, 3.0, 1.0, 0.0]])
    out = forge.fix_k_average(m, 1)
    assert out.values[0].tolist() == pytest.approx([5.0, 4 / 3, 4 / 3, 4 / 3])


def test_fix_k_average_identities():
    rng = np.random.default_rng(1)
    m = LogitMatrix(rng.standard_normal((4, 5)))
    assert np.array_equal(forge.fix_k_average(m, 5).values, m.values)
    assert np.allclose(forge.fix_k_average(m, 4).values, m.values)


def test_fix_k_out_of_range():
    m = LogitMatrix([[1.0, 2.0]])
    for bad in (0, 3):
        with pytest.raises(ValidationError):
            forge.fix_k_average(m, bad)
        with pytest.raises(ValidationError):
            forge.fix_k_permute(m, bad, seed=0)


def test_correct_fix_1_examples():
    m = LogitMatrix([[4.0, 1.0, 9.0], [9.0, 1.0, 4.0]])
    out = forge.correct_fix_1(m, LabelVector([0, 0]))
    assert out.values[0].tolist() == [9.0, 1.0, 4.0]
    assert out.values[1].tolist() == [9.0, 1.0, 4.0]


def test_correct_fix_1_multiset_and_argmax():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((50, 10))
    labels = rng.integers(0, 10, size=50)
    out = forge.correct_fix_1(LogitMatrix(vals), LabelVector(labels))
    assert np.array_equal(out.values.argmax(axis=1), labels)
    for r in range(50):
        assert sorted(out.values[r]) == pytest.approx(sorted(vals[r]))


def test_hybrid_merge_example():
    value = LogitMatrix([[2.0, 5.0, 1.0]])
    index = LogitMatrix([[0.1, 0.2, 0.9]])
    out = forge.hybrid_merge(value, index)
    assert out.values[0].tolist() == [1.0, 2.0, 5.0]


def test_hybrid_merge_identity():
    rng = np.random.default_rng(4)
    m = LogitMatrix(rng.standard_normal((6, 5)))
    out = forge.hybrid_merge(m, m)
    assert np.allclose(out.values, m.values)


def test_hybrid_merge_invariants():
    rng = np.random.default_rng(5)
    value = LogitMatrix(rng.standard_normal((100, 10)))
    index = LogitMatrix(rng.standard_normal((100, 10)))
    out = forge.hybrid_merge(value, index)
    for r in range(100):
        assert sorted(out.values[r]) == pytest.approx(sorted(value.values[r]))
        assert np.array_equal(
            np.argsort(-out.values[r], kind="stable"),
            np.argsort(-index.values[r], kind="stable"),
        )


def test_hybrid_shape_mismatch():
    with pytest.raises(ValidationError):
        forge.hybrid_merge(LogitMatrix([[1.0, 2.0]]), LogitMatrix([[1.0, 2.0, 3.0]]))


@settings(max_examples=40, deadline=None)
@given(row=row_strategy, k=st.integers(min_value=1, max_value=4), seed=st.integers(0, 100))
def test_fix_k_properties(row, k, seed):
    m = LogitMatrix([row])
    n = len(row)
    k = min(k, n)
    top = sorted(range(n), key=lambda i: (-row[i], i))[:k]
    perm = forge.fix_k_permute(m, k, seed)
    avg = forge.fix_k_average(m, k)
    for i in top:
        assert perm.values[0, i] == row[i]
        assert avg.values[0, i] == row[i]
    assert sorted(perm.values[0]) == pytest.approx(sorted(row))
    assert avg.values[0].sum() == pytest.approx(sum(row), rel=1e-9, abs=1e-9)


def test_apply_manipulation_dispatch():
    rng = np.random.default_rng(6)
    m = LogitMatrix(rng.standard_normal((3, 4)))
    labels = LabelVector([0, 1, 2])
    spec = forge.ManipulationSpec("correct_fix_1")
    out = forge.apply_manipulation(spec, m, labels=labels)
    assert np.array_equal(out.values.argmax(axis=1), labels.labels)
    with pytest.raises(ValidationError):
        forge.apply_manipulation(forge.ManipulationSpec("hybrid"), m)
