import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from logitlab import response as rp
from logitlab import surrogate as sg
from logitlab.stats import softmax
from logitlab.store import BLOCK_VALUES, LabelVector


def _problem(n_data=20, n_feats=8, n_classes=5, sigma0=1e-3, c=1.0, eps=0.1, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_data, n_feats))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    z = rng.standard_normal((n_data, n_classes))
    labels = LabelVector(rng.integers(0, n_classes, n_data))
    return rp.ResponseProblem(X=x, Z_tilde=z, labels=labels, sigma0=sigma0,
                              c=c, epsilon=eps, seed=seed)


def test_problem_validation():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3))  # not unit-normalized
    z = rng.standard_normal((4, 2))
    with pytest.raises(rp.ResponseError, match="unit-normalized"):
        rp.ResponseProblem(X=x, Z_tilde=z, labels=LabelVector([0, 1, 0, 1]))


@pytest.mark.parametrize("x_shape,z_shape", [((0, 3), (0, 2)), ((4, 0), (4, 2)),
                                             ((4, 3), (4, 0))],
                         ids=["no_rows", "no_features", "no_classes"])
def test_problem_refuses_empty_matrices(x_shape, z_shape):
    # a zero-width Z_tilde would set the trace target to 0, met only as
    # lambda -> -inf
    with pytest.raises(rp.ResponseError, match="non-empty"):
        rp.ResponseProblem(X=np.ones(x_shape), Z_tilde=np.zeros(z_shape),
                           labels=LabelVector([]))


# ---------- lambda* ----------

def _trace_residual(p, lam):
    """Relative residual of the trace equation at lam, from a dense inverse."""
    x, z = p.X, p.Z_tilde
    n_feats, n_classes = x.shape[1], z.shape[1]
    r = np.linalg.inv(x.T @ x - lam * np.eye(n_feats))
    tr = np.trace(x @ r @ r @ x.T @ (z @ z.T + p.sigma0**2 * np.eye(x.shape[0])))
    target = p.c**2 * n_feats * n_classes
    return abs(tr - target) / target


def test_lambda_star_residual():
    p = _problem()
    assert _trace_residual(p, rp.fyodorov_omega(p).lambda_star) < 1e-8


def test_lambda_star_orthonormal_closed_form():
    # X with orthonormal columns: X^T X = I, so the trace equation collapses
    # to a scalar in (1 - lambda)^-2
    rng = np.random.default_rng(1)
    n_data, n_feats, n_classes = 12, 6, 4
    q, _ = np.linalg.qr(rng.standard_normal((n_data, n_feats)))
    # rows of q are not unit norm; bypass row normalization by scaling rows
    # is impossible while keeping columns orthonormal, so test the solver
    # directly on the unnormalized design
    z = rng.standard_normal((n_data, n_classes))
    sigma0 = 1e-3
    labels = LabelVector(np.zeros(n_data, dtype=int))
    p = rp.ResponseProblem.__new__(rp.ResponseProblem)
    object.__setattr__(p, "X", q)
    object.__setattr__(p, "Z_tilde", z)
    object.__setattr__(p, "labels", labels)
    object.__setattr__(p, "sigma0", sigma0)
    object.__setattr__(p, "c", 1.0)
    object.__setattr__(p, "epsilon", 0.0)
    object.__setattr__(p, "seed", 0)
    lam = rp.solve_lambda_star(p)
    tr0 = np.trace(q @ q.T @ (z @ z.T + sigma0**2 * np.eye(n_data)))
    expect = 1.0 - np.sqrt(tr0 / (n_feats * n_classes))
    assert lam == pytest.approx(expect, rel=1e-9)


def test_lambda_star_monotone_in_c():
    p = _problem()
    lams = []
    for c in (0.5, 1.0, 2.0):
        q = rp.ResponseProblem(X=p.X, Z_tilde=p.Z_tilde, labels=p.labels,
                               sigma0=p.sigma0, c=c, epsilon=0.1, seed=p.seed)
        lams.append(rp.solve_lambda_star(q))
    assert lams[0] < lams[1] < lams[2]


@pytest.mark.parametrize("n_data,n_feats", [(20, 8), (50, 80)], ids=["tall_20x8", "wide_50x80"])
@pytest.mark.parametrize("c", [1e-7, 1e-9])
def test_lambda_star_small_c_solves_below_the_fixed_bracket(n_data, n_feats, c):
    # the trace falls to 0 as lambda -> -inf, so a small c has a root far
    # below -1e6; the bracket's lower end follows the trace's asymptote
    p = _problem(n_data=n_data, n_feats=n_feats, c=c)
    lam = rp.solve_lambda_star(p)
    assert lam < -1e6
    assert _trace_residual(p, lam) < 1e-8


def test_lambda_star_unreachable_target_raises():
    # a wide X caps the trace at lambda -> 0-, far below c = 1e3's target
    p = _problem(n_data=8, n_feats=20, c=1e3)
    with pytest.raises(rp.ResponseError, match="trace range") as e:
        rp.solve_lambda_star(p)
    # the low end is the trace at the bracket's end, not trace - target + target
    low = float(re.search(r"range \[(\S+),", str(e.value)).group(1))
    assert low > 0


# ---------- brentq against scipy ----------

def _bracketed(rng):
    """A seeded function with a sign change on its bracket, and the bracket."""
    r = rng.uniform(-10, 10)
    a, b = r - rng.uniform(1e-3, 20), r + rng.uniform(1e-3, 20)
    c, k, q = rng.uniform(0.1, 5), rng.uniform(0.1, 5), rng.uniform(0.2, 3)
    f = [
        lambda x: c * (x - r) + k * (x - r) ** 3,
        lambda x: c * math.copysign(abs(x - r) ** q, x - r) - 1e-3 * k,
        lambda x: c * math.expm1(k * (x - r)),
        lambda x: math.atan(k * (x - r)) + 1e-300,
        lambda x: (x - r) * math.exp(-k * (x - r) ** 2) + 1e-2 * c * (x - r),
    ][rng.integers(0, 5)]
    return (f, b, a) if rng.random() < 0.5 else (f, a, b)


def test_brentq_matches_scipy_bit_for_bit_on_random_functions():
    rng = np.random.default_rng(12)
    for _ in range(1200):
        f, a, b = _bracketed(rng)
        tol = {"xtol": 10.0 ** rng.uniform(-16, -2), "rtol": 10.0 ** rng.uniform(-15, -3)}
        want = scipy_brentq(f, a, b, **tol)
        assert rp.brentq(f, a, b, **tol) == want


@pytest.mark.parametrize("n_data,n_feats,c", [(20, 8, 1.0), (12, 30, 0.5), (16, 16, 1.0),
                                              (20, 8, 1e-9)],
                         ids=["tall_20x8", "wide_12x30", "square_16x16", "tall_small_c"])
def test_brentq_matches_scipy_on_the_lambda_star_objective(monkeypatch, n_data, n_feats, c):
    port, solves = rp.brentq, []

    def both(f, a, b, **tol):
        solves.append((port(f, a, b, **tol), scipy_brentq(f, a, b, **tol)))
        return solves[-1][0]

    monkeypatch.setattr(rp, "brentq", both)
    for seed in range(3):
        rp.solve_lambda_star(_problem(n_data=n_data, n_feats=n_feats, c=c, seed=seed))
    assert len(solves) == 3
    assert all(got == want for got, want in solves)


@pytest.mark.parametrize("f,a,b,kw,match", [
    (lambda x: x * x + 1.0, -1.0, 2.0, {}, "same sign"),
    (lambda x: math.nan if 0.3 < x < 0.9 else x - 0.75, 0.0, 1.0, {}, "NaN at 0.75"),
    (lambda x: math.nan, 0.0, 1.0, {}, "NaN"),
    (lambda x: x**3 - 2.0, 0.0, 2.0, {"maxiter": 3}, "no convergence"),
], ids=["same_sign", "nan_inside", "nan_at_end", "maxiter"])
def test_brentq_errors_are_response_errors(f, a, b, kw, match):
    tol = {"xtol": 2e-12, "rtol": 1e-12, **kw}
    with pytest.raises(rp.ResponseError, match=match):
        rp.brentq(f, a, b, **tol)
    with pytest.raises((ValueError, RuntimeError)):  # scipy fails on the same inputs
        scipy_brentq(f, a, b, **tol)


# ---------- omega ----------

def test_identity_design_recovers_targets():
    n = 6
    rng = np.random.default_rng(3)
    z = rng.standard_normal((n, 4))
    c = np.linalg.norm(z) / np.sqrt(n * 4)  # puts lambda* at exactly 0
    p = rp.ResponseProblem(X=np.eye(n), Z_tilde=z,
                           labels=LabelVector(np.zeros(n, dtype=int)),
                           sigma0=0.0, c=c, epsilon=0.0, seed=0)
    sol = rp.fyodorov_omega(p)
    assert abs(sol.lambda_star) < 1e-9
    assert np.allclose(sol.omega, z, atol=1e-9)
    assert np.allclose(p.X @ sol.omega, z, atol=1e-9)


def test_omega_matches_direct_solve():
    p = _problem()
    sol = rp.fyodorov_omega(p)
    gram = p.X.T @ p.X - sol.lambda_star * np.eye(p.X.shape[1])
    direct = np.linalg.solve(gram, p.X.T @ (p.Z_tilde - p.sigma0 * sol.W))
    assert np.abs(sol.omega - direct).max() < 1e-10


def test_omega_norm_matches_constraint():
    # the trace equation pins E_W ||omega||^2 = c^2 N_f N_c; with a concrete
    # noise draw the realized norm deviates by O(sigma0)
    p = _problem(sigma0=1e-6)
    sol = rp.fyodorov_omega(p)
    n_feats, n_classes = sol.omega.shape
    assert np.linalg.norm(sol.omega) == pytest.approx(
        p.c * np.sqrt(n_feats * n_classes), rel=1e-5
    )


# ---------- jacobians ----------

def test_jacobian_zero_targets():
    p = _problem()
    q = rp.ResponseProblem(X=p.X, Z_tilde=np.zeros_like(p.Z_tilde), labels=p.labels,
                           sigma0=p.sigma0, c=p.c, epsilon=0.1, seed=p.seed)
    sol = rp.FyodorovSolution(omega=np.zeros((p.X.shape[1], p.Z_tilde.shape[1])),
                              lambda_star=-1.0, W=np.zeros_like(p.Z_tilde))
    jac = rp.jacobian_block(sol, q, 0)
    assert np.all(jac == 0)


def test_jacobian_linearity_in_targets():
    p = _problem()
    sol = rp.fyodorov_omega(p)
    p2 = rp.ResponseProblem(X=p.X, Z_tilde=2 * p.Z_tilde, labels=p.labels,
                            sigma0=p.sigma0, c=p.c, epsilon=p.epsilon, seed=p.seed)
    j1 = rp.jacobian_block(sol, p, 3)
    j2 = rp.jacobian_block(sol, p2, 3)
    assert np.allclose(j2, 2 * j1, atol=1e-12)


def test_jacobian_finite_difference_oracle():
    # map x^mu -> z^mu = Z~^T X R x^mu with the resolvent R held fixed at
    # lambda*; sigma0 ~ 0 so the noise term drops out
    p = _problem(sigma0=1e-12)
    sol = rp.fyodorov_omega(p)
    x, z = p.X.copy(), p.Z_tilde
    r = np.linalg.inv(x.T @ x - sol.lambda_star * np.eye(x.shape[1]))
    for mu in (0, 5):
        jac = rp.jacobian_block(sol, p, mu)
        h = 1e-6
        fd = np.zeros_like(jac)
        for j in range(x.shape[1]):
            for sign, store in ((1, None),):
                xp = x.copy(); xp[mu, j] += h
                xm = x.copy(); xm[mu, j] -= h
                zp = (z.T @ xp @ r @ xp[mu])
                zm = (z.T @ xm @ r @ xm[mu])
                fd[:, j] = (zp - zm) / (2 * h)
        rel = np.linalg.norm(jac - fd) / np.linalg.norm(jac)
        assert rel < 1e-5


def _dense_omega(p, lam):
    """Omega = X R^2 X^T = T^T T with T = R X^T, R symmetric, from a dense solve."""
    t = np.linalg.solve(p.X.T @ p.X - lam * np.eye(p.X.shape[1]), p.X.T)
    return t.T @ t


def test_jj_transpose_product_symmetry_psd():
    # JJ^T_mu = Omega_mumu z z^T + Z~^T Omega Z~ + z b^T + b z^T with
    # b = Z~^T Omega[:, mu], the form _attack applies to every sample at once
    p = _problem()
    sol = rp.fyodorov_omega(p)
    omega, z = _dense_omega(p, sol.lambda_star), p.Z_tilde
    for mu in range(5):
        b = z.T @ omega[:, mu]
        expect = (omega[mu, mu] * np.outer(z[mu], z[mu]) + z.T @ omega @ z
                  + np.outer(z[mu], b) + np.outer(b, z[mu]))
        jj = rp.jj_transpose(sol, p, mu)
        assert np.abs(jj - expect).max() < 1e-10
        assert np.abs(jj - jj.T).max() < 1e-12
        assert np.linalg.eigvalsh(jj).min() >= -1e-10


def test_jacobian_index_error():
    p = _problem()
    sol = rp.fyodorov_omega(p)
    with pytest.raises(rp.ResponseError):
        rp.jacobian_block(sol, p, 99)


# ---------- FGSM response ----------

def test_fgsm_zero_epsilon():
    p = _problem(eps=0.0)
    sol = rp.fyodorov_omega(p)
    assert np.all(rp.fgsm_logit_response(sol, p) == 0)


def test_fgsm_first_order_ascent():
    p = _problem(eps=1e-3)
    sol = rp.fyodorov_omega(p)
    dz = rp.fgsm_logit_response(sol, p)
    for mu in range(p.X.shape[0]):
        y = int(p.labels.labels[mu])
        before = sg.exact_ce(p.Z_tilde[mu], y)
        after = sg.exact_ce(p.Z_tilde[mu] + dz[mu], y)
        assert after >= before - 1e-5  # ascends up to O(eps^2)


def test_fgsm_normalization():
    # ||Jac^T grad|| = sqrt(g' JJ' g); the shift has magnitude eps along it
    p = _problem(eps=0.1)
    sol = rp.fyodorov_omega(p)
    dz = rp.fgsm_logit_response(sol, p)
    mu = 0
    y = np.zeros(p.Z_tilde.shape[1])
    y[p.labels.labels[mu]] = 1.0
    g = softmax(p.Z_tilde[mu]) - y
    jj = rp.jj_transpose(sol, p, mu)
    expect = p.epsilon * jj @ g / np.sqrt(g @ jj @ g)
    assert np.allclose(dz[mu], expect, atol=1e-12)


def test_fgsm_rows_match_dense_omega_on_several_row_blocks():
    # diag Omega is summed one block of rows of X V at a time; 700 rows of
    # 400 make three blocks, the last one ragged
    n_data, n_feats = 700, 400
    assert 2 < n_data / (BLOCK_VALUES // n_feats) < 3
    p = _problem(n_data=n_data, n_feats=n_feats, eps=0.1)
    sol = rp.fyodorov_omega(p)
    dz = rp.fgsm_logit_response(sol, p)
    z = p.Z_tilde
    omega = _dense_omega(p, sol.lambda_star)
    g = softmax(z) - np.eye(z.shape[1])[p.labels.labels]
    b = omega @ z                       # row mu is Z~^T Omega[:, mu]
    zg = np.einsum("ij,ij->i", z, g)
    jjg = (np.diag(omega) * zg)[:, None] * z + g @ (z.T @ omega @ z) \
        + np.einsum("ij,ij->i", b, g)[:, None] * z + zg[:, None] * b
    expect = p.epsilon * jjg / np.sqrt(np.einsum("ij,ij->i", g, jjg))[:, None]
    assert np.abs(dz - expect).max() < 1e-10


# ---------- end-to-end experiment ----------

def test_gap_shift_zero_epsilon():
    params = sg.MeanFieldParams(5.0, 5.0, 10, 0.2)
    pred, mean, std = rp.gap_shift_experiment(params, 60, 30, 0.0, seed=4)
    assert pred == 0.0
    assert mean == 0.0


def test_gap_shift_negative_and_reproducible():
    params = sg.MeanFieldParams(5.0, 5.0, 10, 0.2)
    out1 = rp.gap_shift_experiment(params, 100, 50, 0.1, seed=5)
    out2 = rp.gap_shift_experiment(params, 100, 50, 0.1, seed=5)
    assert out1 == out2
    pred, mean, _ = out1
    assert mean < 0
    assert pred < 0


# ---------- wide and square designs ----------

# (n_data, n_feats, c): a wide X leaves X^T X singular and takes the X X^T
# eigendecomposition; c is set so that lambda* exists on each design.
DESIGNS = [(12, 30, 0.5), (16, 16, 1.0)]
DESIGN_IDS = ["wide_12x30", "square_16x16"]


@pytest.mark.parametrize("n_data,n_feats,c", DESIGNS, ids=DESIGN_IDS)
def test_spectral_state_oracles_on_wide_and_square_designs(n_data, n_feats, c):
    p = _problem(n_data=n_data, n_feats=n_feats, c=c, sigma0=1e-12)
    sol = rp.fyodorov_omega(p)
    x, z = p.X, p.Z_tilde
    n_classes = z.shape[1]
    gram = x.T @ x - sol.lambda_star * np.eye(n_feats)
    r = np.linalg.inv(gram)
    # lambda* solves the trace equation
    tr = np.trace(x @ r @ r @ x.T @ (z @ z.T + p.sigma0**2 * np.eye(n_data)))
    target = p.c**2 * n_feats * n_classes
    assert abs(tr - target) / target < 1e-8
    # omega is the direct solve
    direct = np.linalg.solve(gram, x.T @ (z - p.sigma0 * sol.W))
    assert np.abs(sol.omega - direct).max() < 1e-10
    for mu in (0, n_data - 1):
        # Jacobian against central differences of x^mu -> Z~^T X R x^mu
        jac = rp.jacobian_block(sol, p, mu)
        h = 1e-6
        fd = np.zeros_like(jac)
        for j in range(n_feats):
            xp = x.copy(); xp[mu, j] += h
            xm = x.copy(); xm[mu, j] -= h
            fd[:, j] = (z.T @ xp @ r @ xp[mu] - z.T @ xm @ r @ xm[mu]) / (2 * h)
        assert np.linalg.norm(jac - fd) / np.linalg.norm(jac) < 1e-5
        jj = rp.jj_transpose(sol, p, mu)
        assert np.abs(jj - fd @ fd.T).max() < 1e-8 * np.abs(jj).max()
        assert np.abs(jj - jj.T).max() < 1e-12


@pytest.mark.parametrize(
    "n_data,n_feats,c", [(20, 8, 1.0)] + DESIGNS, ids=["tall_20x8"] + DESIGN_IDS
)
def test_fgsm_rows_match_jj_transpose_for_every_sample(n_data, n_feats, c):
    p = _problem(n_data=n_data, n_feats=n_feats, c=c, eps=0.1)
    sol = rp.fyodorov_omega(p)
    dz = rp.fgsm_logit_response(sol, p)
    y = np.eye(p.Z_tilde.shape[1])[p.labels.labels]
    g = softmax(p.Z_tilde) - y
    for mu in range(n_data):
        jj = rp.jj_transpose(sol, p, mu)
        expect = p.epsilon * jj @ g[mu] / np.sqrt(g[mu] @ jj @ g[mu])
        assert np.allclose(dz[mu], expect, atol=1e-12)


@pytest.mark.parametrize("n_data,n_feats,expect", [
    (200, 100, (-0.6060773719320257, -1.1778354358450778, 0.09854244726470314)),
    (100, 200, (-1.3094811293805277, -1.588595820050455, 0.09444254717119166)),
], ids=["tall_200x100", "wide_100x200"])
def test_gap_shift_pinned_values(n_data, n_feats, expect):
    # values from the resolvent-inverse implementation this module replaced
    params = sg.MeanFieldParams(5.0, 5.0, 10, 0.2)
    out = rp.gap_shift_experiment(params, n_data, n_feats, 0.1, seed=0)
    assert out == pytest.approx(expect, rel=1e-12, abs=0.0)

