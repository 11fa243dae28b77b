import itertools

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.stats import norm

from logitlab import cli
from logitlab import mftma as mf
from logitlab.store import LogitMatrix, store_matrix


# ---------- capacity closed forms ----------

def test_alpha_point_kappa_zero():
    assert mf.alpha_point(0.0) == pytest.approx(2.0, abs=1e-10)


def test_alpha_point_closed_form():
    for kappa in (0.0, 0.5, 1.0, 2.0):
        closed = 1.0 / ((1 + kappa**2) * norm.cdf(kappa) + kappa * norm.pdf(kappa))
        assert mf.alpha_point(kappa) == pytest.approx(closed, abs=1e-10)


def test_alpha_point_large_kappa_vanishes():
    assert mf.alpha_point(6.0) < 0.03


def test_capacities_refuse_negative_or_non_finite_arguments():
    for kappa in (-1.0, -1e-12, np.inf, np.nan):
        with pytest.raises(mf.MftmaError, match="kappa"):
            mf.alpha_point(kappa)
    for r, d in ((-1.0, 2.0), (1.0, -2.0), (np.inf, 2.0), (1.0, np.nan)):
        with pytest.raises(mf.MftmaError, match="R and D"):
            mf.alpha_ball(r, d)
    # R^2 overflowed in R**2 (an OverflowError); R^2 D in the shortfall, giving 0
    for r, d in ((1e200, 0.0), (1e200, 1.0), (1e150, 1e10)):
        with pytest.raises(mf.MftmaError) as err:
            mf.alpha_ball(r, d)
        assert str(err.value) == f"R = {r:g}, D = {d:g} put R^2 or R^2 D beyond float range"


def test_capacities_reach_their_large_argument_limits():
    # the Gaussian mass below the margin is all of it: E[(a - t)_+^2] -> a^2 + 1
    for kappa in (10.0, 40.0, 1e3):
        assert mf.alpha_point(kappa) == pytest.approx(1.0 / (kappa**2 + 1.0), rel=1e-14)
    for r, d in ((10.0, 20.0), (10.0, 100.0), (3.0, 1e4)):
        assert mf.alpha_ball(r, d) == pytest.approx((r**2 + 1.0) / (r**2 * d + 1.0), rel=1e-14)
    # numerical quadrature lost this mass: 2.2e24 and a ZeroDivisionError
    assert mf.alpha_point(40.0) == pytest.approx(6.246e-4, rel=1e-3)
    assert mf.alpha_ball(10.0, 100.0) == pytest.approx(101.0 / 10001.0, rel=1e-14)


def test_alpha_ball_reduces_to_point_at_zero_radius():
    for d in (1.0, 4.0, 20.0):
        assert mf.alpha_ball(0.0, d) == pytest.approx(2.0, abs=1e-10)


def test_alpha_ball_nonincreasing_in_radius():
    vals = [mf.alpha_ball(r, 5.0) for r in (0.0, 0.2, 0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_alpha_ball_monte_carlo_oracle():
    rng = np.random.default_rng(0)
    R, D = 0.7, 3.0
    lim = R * np.sqrt(D)
    t = rng.standard_normal(2_000_000)
    samp = np.where(t < lim, (lim - t) ** 2 / (R**2 + 1), 0.0)
    mc_inv = samp.mean()
    se = samp.std() / np.sqrt(t.size)
    assert abs(1.0 / mf.alpha_ball(R, D) - mc_inv) < 3 * se


# ---------- anchor point ----------

def _embed(cloud):
    """The anchor problem of a cloud given in subspace coordinates: the center
    coordinate 1 appended to each point."""
    return np.hstack([cloud, np.ones((cloud.shape[0], 1))])


def _exhaustive_anchor(cloud, t, t0, kappa=0.0):
    """Enumerate all active sets; return the optimal ||V - T||^2."""
    m = cloud.shape[0]
    s_emb = _embed(cloud)
    t_emb = np.append(t, t0)
    if np.all(s_emb @ t_emb + kappa <= 1e-15):
        return 0.0
    best = np.inf
    for r in range(1, m + 1):
        for subset in itertools.combinations(range(m), r):
            g = s_emb[list(subset)] @ s_emb[list(subset)].T
            b = s_emb[list(subset)] @ t_emb + kappa
            a, *_ = np.linalg.lstsq(g, b, rcond=None)
            if a.min() < -1e-12:
                continue
            full = np.zeros(m)
            full[list(subset)] = a
            v = t_emb - s_emb.T @ full
            if np.all(s_emb @ v + kappa <= 1e-9):
                best = min(best, float(np.sum((v - t_emb) ** 2)))
    return best


def test_anchor_interior_sentinel():
    cloud = np.array([[1.0, 0.0], [0.0, 1.0]])
    # T deep in the feasible halfspace: V = T works (all constraints slack)
    s, w = mf.anchor_point(_embed(cloud), np.array([-5.0, -5.0, -5.0]))
    assert s is mf.INTERIOR
    assert np.all(w == 0)


def test_anchor_single_point():
    cloud = np.array([[0.5, -0.2]])
    s, w = mf.anchor_point(_embed(cloud), np.array([1.0, 1.0, 2.0]))
    assert s is not mf.INTERIOR
    assert np.allclose(s, cloud[0], atol=1e-8)
    assert w[0] == pytest.approx(1.0)


def test_anchor_exhaustive_oracle():
    rng = np.random.default_rng(1)
    for trial in range(20):
        cloud = rng.standard_normal((5, 3))
        t = rng.standard_normal(3)
        t0 = float(rng.standard_normal())
        t_emb = np.append(t, t0)
        s, w = mf.anchor_point(_embed(cloud), t_emb)
        oracle = _exhaustive_anchor(cloud, t, t0)
        if s is mf.INTERIOR:
            assert oracle == pytest.approx(0.0, abs=1e-12)
            continue
        # reconstruct ||V - T||^2 from the anchor representation
        anchor_emb = np.append(s, 1.0)
        total = (t_emb @ anchor_emb) / (anchor_emb @ anchor_emb)
        val = max(total, 0.0) ** 2 * float(anchor_emb @ anchor_emb)
        assert val == pytest.approx(oracle, abs=1e-8)
        assert w.min() >= 0
        assert w.sum() == pytest.approx(1.0)


def test_anchor_kappa_validation():
    with pytest.raises(mf.MftmaError):
        mf.anchor_point(_embed(np.zeros((1, 2))), np.zeros(3), kappa=-1.0)


@pytest.mark.parametrize("kappa", [np.nan, np.inf])
def test_anchor_kappa_must_be_finite(kappa):
    with pytest.raises(mf.MftmaError, match="kappa must be finite and nonnegative"):
        mf.anchor_point(_embed(np.zeros((1, 2))), np.zeros(3), kappa=kappa)


# ---------- capacity ----------

def _ball_set(rng, p=15, n=40, d=3, radius=0.4, m=30):
    clouds = []
    for _ in range(p):
        c = rng.standard_normal(n)
        c /= np.linalg.norm(c)
        basis = np.linalg.qr(rng.standard_normal((n, d)))[0]
        pts = rng.standard_normal((m, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        clouds.append(c + (radius * pts) @ basis.T)
    return mf.ManifoldSet(tuple(clouds))


def test_point_manifold_capacity_is_two():
    rng = np.random.default_rng(2)
    clouds = tuple(rng.standard_normal((1, 50)) for _ in range(30))
    res = mf.mftma_capacity(mf.ManifoldSet(clouds), n_samples=2000, seed=3)
    assert res.alpha_mftma == pytest.approx(2.0, rel=0.05)
    assert res.radius == 0.0


def test_radius_grows_with_scaling():
    rng = np.random.default_rng(4)
    mset = _ball_set(rng, p=6, m=15)
    r1 = mf.mftma_capacity(mset, n_samples=100, seed=5).radius
    scaled = tuple(
        c.mean(axis=0) + 2.0 * (c - c.mean(axis=0)) for c in mset.clouds
    )
    r2 = mf.mftma_capacity(mf.ManifoldSet(scaled), n_samples=100, seed=5).radius
    assert r2 > r1


def test_ball_manifolds_match_ball_formula():
    rng = np.random.default_rng(6)
    mset = _ball_set(rng, p=12, radius=0.3, d=4, m=40)
    res = mf.mftma_capacity(mset, n_samples=400, seed=7)
    ball = mf.alpha_ball(res.radius, res.dimension)
    assert abs(res.alpha_mftma - ball) / ball < 0.10
    assert 0.0 <= res.dimension <= 5.0


def test_capacity_deterministic():
    rng = np.random.default_rng(8)
    mset = _ball_set(rng, p=4, m=8)
    a = mf.mftma_capacity(mset, n_samples=50, seed=9)
    b = mf.mftma_capacity(mset, n_samples=50, seed=9)
    assert a == b


def test_center_correlation_range():
    rng = np.random.default_rng(10)
    mset = _ball_set(rng, p=8, m=5)
    rho = mf.center_correlation(mset)
    assert 0.0 <= rho <= 1.0


# ---------- null-space projection ----------

def test_project_null_centers_reduces_correlation():
    rng = np.random.default_rng(11)
    shared = rng.standard_normal(30)
    clouds = []
    for _ in range(5):
        c = shared + 0.3 * rng.standard_normal(30)
        clouds.append(c + 0.1 * rng.standard_normal((6, 30)))
    mset = mf.ManifoldSet(tuple(clouds))
    before = mf.center_correlation(mset)
    after_set = mf.project_null_centers(mset)
    after = mf.center_correlation(after_set)
    assert after < before
    assert after_set.clouds[0].shape == mset.clouds[0].shape


def test_project_null_centers_orthogonality():
    mset = mf.ManifoldSet((np.random.default_rng(12).standard_normal((4, 20)),
                           np.random.default_rng(13).standard_normal((4, 20)),
                           np.random.default_rng(14).standard_normal((4, 20))))
    out = mf.project_null_centers(mset)
    all_points = np.vstack(mset.clouds)
    gmean = all_points.mean(axis=0)
    centers = [c.mean(axis=0) - gmean for c in mset.clouds]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            proj = out.clouds[i] @ centers[j]
            assert np.abs(proj).max() < 1e-9


def test_project_null_centers_dimension_guard():
    clouds = tuple(np.random.default_rng(15).standard_normal((2, 3)) for _ in range(4))
    with pytest.raises(mf.MftmaError):
        mf.project_null_centers(mf.ManifoldSet(clouds))


# ---------- empirical capacity ----------

def test_empirical_point_capacity_near_two():
    rng = np.random.default_rng(16)
    clouds = tuple(rng.standard_normal((1, 80)) for _ in range(40))
    cap = mf.empirical_capacity(mf.ManifoldSet(clouds), n_dichotomies=60, seed=17)
    assert cap == pytest.approx(2.0, rel=0.15)


def test_empirical_capacity_bounded():
    rng = np.random.default_rng(18)
    mset = _ball_set(rng, p=6, m=10)
    cap = mf.empirical_capacity(mset, n_dichotomies=30, seed=19)
    assert 0 < cap <= mset.P


@pytest.mark.parametrize("n_dichotomies", [0, -1])
def test_empirical_capacity_needs_a_dichotomy(n_dichotomies):
    mset = _ball_set(np.random.default_rng(18), p=3, m=4)
    with pytest.raises(mf.MftmaError, match="n_dichotomies must be >= 1"):
        mf.empirical_capacity(mset, n_dichotomies=n_dichotomies)


def test_manifold_set_validation():
    with pytest.raises(mf.MftmaError):
        mf.ManifoldSet(())
    with pytest.raises(mf.MftmaError):
        mf.ManifoldSet((np.zeros((2, 3)), np.zeros((2, 4))))
    with pytest.raises(mf.MftmaError):
        mf.ManifoldSet((np.array([[np.nan, 1.0]]),))
    # points without coordinates ended in an IndexError in mftma_capacity
    with pytest.raises(mf.MftmaError, match="cloud 0 must be a nonempty 2-D point array"):
        mf.ManifoldSet((np.zeros((2, 0)), np.zeros((3, 0))))


def test_manifold_set_refuses_points_beyond_a_quarter_of_float_range():
    # near 1e200 squared norms overflow, and numpy warned and wrote nan
    rng = np.random.default_rng(22)
    with pytest.raises(mf.MftmaError) as err:
        mf.ManifoldSet(tuple(rng.standard_normal((4, 6)) * 1e200 for _ in range(3)))
    assert str(err.value) == (
        "cloud 0 has a point whose squared norm is beyond a quarter of float range")
    # centering doubles a length at most: centers v, v and -v become 2v/3, 2v/3
    # and -4v/3, so points up to half the largest norm run without a warning
    root_max = np.sqrt(np.finfo(np.float64).max)
    for half, accepted in ((0.49, True), (0.51, False)):
        v = np.zeros(5)
        v[0] = half * root_max
        clouds = tuple(sign * (v + 1e-3 * half * root_max * rng.uniform(-1, 1, (3, 5)))
                       for sign in (1.0, 1.0, -1.0))
        if not accepted:
            with pytest.raises(mf.MftmaError, match="beyond a quarter of float range"):
                mf.ManifoldSet(clouds)
            continue
        mset = mf.ManifoldSet(clouds)
        assert 0.0 <= mf.mftma_capacity(mset, n_samples=5).center_correlation <= 1.0
        mf.mftma_capacity(mf.project_null_centers(mset), n_samples=5)


def test_subspace_coords_end_in_the_center_coordinate():
    cloud = np.random.default_rng(23).standard_normal((6, 9)) + 3.0
    s_emb = mf._subspace_coords(cloud)
    assert s_emb.shape == (6, 6)  # rank 5 once centered, then the center coordinate
    assert (s_emb[:, -1] == 1.0).all()
    # one point has rank 0: its one subspace coordinate is 0
    assert mf._subspace_coords(cloud[:1]).tolist() == [[0.0, 1.0]]


@pytest.mark.parametrize("kappa", [0.3, 1.0])
def test_anchor_kkt_oracle_with_margin(kappa):
    # KKT of min ||V - T||^2 s.t. S V <= -kappa: a >= 0, V = T - S^T a,
    # primal feasibility and complementary slackness, point by point
    rng = np.random.default_rng(21)
    anchors = 0
    for trial in range(60):
        m, d = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        cloud = rng.standard_normal((m, d))
        t = rng.standard_normal(d)
        t0 = float(rng.standard_normal())
        s_emb = _embed(cloud)
        t_emb = np.append(t, t0)
        s, w = mf.anchor_point(s_emb, t_emb, kappa)
        if s is mf.INTERIOR:
            assert np.all(s_emb @ t_emb + kappa <= 0.0)  # T itself is feasible
            continue
        anchors += 1
        anchor = np.append(s, 1.0)
        assert np.abs(s_emb.T @ w - anchor).max() < 1e-12
        # the scale of a = total * w follows from sum_i a_i (S_i.V + kappa) = 0
        total = (t_emb @ anchor + kappa) / (anchor @ anchor)
        a = total * w
        assert a.min() >= 0.0
        slack = s_emb @ (t_emb - s_emb.T @ a) + kappa
        assert slack.max() <= 1e-9
        assert np.abs(a * slack).max() <= 1e-9
    assert anchors > 0


# ---------- separability ----------

def _lp_margin(points, labels):
    """The box-margin LP, the oracle for the NNLS certificate:
    m* = max m s.t. y_i w.x_i >= m, ||w||_inf <= 1."""
    n_pts, dim = points.shape
    signed = labels[:, None] * points
    a_ub = np.hstack([-signed, np.ones((n_pts, 1))])
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n_pts),
                  bounds=[(-1.0, 1.0)] * dim + [(0.0, None)], method="highs")
    assert res.success
    return float(res.x[-1])


def _recorded_calls(monkeypatch, mset, n_dichotomies, seed):
    """Every (points, labels) the bisection of empirical_capacity decides."""
    calls = []
    separable = mf._separable

    def record(points, labels, tol=1e-9):
        calls.append((points, labels))
        return separable(points, labels, tol)

    with monkeypatch.context() as m:
        m.setattr(mf, "_separable", record)
        mf.empirical_capacity(mset, n_dichotomies=n_dichotomies, seed=seed)
    return calls


def test_separable_matches_lp(monkeypatch):
    cases = []
    rng = np.random.default_rng(30)
    # the bench's ball geometry: 12 manifolds x 40 points, ambient 40, at
    # every projected dimension its bisection visits
    for seed in range(3):
        cases += _recorded_calls(monkeypatch, _ball_set(rng, p=12, d=4, radius=0.4, m=40),
                                 10, seed)
    # criterion 8's balls
    cases += _recorded_calls(monkeypatch, _ball_set(rng, p=12, d=4, radius=0.3, m=40), 10, 20)
    # Gaussian point clouds around the point capacity n = 2d
    for _ in range(300):
        d = int(rng.integers(1, 25))
        n = int(rng.integers(max(2, d), 4 * d + 3))
        cases.append((rng.standard_normal((n, d)), rng.choice([-1.0, 1.0], size=n)))
    assert len(cases) >= 500
    decisions = [mf._separable(p, y) for p, y in cases]
    assert decisions == [_lp_margin(p, y) > 1e-9 for p, y in cases]
    assert 100 <= sum(decisions) <= len(cases) - 100  # both outcomes are tested


def test_certified_margin_brackets_lp_margin():
    # m* / sqrt(d) <= certified <= m*, the bound _separable's rule rests on
    rng = np.random.default_rng(31)
    for _ in range(120):
        d = int(rng.integers(1, 8))
        n = int(rng.integers(1, 3 * d + 3))
        points = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2)
        labels = rng.choice([-1.0, 1.0], size=n)
        certified = mf._certified_margin(labels[:, None] * points)
        m_star = _lp_margin(points, labels)
        slack = 1e-9 * max(1.0, m_star)
        assert m_star / np.sqrt(d) - slack <= certified <= m_star + slack


def test_certificates_decide_without_lp():
    # {x, -x}: 0 is the midpoint, so no w has both margins positive
    x = np.array([[0.3, -1.2, 2.0]])
    pair = np.vstack([x, -x])
    assert mf._certified_margin(pair) == 0.0
    assert not mf._separable(pair, np.ones(2))
    # (+-1, delta) has box margin exactly delta, at w = (0, 1)
    delta = 1e-3
    two = np.array([[1.0, delta], [-1.0, delta]])
    assert mf._certified_margin(two) == pytest.approx(delta, rel=1e-12)
    assert mf._separable(two, np.ones(2), tol=0.9 * delta)
    assert not mf._separable(two, np.ones(2), tol=1.1 * delta)
    assert not mf._separable(np.array([[1.0, 5e-10], [-1.0, 5e-10]]), np.ones(2))


def test_margin_lost_to_nnls_rounding_is_not_separable():
    # box margin 2e-9 > tol, but the least-distance solution has norm 5e8, so
    # its residual is lost to rounding and no margin is certified
    points = np.array([[1.0, 2e-9], [-1.0, 2e-9]])
    assert _lp_margin(points, np.ones(2)) == pytest.approx(2e-9, rel=1e-6)
    assert mf._certified_margin(points) <= 1e-9
    assert not mf._separable(points, np.ones(2))


def test_nnls_failure_raises(monkeypatch, tmp_path, capsys):
    def no_convergence(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    message = "separability NNLS did not converge: Maximum number of iterations reached."
    mset = _ball_set(np.random.default_rng(32), p=3, m=4)
    with monkeypatch.context() as m:
        m.setattr(mf, "nnls", no_convergence)
        with pytest.raises(mf.MftmaError) as err:
            mf.empirical_capacity(mset, n_dichotomies=3)
    assert str(err.value) == message
    # the CLI's anchors solve; its separability NNLS then fails: exit 4, one line
    for i, cloud in enumerate(mset.clouds):
        store_matrix(LogitMatrix(cloud), tmp_path / f"c{i}.lgt")
    (tmp_path / "manifolds.txt").write_text("c0.lgt\nc1.lgt\nc2.lgt\n")
    capacity = mf.mftma_capacity

    def then_fail(*args):
        result = capacity(*args)
        monkeypatch.setattr(mf, "nnls", no_convergence)
        return result

    monkeypatch.setattr(mf, "mftma_capacity", then_fail)
    assert cli.main(["mftma", "--manifolds", str(tmp_path / "manifolds.txt"), "--n-samples",
                     "5", "--empirical", "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == f"error: numeric: {message}\n"
