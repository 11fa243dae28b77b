import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from logitlab import surrogate as sg


def _f_pm_decimal(beta: float, n: int, sign: int) -> float:
    """Independent extended-precision evaluation of the printed f formula."""
    getcontext().prec = 60
    b = Decimal(beta)
    a = (-b).exp() * (n - 1)
    rad = 1 + 2 * (-2 * b).exp() * (1 - a) / (1 + a) ** 2
    return float((1 + a) / (1 - a) * (-1 + sign * rad.sqrt()))


def _coeffs_decimal(beta: float, n: int, sign: int):
    getcontext().prec = 60
    bb = Decimal(beta)
    a = (-bb).exp() * (n - 1)
    b = (-bb).exp() * (n - 3)
    kappa = (1 + a) / (1 - b) * (1 + 2 * (1 - a) * (1 - b) / (1 + a)).sqrt()
    g = -(1 - b) / (1 - a) * (1 + sign * kappa)
    psi = 2 * ((-bb).exp() / (1 - a) * g - (1 + a) / (1 - b))
    return float(g), float(kappa), float(psi)


# ---------- closed-form coefficients ----------

def test_f_limits_at_large_beta():
    assert abs(sg.f_pm(40.0, 10, "plus")) < 1e-12
    assert sg.f_pm(40.0, 10, "minus") == pytest.approx(-2.0, abs=1e-12)


def test_f_extended_precision_oracle():
    for beta in (1.0, 3.0, 5.0, 8.0):
        for n in (4, 10, 100):
            for branch, sign in (("plus", 1), ("minus", -1)):
                assert sg.f_pm(beta, n, branch) == pytest.approx(
                    _f_pm_decimal(beta, n, sign), rel=1e-13
                )


def test_f_pole():
    with pytest.raises(sg.DomainError):
        sg.f_pm(math.log(9), 10)


def test_misclassified_limits_at_large_beta():
    # algebraic limits of the printed formulas: kappa -> sqrt(3),
    # g+- -> -(1 +- sqrt(3)), psi+- -> -2
    g_p, kappa, psi_p = sg.misclassified_coeffs(40.0, 10, "plus")
    g_m, _, psi_m = sg.misclassified_coeffs(40.0, 10, "minus")
    s3 = math.sqrt(3.0)
    assert kappa == pytest.approx(s3, abs=1e-10)
    assert g_p == pytest.approx(-(1 + s3), abs=1e-10)
    assert g_m == pytest.approx(s3 - 1, abs=1e-10)
    assert psi_p == pytest.approx(-2.0, abs=1e-10)
    assert psi_m == pytest.approx(-2.0, abs=1e-10)


def test_misclassified_extended_precision_oracle():
    for beta in (4.0, 5.0, 8.0):
        for n in (4, 10, 100):
            for branch, sign in (("plus", 1), ("minus", -1)):
                got = sg.misclassified_coeffs(beta, n, branch)
                want = _coeffs_decimal(beta, n, sign)
                for a, b in zip(got, want):
                    assert a == pytest.approx(b, rel=1e-12)


def test_misclassified_poles():
    with pytest.raises(sg.DomainError):
        sg.misclassified_coeffs(math.log(7), 10)
    with pytest.raises(sg.DomainError):
        sg.misclassified_coeffs(math.log(9), 10)


@pytest.mark.filterwarnings("error")
def test_n3_misclassified_coeffs_are_the_forms_without_the_n3_factor():
    # at N=3 the (N-3)e^-beta factor is 0: the forms hold as printed, silently
    a = 2 * math.exp(-5.0)
    kappa = (1 + a) * math.sqrt(1 + 2 * (1 - a) / (1 + a))
    g = -(1 + kappa) / (1 - a)
    psi = 2 * (math.exp(-5.0) / (1 - a) * g - (1 + a))
    assert sg.misclassified_coeffs(5.0, 3) == pytest.approx((g, kappa, psi), rel=1e-14)


# ---------- admissibility ----------

def test_admissible_examples():
    assert sg.admissible(sg.SurrogateSpec(10, 10.0, "correct", "plus"))
    assert not sg.admissible(sg.SurrogateSpec(10, 2.0, "misclassified", "plus"))
    assert sg.admissible(sg.SurrogateSpec(10, 5.0, "misclassified", "plus"))


def test_threshold_deterministic():
    a = sg.admissibility_threshold(10, "misclassified", "plus")
    b = sg.admissibility_threshold(10, "misclassified", "plus")
    assert a == b


def test_threshold_correct_case_unconstrained_above_pole():
    # f+ < beta on the whole grid above the pole ln(N-1); the crossing sits
    # far below it, so everything above the pole is admissible
    th = sg.admissibility_threshold(10, "correct", "plus")
    assert th < math.log(9)
    for beta in np.linspace(math.log(9) + 0.01, 100.0, 50):
        assert sg.admissible(sg.SurrogateSpec(10, float(beta), "correct", "plus"))


# ---------- surrogate vectors and losses ----------

def test_surrogate_logit_patterns():
    z = sg.surrogate_logit(sg.SurrogateSpec(10, 5.0, "correct", "plus"), 0, 0)
    f = sg.f_pm(5.0, 10, "plus")
    assert z[0] == 5.0
    assert np.allclose(z[1:], f)
    z = sg.surrogate_logit(sg.SurrogateSpec(10, 5.0, "misclassified", "plus"), 1, 0)
    g, _, psi = sg.misclassified_coeffs(5.0, 10, "plus")
    assert z[0] == 5.0
    assert z[1] == g
    assert np.allclose(z[2:], psi)


def test_surrogate_logit_invariants_over_grid():
    for beta in np.linspace(3.0, 9.0, 10):
        for case, (t, a) in (("correct", (0, 0)), ("misclassified", (1, 0))):
            spec = sg.SurrogateSpec(10, float(beta), case, "plus")
            if not sg.admissible(spec):
                continue
            z = sg.surrogate_logit(spec, t, a)
            assert z.argmax() == a
            assert z.max() == beta
            u = z.copy()
            u[a] = 0.0
            assert u.max() < beta  # strict S-set constraint
            assert abs(u[a]) < 1e-12  # orthogonal to phi_hat


def test_surrogate_logit_contradictions():
    with pytest.raises(sg.SurrogateError):
        sg.surrogate_logit(sg.SurrogateSpec(10, 5.0, "correct", "plus"), 0, 1)
    with pytest.raises(sg.SurrogateError):
        sg.surrogate_logit(sg.SurrogateSpec(10, 5.0, "misclassified", "plus"), 0, 0)
    with pytest.raises(sg.SurrogateError):
        sg.surrogate_logit(sg.SurrogateSpec(10, 2.0, "misclassified", "plus"), 1, 0)


@pytest.mark.parametrize("n_wrong", [0, 13, 40], ids=["none_wrong", "some_wrong", "all_wrong"])
def test_ansatz_rows_match_the_hand_assembly(n_wrong):
    # per-sample labels and argmaxes, as gap_shift_experiment draws them
    n_data, n, beta_c, beta_w = 40, 10, 5.0, 6.5
    rng = np.random.default_rng(n_wrong)
    labels = rng.integers(0, n, size=n_data)
    wrong = np.arange(n_data) < n_wrong
    argmax = labels.copy()
    argmax[wrong] = (labels[wrong] + 1 + rng.integers(0, n - 1, size=n_wrong)) % n
    assert not np.any(argmax[wrong] == labels[wrong])
    g, psi = sg.coefficients(sg.SurrogateSpec(n, beta_w, "misclassified"))
    f, _ = sg.coefficients(sg.SurrogateSpec(n, beta_c, "correct"))
    # the rows written one case at a time by index assignment
    ref = np.empty((n_data, n))
    if n_wrong:
        ref[wrong] = psi
        ref[wrong, labels[wrong]] = g
        ref[wrong, argmax[wrong]] = beta_w
    if n_wrong < n_data:
        ref[~wrong] = f
        ref[~wrong, labels[~wrong]] = beta_c
    z = sg.ansatz_rows(np.where(wrong, beta_w, beta_c), np.where(wrong, g, f),
                       np.where(wrong, psi, f), n, labels, argmax)
    assert z.dtype == ref.dtype and z.shape == ref.shape
    assert z.tobytes() == ref.tobytes()


def test_coefficients_refusals():
    assert sg.coefficients(sg.SurrogateSpec(10, 5.0, "correct")) == (sg.f_pm(5.0, 10),) * 2
    g, _, psi = sg.misclassified_coeffs(5.0, 10)
    assert sg.coefficients(sg.SurrogateSpec(10, 5.0, "misclassified")) == (g, psi)
    with pytest.raises(sg.DomainError, match=r"^beta at pole ln\(N-1\) = ln\(9\)$"):
        sg.coefficients(sg.SurrogateSpec(10, math.log(9), "correct"))
    with pytest.raises(sg.DomainError, match=r"^negative discriminant at beta=-3.0, N=10$"):
        sg.coefficients(sg.SurrogateSpec(10, -3.0, "correct"))
    with pytest.raises(sg.SurrogateError, match=r"^beta=2.0 is inadmissible for "
                       r"case=misclassified, branch=plus, N=10$"):
        sg.coefficients(sg.SurrogateSpec(10, 2.0, "misclassified", "plus"))


def test_exact_ce_examples():
    assert sg.exact_ce(np.zeros(10), 3) == pytest.approx(math.log(10), abs=1e-14)
    beta = 4.0
    z = np.zeros(10)
    z[0] = beta
    assert sg.exact_ce(z, 0) == pytest.approx(math.log(1 + 9 * math.exp(-beta)), abs=1e-14)


def test_exact_ce_fsum_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.standard_normal(12) * 3
        y = int(rng.integers(0, 12))
        naive = -z[y] + math.log(math.fsum(math.exp(v) for v in z))
        assert sg.exact_ce(z, y) == pytest.approx(naive, abs=1e-12)


def test_truncated_ce_zeroth_order():
    beta, n = 5.0, 10
    z = np.zeros(n)
    z[2] = beta
    log_z = beta + math.log(1 + (n - 1) * math.exp(-beta))
    assert sg.truncated_ce(z, 2) == pytest.approx(log_z - beta, abs=1e-14)
    assert sg.truncated_ce(z, 4) == pytest.approx(log_z, abs=1e-14)


def test_truncated_ce_tie_uses_lowest_argmax():
    # tied maxima resolve to the lowest class index for the phi_hat direction
    z = np.array([5.0, 5.0, 0.0])
    val = sg.truncated_ce(z, 0)
    assert np.isfinite(val)


def test_truncated_ce_fourth_order_convergence():
    beta, n, y = 5.0, 10, 0
    rng = np.random.default_rng(1)
    u = rng.standard_normal(n) * 0.05
    u[0] = 0.0
    z0 = np.zeros(n)
    z0[0] = beta

    def err(scale):
        z = z0 + scale * u
        return abs(sg.truncated_ce(z, y) - sg.exact_ce(z, y))

    e1, e2 = err(1.0), err(0.5)
    assert e1 / e2 > 12.0  # quartic remainder: halving u shrinks error ~16x


def test_truncated_ce_grad_matches_fd():
    beta, n, y = 4.0, 8, 2
    rng = np.random.default_rng(3)
    u = rng.standard_normal(n) * 0.2
    u[5] = 0.0
    z = np.zeros(n)
    z[5] = beta
    z = z + u
    g = sg.truncated_ce_grad(z, y)
    h = 1e-6
    for i in range(n):
        if i == 5:
            continue
        e = np.zeros(n)
        e[i] = h
        fd = (sg.truncated_ce(z + e, y) - sg.truncated_ce(z - e, y)) / (2 * h)
        assert g[i] == pytest.approx(fd, abs=1e-7)


# ---------- brute-force oracle ----------

def test_brute_force_finds_true_stationary_points():
    # independent check that the finder is sound: every returned point has a
    # vanishing projected analytic gradient and obeys the S-set constraint
    beta, n = 0.5, 10
    pts = sg.brute_force_stationary(beta, n, "correct", 0, 0, n_inits=48, seed=1)
    assert pts
    for u in pts:
        z = np.zeros(n)
        z[0] = beta
        g = sg.truncated_ce_grad(z + u, 0)
        g[0] = 0.0
        assert np.linalg.norm(g) < 1e-9
        assert u.max() < beta
        assert abs(u[0]) < 1e-12


def test_brute_force_recovers_symmetric_quadratic_root():
    # for the symmetric ansatz u = f (1 - y) the truncated loss reduces to a
    # cubic in f whose stationary points solve
    # (1 - A) f^2 + 2 (1 + A) f + 2 (1 + A)^2 = 0 with A = e^-beta (N - 1);
    # real roots need 2A >= 1, i.e. beta <= ln(2(N-1))
    beta, n = 0.5, 10
    a = math.exp(-beta) * (n - 1)
    f_true = (1 + a) / (1 - a) * (-1 + math.sqrt(2 * a - 1))
    pts = sg.brute_force_stationary(beta, n, "correct", 0, 0, n_inits=64, seed=2)
    symmetric = [u for u in pts if np.allclose(u[1:], u[1], atol=1e-8)]
    assert symmetric, "symmetric stationary point not found"
    assert symmetric[0][1] == pytest.approx(f_true, abs=1e-8)


# ---------- exact stationary points on the symmetric ansatz ----------

def _projected_grad_norm(z: np.ndarray, y: int, k: int) -> float:
    g = sg.truncated_ce_grad(z, y)
    g[k] = 0.0
    return float(np.linalg.norm(g))


def test_printed_closed_forms_are_not_stationary():
    # the printed f+ and (g+, psi+) at N=10, beta=5 leave a clear projected
    # gradient, and the true correct-case quadratic has no real root there
    # (beta > ln(2(N-1)) = 2.89)
    z = sg.surrogate_logit(sg.SurrogateSpec(10, 5.0, "correct", "plus"), 0, 0)
    assert _projected_grad_norm(z, 0, 0) > 0.01
    z = sg.surrogate_logit(sg.SurrogateSpec(10, 5.0, "misclassified", "plus"), 1, 0)
    assert _projected_grad_norm(z, 1, 0) > 0.5
    assert sg.symmetric_stationary(5.0, 10, "correct", 0, 0) == []


def test_symmetric_stationary_reproduces_quadratic_root():
    beta, n = 0.5, 10
    a = math.exp(-beta) * (n - 1)
    f_true = (1 + a) / (1 - a) * (-1 + math.sqrt(2 * a - 1))
    pts = sg.symmetric_stationary(beta, n, "correct", 0, 0)
    assert len(pts) == 1
    assert pts[0][0] == 0.0
    assert pts[0][1:] == pytest.approx(f_true, abs=1e-12)


def test_symmetric_stationary_zero_projected_gradient():
    for n in (3, 4, 10):
        for beta in (0.5, 1.5, 3.0, 5.0, 8.0):
            for case, (y, k) in (("correct", (2, 2)), ("misclassified", (0, 2))):
                for u in sg.symmetric_stationary(beta, n, case, y, k):
                    z = u.copy()
                    z[k] = beta
                    assert u.max() < beta
                    assert _projected_grad_norm(z, y, k) < 1e-12 * (1 + u @ u)


def test_symmetric_stationary_psi_solves_its_own_quadratic():
    # psi of the psi != 0 family also solves the quadratic the resultant gives:
    # (t-N+1)(t-N+3) psi^2 + 4(t-N+2)(t+N-1) psi + 4(t+N-1)(t+N-3) = 0
    n = 10
    for beta in (3.0, 5.0, 8.0):
        t = math.exp(beta)
        psis = [u[2] for u in sg.symmetric_stationary(beta, n, "misclassified", 1, 0)
                if u[2] != 0.0]
        assert psis
        for psi in psis:
            terms = ((t - n + 1) * (t - n + 3) * psi**2,
                     4 * (t - n + 2) * (t + n - 1) * psi,
                     4 * (t + n - 1) * (t + n - 3))
            assert abs(sum(terms)) < 1e-12 * sum(abs(v) for v in terms)


def test_symmetric_stationary_contradictions():
    with pytest.raises(sg.SurrogateError):
        sg.symmetric_stationary(1.0, 10, "correct", 0, 1)
    with pytest.raises(sg.SurrogateError):
        sg.symmetric_stationary(1.0, 10, "misclassified", 0, 0)
    with pytest.raises(sg.SurrogateError):
        sg.symmetric_stationary(1.0, 2, "misclassified", 1, 0)


def test_brute_force_deterministic():
    a = sg.brute_force_stationary(0.5, 6, "correct", 0, 0, n_inits=16, seed=5)
    b = sg.brute_force_stationary(0.5, 6, "correct", 0, 0, n_inits=16, seed=5)
    assert len(a) == len(b)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


# ---------- mean-field surface ----------

def test_surface_constant_in_beta_wrong_at_zero_error():
    grid = np.linspace(3.5, 8.0, 10)
    surf = sg.mean_field_loss_surface(grid, grid, 10, 0.0)
    finite = np.isfinite(surf)
    assert finite.any()
    for i in range(grid.size):
        row = surf[i, finite[i]]
        if row.size:
            assert np.allclose(row, row[0], atol=1e-14)


def test_surface_near_zero_loss_at_large_beta_correct():
    surf = sg.mean_field_loss_surface(np.array([20.0]), np.array([5.0]), 10, 0.001)
    assert np.isfinite(surf[0, 0])
    assert surf[0, 0] < 0.05


def test_surface_nonnegative():
    grid = np.linspace(3.0, 9.0, 8)
    surf = sg.mean_field_loss_surface(grid, grid, 10, 0.3)
    vals = surf[np.isfinite(surf)]
    assert (vals >= 0).all()


# ---------- gap shrinkage ----------

def _params(bc=5.0, bw=5.0, n=10, eps=0.2):
    return sg.MeanFieldParams(bc, bw, n, eps)


def test_shrinkage_zero_at_zero_omegas():
    assert sg.gap_shrinkage(_params(), 0.0, 0.0) == 0.0


def test_shrinkage_negative_at_admissible_point():
    val = sg.gap_shrinkage(_params(), 1.0, 1.0)
    assert val < 0


def test_shrinkage_quadratic_scaling_of_first_term():
    # with omega_wrong = 0 the shrinkage is exactly the first term; find a
    # beta whose gap doubles the reference gap and compare
    from scipy.optimize import brentq

    n = 10
    gap = lambda b: b - sg.f_pm(b, n, "plus")
    b1 = 4.0
    b2 = brentq(lambda b: gap(b) - 2 * gap(b1), 5.0, 12.0, xtol=1e-14)
    v1 = sg.gap_shrinkage(_params(bc=b1), 1.0, 0.0)
    v2 = sg.gap_shrinkage(_params(bc=b2), 1.0, 0.0)
    assert v2 / v1 == pytest.approx(4.0, rel=1e-10)


def test_shrinkage_magnitude_monotone_in_gaps():
    base = abs(sg.gap_shrinkage(_params(bc=4.0, bw=4.0), 1.0, 1.0))
    bigger_c = abs(sg.gap_shrinkage(_params(bc=6.0, bw=4.0), 1.0, 1.0))
    bigger_w = abs(sg.gap_shrinkage(_params(bc=4.0, bw=6.0), 1.0, 1.0))
    assert bigger_c > base
    assert bigger_w > base


def test_gap_shrinkage_validation():
    with pytest.raises(sg.SurrogateError, match="omega coefficients must be nonnegative"):
        sg.gap_shrinkage(_params(), -1.0, 0.0)
    with pytest.raises(sg.SurrogateError, match="omega coefficients must be nonnegative"):
        sg.gap_shrinkage(_params(), 0.0, -1.0)
    with pytest.raises(sg.SurrogateError):
        sg.MeanFieldParams(5.0, 5.0, 10, 1.5)


def test_gap_shrinkage_refuses_where_the_surface_is_nan():
    # beta_wrong = 2 at N = 10 is inadmissible (the surface writes NaN there);
    # the refusal is surrogate_logit's, and a pole is named as a DomainError
    with pytest.raises(sg.SurrogateError, match=r"^beta=2.0 is inadmissible for "
                       r"case=misclassified, branch=plus, N=10$"):
        sg.gap_shrinkage(_params(bc=2.0, bw=2.0), 1.0, 1.0)
    assert np.isnan(sg.gap_shrinkage_surface([2.0], [2.0], 10, 0.2)[0, 0])
    with pytest.raises(sg.DomainError, match=r"pole ln\(N-1\) = ln\(9\)"):
        sg.gap_shrinkage(_params(bc=math.log(9)), 1.0, 1.0)
    with pytest.raises(sg.DomainError, match=r"pole ln\(N-3\) = ln\(7\)"):
        sg.gap_shrinkage(_params(bw=math.log(7)), 1.0, 1.0)


# ---------- grid evaluators against the per-beta reference ----------

def _per_beta_admissible(n: int, beta: float, case: str, branch: str) -> bool:
    """admissible(), with a beta at a pole counted as inadmissible."""
    try:
        return sg.admissible(sg.SurrogateSpec(n, beta, case, branch))
    except sg.DomainError:
        return False


@pytest.mark.parametrize("n,branch", [(4, "plus"), (10, "plus"), (10, "minus"), (12, "minus")])
def test_grid_evaluators_match_per_beta_reference(n, branch):
    # a grid from 0 to 4 that crosses ln(N-1) and ln(N-3), with points on,
    # inside and just outside each pole's POLE_TOL window
    poles = [math.log(n - 1), math.log(n - 3)]
    offsets = [0.0, 0.5 * sg.POLE_TOL, -0.5 * sg.POLE_TOL, 2.0 * sg.POLE_TOL]
    grid = np.sort(np.r_[np.arange(0.0, 4.0 + 1e-12, 0.05), [p + d for p in poles for d in offsets]])
    er = 0.3
    ref = {}
    for case, true_class in (("correct", 0), ("misclassified", 1)):
        ok = [_per_beta_admissible(n, float(b), case, branch) for b in grid]
        true, other = sg.printed_coefficients(grid, n, case, branch)
        assert np.array_equal(~np.isnan(true), ok) and np.array_equal(~np.isnan(other), ok)
        loss = []
        for b, b_ok, t, o in zip(grid, ok, true, other):
            if not b_ok:
                loss.append(float("nan"))
                continue
            if case == "correct":
                assert t == o == sg.f_pm(float(b), n, branch)
            else:
                g, _, psi = sg.misclassified_coeffs(float(b), n, branch)
                assert (t, o) == (g, psi)
            spec = sg.SurrogateSpec(n, float(b), case, branch)
            loss.append(sg.exact_ce(sg.surrogate_logit(spec, true_class, 0), true_class))
        ref[case] = ok, loss
    assert any(ref["correct"][0]) and any(ref["misclassified"][0])
    assert not all(ref["misclassified"][0])

    surf = sg.mean_field_loss_surface(grid, grid, n, er, branch)
    shrink = sg.gap_shrinkage_surface(grid, grid, n, er, branch)
    (ok_c, loss_c), (ok_w, loss_w) = ref["correct"], ref["misclassified"]
    for i, bc in enumerate(grid):
        for j, bw in enumerate(grid):
            params = sg.MeanFieldParams(float(bc), float(bw), n, er)
            if not (ok_c[i] and ok_w[j]):
                assert np.isnan(surf[i, j]) and np.isnan(shrink[i, j])
                with pytest.raises(sg.SurrogateError):  # a NaN cell is a refusal
                    sg.gap_shrinkage(params, 1.0, 1.0, branch)
                continue
            assert surf[i, j] == (1.0 - er) * loss_c[i] + er * loss_w[j]
            assert shrink[i, j] == sg.gap_shrinkage(params, 1.0, 1.0, branch)


def test_grid_evaluators_validate_their_arguments():
    grid = np.array([4.0, 5.0])
    for surface in (sg.mean_field_loss_surface, sg.gap_shrinkage_surface):
        with pytest.raises(sg.SurrogateError, match="error_rate"):
            surface(grid, grid, 10, 5.0)
        with pytest.raises(sg.SurrogateError, match="n_classes >= 3"):
            surface(grid, grid, 2, 0.2)
    with pytest.raises(sg.SurrogateError, match="unknown branch"):
        sg.printed_coefficients(grid, 10, "correct", "both")


def test_shrinkage_surface_matches_scalar_on_dense_slices():
    # 10,000 betas per slice: squaring a gap by multiplication instead of
    # pow, as float ** 2 does, changes several of them
    grid = np.arange(0.0, 20.0, 0.002)
    n, er, fixed = 10, 0.3, 5.0
    slices = (
        ("correct", sg.gap_shrinkage_surface(grid, [fixed], n, er)[:, 0], lambda b: (b, fixed)),
        ("misclassified", sg.gap_shrinkage_surface([fixed], grid, n, er)[0], lambda b: (fixed, b)),
    )
    for case, values, betas in slices:
        for b, v in zip(grid.tolist(), values.tolist()):
            params = sg.MeanFieldParams(*betas(b), n, er)
            if not _per_beta_admissible(n, b, case, "plus"):
                assert math.isnan(v)
                with pytest.raises(sg.SurrogateError):
                    sg.gap_shrinkage(params, 1.0, 1.0)
                continue
            assert v == sg.gap_shrinkage(params, 1.0, 1.0)
