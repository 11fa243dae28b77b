"""Analytically tractable surrogate-logit model.

A surrogate logit vector is z = beta*phi_hat + v where phi_hat is a one-hot
argmax direction, beta is the prescribed maximum, and v lives in the
orthogonal complement of phi_hat. Closed forms f+-, (g+-, kappa, psi+-) give
published stationary candidates of the third-order expansion of the
cross-entropy around beta*phi_hat, for correctly classified and misclassified
samples respectively. This module evaluates those closed forms exactly as
printed, the truncated and exact losses, admissibility constraints, the
mean-field loss surface, a brute-force stationary-point finder that serves as
the independent oracle, and the first-order gap-shrinkage prediction.

The printed closed forms are not stationary points of truncated_ce: on the
symmetric ansatz they solve a quadratic whose constant term differs from the
true one. The loss surface, gap shrinkage, thresholds and surrogate logits
are built from the printed forms by one evaluator, _closed_forms, the place
to move them onto the roots symmetric_stationary finds on the same ansatz.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .rng import substream

POLE_TOL = 1e-8


class SurrogateError(Exception):
    pass


class DomainError(SurrogateError):
    """Parameter at or within tolerance of a formula singularity."""


class SearchError(SurrogateError):
    pass


@dataclass(frozen=True)
class SurrogateSpec:
    n_classes: int
    beta: float
    case: str  # correct | misclassified
    branch: str = "plus"

    def __post_init__(self) -> None:
        if self.case not in ("correct", "misclassified"):
            raise SurrogateError(f"unknown case {self.case!r}")
        if self.branch not in ("plus", "minus"):
            raise SurrogateError(f"unknown branch {self.branch!r}")
        if self.n_classes < 2:
            raise SurrogateError("n_classes must be >= 2")
        if self.case == "misclassified" and self.n_classes < 3:
            raise SurrogateError("misclassified case needs n_classes >= 3")


def _check_error_rate(error_rate: float) -> None:
    if not (0.0 <= error_rate <= 1.0):
        raise SurrogateError("error_rate must be in [0, 1]")


@dataclass(frozen=True)
class MeanFieldParams:
    beta_correct: float
    beta_wrong: float
    n_classes: int
    error_rate: float

    def __post_init__(self) -> None:
        _check_error_rate(self.error_rate)


@dataclass(frozen=True)
class GapShiftInput:
    params: MeanFieldParams
    epsilon: float
    omega_correct: float
    omega_wrong: float

    def __post_init__(self) -> None:
        if self.omega_correct < 0 or self.omega_wrong < 0:
            raise SurrogateError("omega coefficients must be nonnegative")


def _pole_hits(beta, n_classes: int, case: str) -> list[tuple[np.ndarray, str]]:
    """(beta within POLE_TOL of it, its name) for each pole of the forms."""
    poles = [(n_classes - 1, "ln(N-1)")] if n_classes >= 2 else []
    if case == "misclassified" and n_classes >= 4:
        poles.append((n_classes - 3, "ln(N-3)"))
    return [(np.abs(beta - np.log(m)) < POLE_TOL, f"{name} = ln({m})") for m, name in poles]


def _check_assignment(case: str, true_class: int, argmax_class: int) -> None:
    if case not in ("correct", "misclassified"):
        raise SurrogateError(f"unknown case {case!r}")
    if case == "correct" and true_class != argmax_class:
        raise SurrogateError("correct case requires true_class == argmax_class")
    if case == "misclassified" and true_class == argmax_class:
        raise SurrogateError("misclassified case requires distinct classes")


def _closed_forms(beta, n_classes: int, case: str, branch: str):
    """The printed forms at a float or an array of beta: true-class and
    other-class coefficients, (f, f) or (g, psi); kappa (None if correct); the
    domain (off the poles by POLE_TOL, rad >= 0); and admissibility, beta > max(u)."""
    if case == "misclassified" and n_classes == 3:
        warnings.warn("n_classes=3 makes the N-3 factor vanish; result is degenerate")
    s = 1.0 if branch == "plus" else -1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.exp(-beta) * (n_classes - 1)
        if case == "correct":
            # float_power calls libm pow, as float ** 2 does (an array's ** 2 multiplies)
            rad = 1.0 + 2.0 * np.exp(-2.0 * beta) * (1.0 - a) / np.float_power(1.0 + a, 2)
            true = other = (1.0 + a) / (1.0 - a) * (-1.0 + s * np.sqrt(rad))
            kappa = None
        else:
            b = np.exp(-beta) * (n_classes - 3)
            rad = 1.0 + 2.0 * (1.0 - a) * (1.0 - b) / (1.0 + a)
            kappa = (1.0 + a) / (1.0 - b) * np.sqrt(rad)
            true = -(1.0 - b) / (1.0 - a) * (1.0 + s * kappa)
            other = 2.0 * (np.exp(-beta) / (1.0 - a) * true - (1.0 + a) / (1.0 - b))
        domain = ~(rad < 0)
        for hit, _ in _pole_hits(beta, n_classes, case):
            domain = domain & ~hit
        return true, other, kappa, domain, domain & (beta > np.maximum(true, other))


def _closed_forms_at(beta: float, n_classes: int, case: str, branch: str):
    """(true, other, kappa, admissible) at one beta; DomainError off the domain."""
    for hit, name in _pole_hits(beta, n_classes, case):
        if hit:
            raise DomainError(f"beta at pole {name}")
    true, other, kappa, domain, ok = _closed_forms(beta, n_classes, case, branch)
    if not domain:
        raise DomainError(f"negative discriminant at beta={beta}, N={n_classes}")
    return true, other, kappa, bool(ok)


def printed_coefficients(beta, n_classes: int, case: str, branch: str = "plus"):
    """True-class and other-class coefficients at each beta, (f, f) or (g, psi);
    NaN at a pole, at a negative discriminant and where beta <= max(u)."""
    SurrogateSpec(n_classes, 0.0, case, branch)  # validates the arguments
    true, other, _, _, ok = _closed_forms(beta, n_classes, case, branch)
    return np.where(ok, true, np.nan), np.where(ok, other, np.nan)


def f_pm(beta: float, n_classes: int, branch: str = "plus") -> float:
    """Printed coefficient f+- for the correctly classified case.

    This evaluates the published formula, which solves
    (1-A) f^2 + 2(1+A) f - 2 e^-2beta = 0 with A = (N-1) e^-beta. It is not a
    stationary point of truncated_ce on the ansatz u = f (1 - phi_hat); those
    solve the same quadratic with constant term 2(1+A)^2 and are returned by
    symmetric_stationary.
    """
    return float(_closed_forms_at(beta, n_classes, "correct", branch)[0])


def misclassified_coeffs(
    beta: float, n_classes: int, branch: str = "plus"
) -> tuple[float, float, float]:
    """Printed (g, kappa, psi) coefficients for the misclassified case.

    This evaluates the published formulas. The resulting (g, psi) is not a
    stationary point of truncated_ce on the ansatz u_y = g, u = psi on the
    other non-argmax classes; symmetric_stationary returns those.
    """
    g, psi, kappa, _ = _closed_forms_at(beta, n_classes, "misclassified", branch)
    return float(g), float(kappa), float(psi)


def admissible(spec: SurrogateSpec) -> bool:
    """Whether the closed-form solution obeys the strict max constraint."""
    return _closed_forms_at(spec.beta, spec.n_classes, spec.case, spec.branch)[3]


def admissibility_threshold(n_classes: int, case: str, branch: str = "plus") -> float:
    """Smallest beta above which admissible() holds for every larger beta.

    Scans [0, 100] in steps of 0.1 (skipping pole neighborhoods), brackets the
    last inadmissible-to-admissible transition, and bisects to 1e-10. Returns
    -inf when the whole scanned grid is admissible.
    """

    def ok(b):
        return ~np.isnan(printed_coefficients(b, n_classes, case, branch)[0])

    grid = np.arange(0.0, 100.0 + 1e-12, 0.1)
    vals = ok(grid)
    if not vals[-1]:
        raise SearchError("no admissible beta found in [0, 100]")
    if vals.all():
        return float("-inf")
    last_false = np.flatnonzero(~vals)[-1]
    lo, hi = grid[last_false], grid[last_false + 1]
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


def _logit_rows(beta, true, other, n_classes: int, true_class, argmax_class) -> np.ndarray:
    """beta*phi_hat + v at each beta: true at true_class, other elsewhere."""
    z = np.repeat(np.expand_dims(other, -1), n_classes, axis=-1)
    z[..., true_class] = true
    z[..., argmax_class] = beta
    return z


def surrogate_logit(spec: SurrogateSpec, true_class: int, argmax_class: int) -> np.ndarray:
    """Full logit vector beta*phi_hat + v for the given class assignment."""
    n = spec.n_classes
    if not (0 <= true_class < n and 0 <= argmax_class < n):
        raise SurrogateError("class index out of range")
    _check_assignment(spec.case, true_class, argmax_class)
    true, other, _, ok = _closed_forms_at(spec.beta, n, spec.case, spec.branch)
    if not ok:
        raise SurrogateError(f"beta={spec.beta} is inadmissible for case={spec.case}, "
                             f"branch={spec.branch}, N={n}")
    return _logit_rows(spec.beta, true, other, n, true_class, argmax_class)


def exact_ce(z: np.ndarray, y: int):
    """Cross-entropy -z_y + logsumexp(z), max-subtracted, of z or of each row."""
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    loss = -z[..., y] + m[..., 0] + np.log(np.sum(np.exp(z - m), axis=-1))
    return float(loss) if z.ndim == 1 else loss


def _field(beta: float, phi: np.ndarray, n: int) -> np.ndarray:
    return (1.0 + (np.exp(beta) - 1.0) * phi) / (np.exp(beta) + n - 1)


def _form(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q x with Q = diag(h) - h h^T, without forming Q."""
    return h * x - h * (h @ x)


def truncated_ce(z: np.ndarray, y: int) -> float:
    """Third-order expansion of the cross-entropy around beta*phi_hat.

    beta and phi_hat are read off as the max and argmax of z, so the remainder
    u = z - beta*phi_hat is orthogonal to phi_hat by construction.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.size
    k = int(np.argmax(z))
    beta = float(z[k])
    phi = np.zeros(n)
    phi[k] = 1.0
    u = z - beta * phi
    yv = np.zeros(n)
    yv[y] = 1.0
    h = _field(beta, phi, n)
    log_z = beta + np.log(1.0 + np.exp(-beta) * (n - 1))
    qu = _form(h, u)
    uqu = u @ qu
    return float(
        log_z
        - beta * phi[y]
        + u @ (h - yv)
        + 0.5 * uqu
        + (u * u) @ qu / 6.0
        - (u @ h) * uqu / 3.0
    )


def truncated_ce_grad(z: np.ndarray, y: int) -> np.ndarray:
    """Analytic gradient of truncated_ce in u, full ambient coordinates."""
    z = np.asarray(z, dtype=np.float64)
    k = int(np.argmax(z))
    return _grad(float(z[k]), k, z - z[k] * (np.arange(z.size) == k), y, z.size)


def _grad(beta: float, k: int, u: np.ndarray, y: int, n: int) -> np.ndarray:
    phi = np.zeros(n)
    phi[k] = 1.0
    yv = np.zeros(n)
    yv[y] = 1.0
    h = _field(beta, phi, n)
    qu = _form(h, u)
    return (
        h
        - yv
        + qu
        + (u * qu) / 3.0
        + _form(h, u * u) / 6.0
        - (h * (u @ qu) + 2.0 * (u @ h) * qu) / 3.0
    )


def _truncated_ce_hess(beta: float, k: int, u: np.ndarray, n: int) -> np.ndarray:
    phi = np.zeros(n)
    phi[k] = 1.0
    h = _field(beta, phi, n)
    q = np.diag(h) - np.outer(h, h)
    qu = _form(h, u)
    return (
        q
        + (np.diag(qu) + u[:, None] * q + q * u) / 3.0
        - 2.0 / 3.0 * (np.outer(h, qu) + np.outer(qu, h) + (u @ h) * q)
    )


def brute_force_stationary(
    beta: float,
    n_classes: int,
    case: str,
    true_class: int,
    argmax_class: int,
    n_inits: int = 64,
    seed: int = 0,
    tol: float = 1e-6,
) -> list[np.ndarray]:
    """Stationary points of the truncated loss in the complement of phi_hat.

    Runs damped Newton iterations on the projected gradient from random
    starts, clusters converged points, keeps those obeying the strict
    max(u) < beta constraint, and returns the cluster representatives (the
    orthogonal components u, full ambient length).
    """
    n = n_classes
    _check_assignment(case, true_class, argmax_class)
    phi = np.zeros(n)
    phi[argmax_class] = 1.0
    # orthonormal basis of the complement of phi_hat
    basis = np.delete(np.eye(n), argmax_class, axis=1)
    rng = substream(seed, 0)

    found: list[np.ndarray] = []
    best_residual = np.inf
    for _ in range(n_inits):
        c = rng.normal(scale=1.0, size=n - 1)
        for _ in range(200):
            u = basis @ c
            g = basis.T @ _grad(beta, argmax_class, u, true_class, n)
            res = np.linalg.norm(g)
            if res < 1e-12:
                break
            hess = basis.T @ _truncated_ce_hess(beta, argmax_class, u, n) @ basis
            try:
                step = np.linalg.solve(hess, g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, g, rcond=None)[0]
            # trust-region style cap keeps the cubic's unbounded tail at bay
            ns = np.linalg.norm(step)
            if ns > 5.0:
                step *= 5.0 / ns
            c = c - step
        u = basis @ c
        res = np.linalg.norm(basis.T @ _grad(beta, argmax_class, u, true_class, n))
        best_residual = min(best_residual, res)
        if res > 1e-10 or not np.all(np.isfinite(u)):
            continue
        if u.max() >= beta:  # strict S-set constraint
            continue
        if not any(np.linalg.norm(u - v) < tol for v in found):
            found.append(u)
    if not found and best_residual > 1e-10:
        raise SearchError(
            f"no stationary point converged; best residual {best_residual:.3e}"
        )
    return found


def _real_quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a x^2 + b x + c, degrading to the linear case at a = 0."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-0.5 * b / a]
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
    return sorted([c / q, q / a])


def symmetric_stationary(
    beta: float,
    n_classes: int,
    case: str,
    true_class: int,
    argmax_class: int,
) -> list[np.ndarray]:
    """Exact stationary points of truncated_ce on the symmetric ansatz.

    With t = e^beta and M = t + N - 1, M times the gradient of the truncated
    loss at a non-argmax class i is
    1 - M [i == y] + u_i + u_i^2/2 - u_i m - m + m^2 - s/2, where
    m = sum_j u_j / M and s = sum_j u_j^2 / M. Its zeros on the ansatz are:

    - correct case, u = f on every non-argmax class, A = (N-1)/t:
      (1-A) f^2 + 2(1+A) f + 2(1+A)^2 = 0, real only for beta <= ln(2(N-1));
    - misclassified case, u_y = g and u = psi on the other N-2 classes:
      psi = 0 with (M-2) g^2 + 2M g - 2M^2 = 0, or
      (N-t-1) g^2 - 2M g + 2M (t-N+3) = 0 with psi = g - 2M/g.

    Same return convention as brute_force_stationary: the orthogonal
    components u (full ambient length) that obey max(u) < beta.
    """
    n = n_classes
    _check_assignment(case, true_class, argmax_class)
    t = np.exp(beta)
    big_m = t + n - 1
    points = []
    if case == "correct":
        a = (n - 1) / t
        for f in _real_quadratic_roots(1.0 - a, 2.0 * (1.0 + a), 2.0 * (1.0 + a) ** 2):
            u = np.full(n, f)
            u[argmax_class] = 0.0
            points.append(u)
    else:
        if n < 3:
            raise SurrogateError("misclassified case needs n_classes >= 3")
        zero_psi = _real_quadratic_roots(big_m - 2.0, 2.0 * big_m, -2.0 * big_m**2)
        nonzero_psi = _real_quadratic_roots(
            n - t - 1.0, -2.0 * big_m, 2.0 * big_m * (t - n + 3.0)
        )
        # g = 0 (only at t = N-3) pairs with psi at infinity
        pairs = [(g, 0.0) for g in zero_psi] + [
            (g, g - 2.0 * big_m / g) for g in nonzero_psi if g != 0.0
        ]
        for g, psi in pairs:
            u = np.full(n, psi)
            u[true_class] = g
            u[argmax_class] = 0.0
            points.append(u)
    return [u for u in points if u.max() < beta]


def _grid_forms(grid_correct, grid_wrong, n_classes: int, error_rate: float, branch: str):
    """Both grids as arrays with f, g and psi on them, NaN where inadmissible."""
    _check_error_rate(error_rate)
    bc = np.asarray(grid_correct, dtype=np.float64)
    bw = np.asarray(grid_wrong, dtype=np.float64)
    f, _ = printed_coefficients(bc, n_classes, "correct", branch)
    return (bc, f, bw, *printed_coefficients(bw, n_classes, "misclassified", branch))


def mean_field_loss_surface(
    grid_correct: np.ndarray, grid_wrong: np.ndarray, n_classes: int, error_rate: float,
    branch: str = "plus",
) -> np.ndarray:
    """Loss values on the (beta_correct, beta_wrong) grid; NaN where
    either beta is inadmissible for its case."""
    bc, f, bw, g, psi = _grid_forms(grid_correct, grid_wrong, n_classes, error_rate, branch)
    loss_c = exact_ce(_logit_rows(bc, f, f, n_classes, 0, 0), 0)
    loss_w = exact_ce(_logit_rows(bw, g, psi, n_classes, 1, 0), 1)
    # an inadmissible beta's NaN spreads over its whole row or column
    return (1.0 - error_rate) * loss_c[:, None] + error_rate * loss_w[None, :]


def _shrinkage(gap_c, gap_w, split_w, n: int, eps: float, omega_c: float, omega_w: float):
    """Gap shrinkage from beta - f, beta - g and g - psi; float_power is float ** 2."""
    quad = ((1.0 - eps) * omega_c * np.float_power(gap_c, 2)
            + eps * omega_w * np.float_power(gap_w, 2))
    cross = 2.0 * (n - 2) / (n - 1) * eps * omega_w * gap_w * split_w
    return -quad - cross


def gap_shrinkage(inp: GapShiftInput, branch: str = "plus") -> float:
    """First-order change of the correct-sample logit gap under an attack."""
    p = inp.params
    f = f_pm(p.beta_correct, p.n_classes, branch)
    g, _, psi = misclassified_coeffs(p.beta_wrong, p.n_classes, branch)
    return float(_shrinkage(p.beta_correct - f, p.beta_wrong - g, g - psi, p.n_classes,
                            p.error_rate, inp.omega_correct, inp.omega_wrong))


def gap_shrinkage_surface(
    grid_correct: np.ndarray, grid_wrong: np.ndarray, n_classes: int, error_rate: float,
    branch: str = "plus",
) -> np.ndarray:
    """gap_shrinkage with unit omegas on the (beta_correct, beta_wrong)
    grid; NaN where either beta is inadmissible for its case."""
    bc, f, bw, g, psi = _grid_forms(grid_correct, grid_wrong, n_classes, error_rate, branch)
    return _shrinkage((bc - f)[:, None], bw - g, g - psi, n_classes, error_rate, 1.0, 1.0)
