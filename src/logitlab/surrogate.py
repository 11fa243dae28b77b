"""Analytically tractable surrogate-logit model.

A surrogate logit vector is z = beta*phi_hat + v where phi_hat is a one-hot
argmax direction, beta is the prescribed maximum, and v lives in the
orthogonal complement of phi_hat. Closed forms f+-, (g+-, kappa, psi+-) give
published stationary candidates of the third-order expansion of the
cross-entropy around beta*phi_hat, for correctly classified and misclassified
samples respectively. This module evaluates those closed forms exactly as
printed, the truncated and exact losses, admissibility constraints, the exact
stationary points of the truncated loss on the symmetric ansatz
(symmetric_stationary), the mean-field loss surface and the first-order
gap-shrinkage prediction. The tests check symmetric_stationary against a
brute-force search with its own gradient and Hessian of the loss, in
tests/oracles.py.

The printed closed forms are not stationary points of truncated_ce: on the
symmetric ansatz they solve a quadratic whose constant term differs from the
true one (for f, (1-A) f^2 + 2(1+A) f - 2 e^-2beta = 0 with A = (N-1) e^-beta,
where the roots have 2(1+A)^2). The loss surface, gap shrinkage, thresholds
and surrogate logits are built from the printed forms by one evaluator,
_closed_forms, the place to move them onto the roots symmetric_stationary
finds on the same ansatz. Its admissibility mask (beta off the poles, with a
real discriminant, finite and > max(u)) is the one rule: admissible reads it
at one beta, printed_coefficients writes NaN where it is False, and
coefficients is the one refusal of a beta. ansatz_rows is the one layout of
a logit row on the ansatz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def check_error_rate(error_rate: float) -> None:
    if not (0.0 <= error_rate <= 1.0):
        raise SurrogateError("error_rate must be in [0, 1]")


@dataclass(frozen=True)
class MeanFieldParams:
    beta_correct: float
    beta_wrong: float
    n_classes: int
    error_rate: float

    def __post_init__(self) -> None:
        check_error_rate(self.error_rate)


def _pole_hits(beta, n_classes: int, case: str) -> list[tuple[np.ndarray, str]]:
    """(beta within POLE_TOL of it, its name) for each pole of the forms."""
    poles = [(n_classes - 1, "ln(N-1)")]
    if case == "misclassified" and n_classes >= 4:
        poles.append((n_classes - 3, "ln(N-3)"))
    return [(np.abs(beta - np.log(m)) < POLE_TOL, f"{name} = ln({m})") for m, name in poles]


def _check_assignment(case: str, true_class: int, argmax_class: int) -> None:
    if case == "correct" and true_class != argmax_class:
        raise SurrogateError("correct case requires true_class == argmax_class")
    if case == "misclassified" and true_class == argmax_class:
        raise SurrogateError("misclassified case requires distinct classes")


def _closed_forms(beta, n_classes: int, case: str, branch: str):
    """The printed forms at a float or an array of beta: true-class and
    other-class coefficients, (f, f) or (g, psi); the domain (off the poles by
    POLE_TOL, rad >= 0); and admissibility, the one rule of every reader:
    beta in the domain, finite and > max(u). At N=3 the factor (N-3) e^-beta
    of the misclassified forms is 0, and they hold as they stand."""
    s = 1.0 if branch == "plus" else -1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.exp(-beta) * (n_classes - 1)
        if case == "correct":
            # float_power calls libm pow, as float ** 2 does (an array's ** 2 multiplies)
            rad = 1.0 + 2.0 * np.exp(-2.0 * beta) * (1.0 - a) / np.float_power(1.0 + a, 2)
            true = other = (1.0 + a) / (1.0 - a) * (-1.0 + s * np.sqrt(rad))
        else:
            b = np.exp(-beta) * (n_classes - 3)
            rad = 1.0 + 2.0 * (1.0 - a) * (1.0 - b) / (1.0 + a)
            kappa = (1.0 + a) / (1.0 - b) * np.sqrt(rad)
            true = -(1.0 - b) / (1.0 - a) * (1.0 + s * kappa)
            other = 2.0 * (np.exp(-beta) / (1.0 - a) * true - (1.0 + a) / (1.0 - b))
        domain = ~(rad < 0)
        for hit, _ in _pole_hits(beta, n_classes, case):
            domain = domain & ~hit
        return true, other, domain, domain & np.isfinite(beta) & (beta > np.maximum(true, other))


def printed_coefficients(beta, n_classes: int, case: str, branch: str = "plus"):
    """True-class and other-class coefficients at each beta, (f, f) or (g, psi);
    NaN wherever beta is inadmissible: at a pole, at a negative discriminant,
    where beta <= max(u) and at beta = +-inf."""
    SurrogateSpec(n_classes, 0.0, case, branch)  # validates the arguments
    true, other, _, ok = _closed_forms(beta, n_classes, case, branch)
    return np.where(ok, true, np.nan), np.where(ok, other, np.nan)


def admissible(spec: SurrogateSpec) -> bool:
    """Whether the printed forms are admissible at spec.beta: False at a pole,
    at a negative discriminant, where beta <= max(u) and at beta = +-inf."""
    return bool(_closed_forms(spec.beta, spec.n_classes, spec.case, spec.branch)[3])


def admissibility_threshold(n_classes: int, case: str, branch: str = "plus") -> float:
    """Smallest beta above which admissible() holds for every larger beta.

    Scans [0, 100] in steps of 0.1, brackets the last inadmissible-to-admissible
    transition of the admissibility mask (a pole neighborhood counts as
    inadmissible), and bisects to 1e-10. Returns -inf when the whole scanned
    grid is admissible.
    """
    SurrogateSpec(n_classes, 0.0, case, branch)  # validates the arguments

    def ok(b):
        return _closed_forms(b, n_classes, case, branch)[3]

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


def coefficients(spec: SurrogateSpec):
    """True-class and other-class coefficients at spec.beta, (f, f) or (g, psi):
    the one refusal of an inadmissible beta. DomainError at a pole or a
    negative discriminant, SurrogateError elsewhere admissible() is False."""
    true, other, domain, ok = _closed_forms(spec.beta, spec.n_classes, spec.case, spec.branch)
    if not ok:
        for hit, name in _pole_hits(spec.beta, spec.n_classes, spec.case):
            if hit:
                raise DomainError(f"beta at pole {name}")
        if not domain:
            raise DomainError(f"negative discriminant at beta={spec.beta}, N={spec.n_classes}")
        raise SurrogateError(f"beta={spec.beta} is inadmissible for case={spec.case}, "
                             f"branch={spec.branch}, N={spec.n_classes}")
    return true, other


def ansatz_rows(beta, true, other, n_classes: int, true_class, argmax_class) -> np.ndarray:
    """Logit rows beta*phi_hat + v: beta at argmax_class, true at true_class and
    other at every other class. Each argument is a scalar, one value per beta of
    a grid or one value per sample; the rows run along the leading axis."""
    beta, true, other, true_class, argmax_class = (
        np.expand_dims(a, -1) for a in (beta, true, other, true_class, argmax_class))
    cls = np.arange(n_classes)
    return np.where(cls == argmax_class, beta, np.where(cls == true_class, true, other))


def surrogate_logit(spec: SurrogateSpec, true_class: int, argmax_class: int) -> np.ndarray:
    """Full logit vector beta*phi_hat + v for the given class assignment."""
    n = spec.n_classes
    if not (0 <= true_class < n and 0 <= argmax_class < n):
        raise SurrogateError("class index out of range")
    _check_assignment(spec.case, true_class, argmax_class)
    return ansatz_rows(spec.beta, *coefficients(spec), n, true_class, argmax_class)


def exact_ce(z: np.ndarray, y: int):
    """Cross-entropy -z_y + logsumexp(z), max-subtracted, of z or of each row."""
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    loss = -z[..., y] + m[..., 0] + np.log(np.sum(np.exp(z - m), axis=-1))
    return float(loss) if z.ndim == 1 else loss


def truncated_ce(z: np.ndarray, y: int) -> float:
    """Third-order expansion of the cross-entropy around beta*phi_hat.

    beta and phi_hat are read off as the max and argmax of z, so the remainder
    u = z - beta*phi_hat is orthogonal to phi_hat by construction.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.size
    k = int(np.argmax(z))
    beta = float(z[k])
    phi = np.arange(n) == k
    u = z - beta * phi
    h = (1.0 + (np.exp(beta) - 1.0) * phi) / (np.exp(beta) + n - 1)  # softmax at beta*phi_hat
    qu = h * u - h * (h @ u)  # Q u with Q = diag(h) - h h^T, without forming Q
    log_z = beta + np.log(1.0 + np.exp(-beta) * (n - 1))
    uqu = u @ qu
    return float(
        log_z
        - beta * (k == y)
        + u @ (h - (np.arange(n) == y))
        + 0.5 * uqu
        + (u * u) @ qu / 6.0
        - (u @ h) * uqu / 3.0
    )


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

    Returns the orthogonal components u (full ambient length, 0 at the
    argmax) that obey max(u) < beta.
    """
    n = n_classes
    SurrogateSpec(n, beta, case)  # validates n_classes and the case
    _check_assignment(case, true_class, argmax_class)
    t = np.exp(beta)
    big_m = t + n - 1
    if case == "correct":
        a = (n - 1) / t
        pairs = [(f, f) for f in _real_quadratic_roots(1.0 - a, 2.0 * (1.0 + a),
                                                        2.0 * (1.0 + a) ** 2)]
    else:
        zero_psi = _real_quadratic_roots(big_m - 2.0, 2.0 * big_m, -2.0 * big_m**2)
        nonzero_psi = _real_quadratic_roots(
            n - t - 1.0, -2.0 * big_m, 2.0 * big_m * (t - n + 3.0)
        )
        # g = 0 (only at t = N-3) pairs with psi at infinity
        pairs = [(g, 0.0) for g in zero_psi] + [
            (g, g - 2.0 * big_m / g) for g in nonzero_psi if g != 0.0
        ]
    points = [ansatz_rows(0.0, true, other, n, true_class, argmax_class) for true, other in pairs]
    return [u for u in points if u.max() < beta]


def _grid_forms(grid_correct, grid_wrong, n_classes: int, error_rate: float, branch: str):
    """Both grids as arrays with f, g and psi on them, NaN where inadmissible."""
    check_error_rate(error_rate)
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
    loss_c = exact_ce(ansatz_rows(bc, f, f, n_classes, 0, 0), 0)
    loss_w = exact_ce(ansatz_rows(bw, g, psi, n_classes, 1, 0), 1)
    # an inadmissible beta's NaN spreads over its whole row or column
    return (1.0 - error_rate) * loss_c[:, None] + error_rate * loss_w[None, :]


def _shrinkage(gap_c, gap_w, split_w, n: int, error_rate: float, omega_c: float,
               omega_w: float):
    """Gap shrinkage from beta - f, beta - g and g - psi; float_power is float ** 2."""
    quad = ((1.0 - error_rate) * omega_c * np.float_power(gap_c, 2)
            + error_rate * omega_w * np.float_power(gap_w, 2))
    cross = 2.0 * (n - 2) / (n - 1) * error_rate * omega_w * gap_w * split_w
    return -quad - cross


def gap_shrinkage(
    params: MeanFieldParams, omega_correct: float, omega_wrong: float, branch: str = "plus"
) -> float:
    """First-order change of the correct-sample logit gap under an attack:
    gap_shrinkage_surface's cell at these omegas; coefficients refuses each
    beta where the surface is NaN, beta_correct first."""
    if omega_correct < 0 or omega_wrong < 0:
        raise SurrogateError("omega coefficients must be nonnegative")
    p = params
    f, _ = coefficients(SurrogateSpec(p.n_classes, p.beta_correct, "correct", branch))
    g, psi = coefficients(SurrogateSpec(p.n_classes, p.beta_wrong, "misclassified", branch))
    return float(_shrinkage(p.beta_correct - f, p.beta_wrong - g, g - psi, p.n_classes,
                            p.error_rate, omega_correct, omega_wrong))


def gap_shrinkage_surface(
    grid_correct: np.ndarray, grid_wrong: np.ndarray, n_classes: int, error_rate: float,
    branch: str = "plus",
) -> np.ndarray:
    """gap_shrinkage with unit omegas on the (beta_correct, beta_wrong)
    grid; NaN where either beta is inadmissible for its case."""
    bc, f, bw, g, psi = _grid_forms(grid_correct, grid_wrong, n_classes, error_rate, branch)
    return _shrinkage((bc - f)[:, None], bw - g, g - psi, n_classes, error_rate, 1.0, 1.0)
