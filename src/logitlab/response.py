"""Random-matrix linear response for the input-to-logit map.

The map is the minimum-norm-constrained least-squares fit of target logits
Z_tilde (plus small Gaussian noise sigma0*W) by linear readout of input
features X: omega = [X^T X - lambda* I]^{-1} X^T (Z_tilde - sigma0 W), with
the Lagrange multiplier lambda* pinned by a trace equation. A ResponseProblem
is the fit (X, Z_tilde, labels, sigma0, c); on first use it computes, once
each, the eigendecomposition of the smaller Gram matrix (X^T X or X X^T),
lambda* and the unscaled FGSM attack. omega, the per-sample Jacobians and
their Gram matrices, and the first-order logit response come from those,
each from a function of the problem and the one argument it reads: the
noise seed, mu or epsilon. Omega(X, lambda*) = X R^2 X^T is applied to a
few columns at a time from the eigenpairs, and its diagonal is summed one
block of rows at a time, so no N_data x rank matrix is formed beside X.

lambda* is found by ``brentq``, a plain-Python port of scipy's Brent solver
that returns the same float as ``scipy.optimize.brentq``, so neither importing
nor running this module loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import substream
from .stats import logit_gaps, softmax
from .store import LabelVector, LogitMatrix, first_non_finite, row_blocks, row_norms
from .surrogate import MeanFieldParams, SurrogateSpec, ansatz_rows, coefficients, gap_shrinkage


MAX_VALUES = 1 << 26  # gap_shift_experiment's X and Z together: 512 MiB of float64


class ResponseError(Exception):
    pass


def _div(n: float, d: float) -> float:
    """n / d as IEEE 754 divides: +-inf or nan where d == 0, not an exception."""
    if d:
        return n / d
    if n == 0 or math.isnan(n):
        return math.nan
    return math.copysign(math.inf, n) * math.copysign(1.0, d)


def brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A step-for-step port of scipy.optimize.brentq (scipy's brentq.c): the same
    inverse-interpolation, extrapolation and bisection steps, the same
    tolerance delta = (xtol + rtol*|x|)/2 and the same evaluation order, so
    it returns the same float for the same f and bracket. Where scipy raises,
    this raises ResponseError: f(a) and f(b) of one sign, a NaN value of f,
    or no convergence within maxiter steps.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ResponseError(f"brentq: the objective is NaN at {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ResponseError(f"brentq: f({xpre!r}) and f({xcur!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ResponseError(f"brentq: no convergence in {maxiter} steps, last x {xcur!r}")


@dataclass(frozen=True)
class GramSpectrum:
    """Eigendecomposition of the smaller Gram matrix of X.

    d and v are the eigenvalues and eigenvectors of X^T X when n_data >=
    n_feats, and of X X^T otherwise (wide). X V, the data-space image of the
    eigenvectors on the range of X^T, is never stored: it is applied as
    X (v w), or as v (sqrt(d) w) in the wide case, where the other
    n_feats - n_data eigenvalues of X^T X are zero and X maps their
    directions to zero.
    """

    d: np.ndarray
    v: np.ndarray
    wide: bool

    def root_d(self) -> np.ndarray:
        """sqrt(d), with round-off negatives taken as 0: the norms of X v_i."""
        return np.sqrt(np.maximum(self.d, 0.0))


@dataclass(frozen=True)
class ResponseProblem:
    X: np.ndarray          # N_data x N_feats, unit-norm rows
    Z_tilde: np.ndarray    # N_data x N_classes
    labels: LabelVector
    sigma0: float = 1e-3
    c: float = 1.0

    def __post_init__(self) -> None:
        x = np.asarray(self.X, dtype=np.float64)
        z = np.asarray(self.Z_tilde, dtype=np.float64)
        if x.ndim != 2 or z.ndim != 2 or x.shape[0] != z.shape[0] or 0 in x.shape + z.shape:
            raise ResponseError("X and Z_tilde must be non-empty and share the data dimension")
        if first_non_finite(x) is not None or first_non_finite(z) is not None:
            raise ResponseError("non-finite entries in problem matrices")
        norms = row_norms(x)
        if np.abs(norms - 1.0).max() > 1e-12:
            i = int(np.argmax(np.abs(norms - 1.0)))
            raise ResponseError(f"row {i} of X is not unit-normalized")
        if not (0 <= self.sigma0 < np.inf and 0 < self.c < np.inf):
            raise ResponseError("finite sigma0 >= 0, c > 0 required")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Z_tilde", z)

    @cached_property
    def spectrum(self) -> GramSpectrum:
        """X's Gram spectrum, computed on first use; lambda*, omega, the
        Jacobians and the attack response are all derived from it."""
        x = self.X
        wide = x.shape[0] < x.shape[1]
        return GramSpectrum(*np.linalg.eigh(x @ x.T if wide else x.T @ x), wide=wide)

    @cached_property
    def lambda_star(self) -> float:
        """The constraint's multiplier, solved on first use; the helpers read it
        before the spectrum, so the eigendecomposition runs in solve_lambda_star."""
        return solve_lambda_star(self)

    @cached_property
    def attack(self) -> tuple[np.ndarray, np.ndarray]:
        """Every sample's JJ^T_mu g_mu and zeta_mu, before epsilon scales them."""
        return _attack(self)


def _xv(problem: ResponseProblem, w: np.ndarray) -> np.ndarray:
    """(X V) w, N_data x k for a rank x k w."""
    spec = problem.spectrum
    if spec.wide:
        return spec.v @ (spec.root_d()[:, None] * w)
    return problem.X @ (spec.v @ w)


def _xv_t(problem: ResponseProblem, y: np.ndarray) -> np.ndarray:
    """(X V)^T y, rank x k for an N_data x k y."""
    spec = problem.spectrum
    if spec.wide:
        return spec.root_d()[:, None] * (spec.v.T @ y)
    return spec.v.T @ (problem.X.T @ y)


def _resolvent_xt(problem: ResponseProblem, y: np.ndarray) -> np.ndarray:
    """R X^T y with the resolvent R = [X^T X - lambda* I]^{-1}."""
    lam, spec = problem.lambda_star, problem.spectrum
    scale = (1.0 / (spec.d - lam))[:, None]
    if spec.wide:  # push-through: R X^T = X^T [X X^T - lambda* I]^{-1}
        return problem.X.T @ (spec.v @ (scale * (spec.v.T @ y)))
    return spec.v @ (scale * _xv_t(problem, y))


def _omega(problem: ResponseProblem, y: np.ndarray) -> np.ndarray:
    """Omega y with Omega = X R^2 X^T = (X V) (D - lambda*)^{-2} (X V)^T."""
    lam, spec = problem.lambda_star, problem.spectrum
    scale = (1.0 / (spec.d - lam) ** 2)[:, None]
    return _xv(problem, scale * _xv_t(problem, y))


def _omega_diag(problem: ResponseProblem) -> np.ndarray:
    """diag Omega, from one block of rows of X V at a time."""
    lam, spec = problem.lambda_star, problem.spectrum
    scale = 1.0 / (spec.d - lam) ** 2
    n_data, rank = problem.X.shape[0], spec.d.size
    root_d = spec.root_d()
    diag = np.empty(n_data)
    for b in row_blocks(n_data, rank):
        xv = spec.v[b] * root_d if spec.wide else problem.X[b] @ spec.v
        diag[b] = np.square(xv, out=xv) @ scale
    return diag


def solve_lambda_star(problem: ResponseProblem) -> float:
    """Root of the norm-constraint trace equation on the branch where the
    resolvent is positive definite (lambda < lambda_min(X^T X))."""
    z, spec = problem.Z_tilde, problem.spectrum
    n_feats = problem.X.shape[1]
    n_classes = z.shape[1]
    try:
        target = problem.c**2 * n_feats * n_classes
    except OverflowError:  # c above about 1.3e154
        target = math.inf
    d = spec.d
    try:
        noise = problem.sigma0**2
    except OverflowError:  # sigma0 above about 1.3e154
        noise = math.inf
    # Python floats: an overflow gives inf (refused) before numpy multiplies
    if not math.isfinite(noise * float(d.max()) * d.size):
        raise ResponseError(f"sigma0 = {problem.sigma0:g} puts the noise trace beyond float range")
    # trace(X R^2 X^T S) = sum_i (Xv_i)^T S (Xv_i) / (d_i - lam)^2 with
    # S = Z~Z~^T + sigma0^2 I and ||X v_i||^2 = d_i
    zxv = _xv_t(problem, z)
    m = np.einsum("ij,ij->i", zxv, zxv) + noise * np.maximum(d, 0.0)
    m_sum = float(m.sum())  # a Python float: m_sum / target overflows to inf silently
    if not 0 < target < math.inf or not math.isfinite(m_sum / target):
        raise ResponseError(f"cannot bracket lambda* for c = {problem.c:g}: "
                            f"trace target {target:.3e}, data scale {m_sum:.3e}")

    def trace(lam: float) -> np.float64:
        with np.errstate(over="ignore"):  # an infinite trace lies above any target
            return np.sum(m / (d - lam) ** 2)

    def trace_gap(lam: float) -> float:
        return float(trace(lam) - target)

    # a wide X leaves X^T X with zero eigenvalues outside d
    hi = (0.0 if spec.wide else d.min()) - 1e-8
    # for lam <= lo every d_i - lam >= 2 sqrt(sum(m) / target), so the trace
    # there is at most a quarter of the target, below it after rounding too;
    # -1e6 stays the end wherever that bound lies above it
    lo = min(-1e6, min(d.min(), hi) - 2.0 * math.sqrt(m_sum / target))
    f_lo, f_hi = trace_gap(lo), trace_gap(hi)
    if f_lo > 0 or f_hi < 0:
        raise ResponseError(
            "no lambda* in bracket: achievable trace range "
            f"[{trace(lo):.3e}, {trace(hi):.3e}] misses target {target:.3e}"
        )
    lam = brentq(trace_gap, lo, hi, xtol=1e-14, rtol=1e-12)
    return float(lam)


def fyodorov_omega(problem: ResponseProblem, seed: int) -> np.ndarray:
    """The closed-form readout omega, N_feats x N_classes, for the noise
    W = substream(seed, 0).standard_normal(Z_tilde.shape)."""
    z = problem.Z_tilde
    w = substream(seed, 0).standard_normal(z.shape)
    return _resolvent_xt(problem, z - problem.sigma0 * w)


def jacobian_block(problem: ResponseProblem, mu: int) -> np.ndarray:
    """Jacobian of the mu-th sample's input-to-logit map, N_classes x N_feats.

    Entry (m, j) = (R X^T)_{j mu} z~^mu_m + (Z~^T X R)_{m j}, with the
    resolvent R = [X^T X - lambda* I]^{-1} held fixed.
    """
    z = problem.Z_tilde
    if not (0 <= mu < z.shape[0]):
        raise ResponseError(f"sample index {mu} out of range")
    e_mu = np.zeros((z.shape[0], 1))
    e_mu[mu] = 1.0
    rxt = _resolvent_xt(problem, np.hstack([e_mu, z]))
    return np.outer(z[mu], rxt[:, 0]) + rxt[:, 1:].T


def _attack(problem: ResponseProblem) -> tuple[np.ndarray, np.ndarray]:
    """For every sample, JJ^T_mu g_mu and zeta_mu.

    g_mu = softmax(z~^mu) - y^mu is the attack gradient and JJ^T_mu g_mu =
    Omega_mumu z_mu (z_mu.g) + Z~^T Omega Z~ g + z_mu (b_mu.g) + b_mu (z_mu.g)
    with b_mu = Z~^T Omega[:, mu]; zeta_mu = 1/sqrt(g^T JJ^T_mu g), or 0 where
    that form vanishes.
    """
    z = problem.Z_tilde
    g = softmax(z) - np.eye(z.shape[1])[problem.labels.labels]
    b = _omega(problem, z)  # row mu is b_mu
    zg = np.einsum("ij,ij->i", z, g)
    jjg = (
        (_omega_diag(problem) * zg)[:, None] * z
        + g @ (z.T @ b)
        + np.einsum("ij,ij->i", b, g)[:, None] * z
        + zg[:, None] * b
    )
    quad = np.einsum("ij,ij->i", g, jjg)
    pos = quad > 0.0
    zeta = np.zeros_like(quad)
    zeta[pos] = 1.0 / np.sqrt(quad[pos])
    return jjg, zeta


def fgsm_logit_response(problem: ResponseProblem, epsilon: float) -> np.ndarray:
    """First-order per-sample logit shift under a normalized FGSM attack.

    delta z^mu = epsilon * zeta_mu * JJ^T_mu * (softmax(z~^mu) - y^mu) with
    zeta_mu = 1/sqrt(g^T JJ^T g). Samples with zero attack gradient get a
    zero row. Each epsilon scales the problem's one cached attack.
    """
    if not 0 <= epsilon < math.inf:
        raise ResponseError(f"finite epsilon >= 0 required, got {epsilon!r}")
    jjg, zeta = problem.attack
    return epsilon * zeta[:, None] * jjg


def gap_shift_experiment(
    params: MeanFieldParams,
    n_data: int,
    n_feats: int,
    epsilon: float,
    sigma0: float = 1e-3,
    c: float = 1.0,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Synthetic end-to-end check of the gap-shrinkage prediction.

    Builds unit-normalized Gaussian features, assembles surrogate logits with
    misclassified samples at rate error_rate, runs the FGSM linear response,
    and returns the predicted first-order change of the correct-sample logit
    gap, and the mean and std of its measurement over correctly classified
    samples.
    """
    if n_data < 1 or n_feats < 1:
        raise ResponseError("n_data and n_feats must be >= 1")
    n = params.n_classes
    if n_data * (n_feats + n) > MAX_VALUES:  # checked before any array is built
        raise ResponseError(f"n_data x (n_feats + n_classes) exceeds {MAX_VALUES} values")
    # gap_shrinkage reads both cases, so both betas are checked before any draw
    g, psi = coefficients(SurrogateSpec(n, params.beta_wrong, "misclassified"))
    f, _ = coefficients(SurrogateSpec(n, params.beta_correct, "correct"))
    rng = substream(seed, 1)
    x = rng.standard_normal((n_data, n_feats))
    x /= row_norms(x)[:, None]

    n_wrong = int(round(params.error_rate * n_data))
    labels = rng.integers(0, n, size=n_data)
    correct_mask = np.arange(n_data) >= n_wrong
    wrong = ~correct_mask
    argmax = labels.copy()
    argmax[wrong] = (labels[wrong] + 1 + rng.integers(0, n - 1, size=n_wrong)) % n
    # each sample's row is its case's ansatz on its own label and argmax
    z = ansatz_rows(np.where(wrong, params.beta_wrong, params.beta_correct),
                    np.where(wrong, g, f), np.where(wrong, psi, f), n, labels, argmax)

    problem = ResponseProblem(X=x, Z_tilde=z, labels=LabelVector(labels), sigma0=sigma0, c=c)
    # a huge epsilon overflows the attacked logits or their measurement; both
    # are refused below, so numpy need not warn of the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        attacked = z + fgsm_logit_response(problem, epsilon)
        if first_non_finite(attacked) is not None:
            raise ResponseError(
                f"epsilon = {epsilon:g} puts the attacked logits beyond float range")
        gaps_before = logit_gaps(LogitMatrix(z))
        gaps_after = logit_gaps(LogitMatrix(attacked))
        change = gaps_after[correct_mask] - gaps_before[correct_mask]
        measured_mean = float(change.mean()) if change.size else 0.0
        measured_std = float(change.std()) if change.size else 0.0
    if not (math.isfinite(measured_mean) and math.isfinite(measured_std)):
        raise ResponseError(
            f"epsilon = {epsilon:g} puts the measured gap change beyond float range")

    # Omega aggregation: row-mu sums of Omega(X, lambda*) over correctly and
    # incorrectly labeled nu, scaled by epsilon*zeta_mu and averaged over mu.
    cases = np.column_stack([correct_mask, wrong]).astype(np.float64)
    sum_correct, sum_wrong = _omega(problem, cases).T
    _, zeta = problem.attack
    eps_err = params.error_rate
    w_c = epsilon * np.mean(zeta * sum_correct)
    w_w = epsilon * np.mean(zeta * sum_wrong)
    omega_correct = max(w_c / (1.0 - eps_err), 0.0) if eps_err < 1.0 else 0.0
    omega_wrong = max(w_w / eps_err, 0.0) if eps_err > 0.0 else 0.0
    predicted = gap_shrinkage(params, omega_correct, omega_wrong)
    if epsilon == 0.0:
        predicted = 0.0
    return predicted, measured_mean, measured_std
