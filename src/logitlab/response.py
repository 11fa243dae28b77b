"""Random-matrix linear response for the input-to-logit map.

The map is defined as the minimum-norm-constrained least-squares fit of
target logits Z_tilde (plus small Gaussian noise sigma0*W) by linear readout
of input features X: omega = [X^T X - lambda* I]^{-1} X^T (Z_tilde - sigma0 W)
with the Lagrange multiplier lambda* pinned by a trace equation. From the
closed-form solution we get per-sample Jacobians, their Gram matrices, and
the first-order logit response to a gradient-direction (FGSM) attack. All of
them come from one eigendecomposition of the smaller Gram matrix, X^T X or
X X^T.

``brentq`` is a module-level forwarding function that imports scipy on its
first call, so importing this module loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _lazy
from .rng import substream
from .stats import logit_gaps, softmax
from .store import LabelVector, LogitMatrix
from .surrogate import (
    GapShiftInput,
    MeanFieldParams,
    SurrogateSpec,
    gap_shrinkage,
    surrogate_logit,
)

brentq = _lazy("scipy.optimize", "brentq")


class ResponseError(Exception):
    pass


@dataclass(frozen=True)
class GramSpectrum:
    """Eigendecomposition of the smaller Gram matrix of X.

    d and v are the eigenvalues and eigenvectors of X^T X when n_data >=
    n_feats, and of X X^T otherwise (wide). xv is X V on the range of X^T:
    X v, or v sqrt(d) in the wide case, where the other n_feats - n_data
    eigenvalues of X^T X are zero and X maps their directions to zero.
    """

    d: np.ndarray
    v: np.ndarray
    xv: np.ndarray
    wide: bool


@dataclass(frozen=True)
class ResponseProblem:
    X: np.ndarray          # N_data x N_feats, unit-norm rows
    Z_tilde: np.ndarray    # N_data x N_classes
    labels: LabelVector
    sigma0: float = 1e-3
    c: float = 1.0
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        x = np.asarray(self.X, dtype=np.float64)
        z = np.asarray(self.Z_tilde, dtype=np.float64)
        if x.ndim != 2 or z.ndim != 2 or x.shape[0] != z.shape[0]:
            raise ResponseError("X and Z_tilde must share the data dimension")
        if not (np.isfinite(x).all() and np.isfinite(z).all()):
            raise ResponseError("non-finite entries in problem matrices")
        norms = np.linalg.norm(x, axis=1)
        if np.abs(norms - 1.0).max() > 1e-12:
            i = int(np.argmax(np.abs(norms - 1.0)))
            raise ResponseError(f"row {i} of X is not unit-normalized")
        if not (0 <= self.sigma0 < np.inf and 0 < self.c < np.inf
                and 0 <= self.epsilon < np.inf):
            raise ResponseError("finite sigma0 >= 0, c > 0, epsilon >= 0 required")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Z_tilde", z)

    @cached_property
    def spectrum(self) -> GramSpectrum:
        """X's Gram spectrum, computed on first use; lambda*, omega, the
        Jacobians and the attack response are all derived from it."""
        x = self.X
        if x.shape[0] >= x.shape[1]:
            d, v = np.linalg.eigh(x.T @ x)
            return GramSpectrum(d, v, x @ v, wide=False)
        d, u = np.linalg.eigh(x @ x.T)
        return GramSpectrum(d, u, u * np.sqrt(np.maximum(d, 0.0)), wide=True)


@dataclass(frozen=True)
class FyodorovSolution:
    omega: np.ndarray       # N_feats x N_classes
    lambda_star: float
    W: np.ndarray           # N_data x N_classes


def _resolvent_xt(problem: ResponseProblem, lam: float, y: np.ndarray) -> np.ndarray:
    """R X^T y with the resolvent R = [X^T X - lam I]^{-1}."""
    spec = problem.spectrum
    scale = (1.0 / (spec.d - lam))[:, None]
    if spec.wide:  # push-through: R X^T = X^T [X X^T - lam I]^{-1}
        return problem.X.T @ (spec.v @ (scale * (spec.v.T @ y)))
    return spec.v @ (scale * (spec.xv.T @ y))


def _omega_factor(problem: ResponseProblem, lam: float) -> np.ndarray:
    """Q with Omega(X, lambda*) = X R R X^T = Q Q^T, N_data x rank."""
    return problem.spectrum.xv / (problem.spectrum.d - lam)


def solve_lambda_star(problem: ResponseProblem) -> float:
    """Root of the norm-constraint trace equation on the branch where the
    resolvent is positive definite (lambda < lambda_min(X^T X))."""
    z, spec = problem.Z_tilde, problem.spectrum
    n_feats = problem.X.shape[1]
    n_classes = z.shape[1]
    target = problem.c**2 * n_feats * n_classes
    d, xv = spec.d, spec.xv
    # trace(X R^2 X^T S) = sum_i (Xv_i)^T S (Xv_i) / (d_i - lam)^2 with
    # S = Z~Z~^T + sigma0^2 I applied factor-wise
    szv = z @ (z.T @ xv) + problem.sigma0**2 * xv
    m = np.einsum("ij,ij->j", xv, szv)

    def trace_gap(lam: float) -> float:
        return float(np.sum(m / (d - lam) ** 2) - target)

    # a wide X leaves X^T X with zero eigenvalues outside d
    hi = (0.0 if spec.wide else d.min()) - 1e-8
    lo = -1e6
    f_lo, f_hi = trace_gap(lo), trace_gap(hi)
    if f_lo > 0 or f_hi < 0:
        raise ResponseError(
            "no lambda* in bracket: achievable trace range "
            f"[{f_lo + target:.3e}, {f_hi + target:.3e}] misses target {target:.3e}"
        )
    lam = brentq(trace_gap, lo, hi, xtol=1e-14, rtol=1e-12)
    return float(lam)


def fyodorov_omega(problem: ResponseProblem) -> FyodorovSolution:
    """Seeded noise draw, multiplier solve, and the closed-form readout."""
    z = problem.Z_tilde
    rng = substream(problem.seed, 0)
    w = rng.standard_normal(z.shape)
    lam = solve_lambda_star(problem)
    omega = _resolvent_xt(problem, lam, z - problem.sigma0 * w)
    return FyodorovSolution(omega=omega, lambda_star=lam, W=w)


def _check_sample(problem: ResponseProblem, mu: int) -> None:
    if not (0 <= mu < problem.X.shape[0]):
        raise ResponseError(f"sample index {mu} out of range")


def jacobian_block(
    sol: FyodorovSolution, problem: ResponseProblem, mu: int
) -> np.ndarray:
    """Jacobian of the mu-th sample's input-to-logit map, N_classes x N_feats.

    Entry (m, j) = (R X^T)_{j mu} z~^mu_m + (Z~^T X R)_{m j}, with the
    resolvent R = [X^T X - lambda* I]^{-1} held fixed.
    """
    z = problem.Z_tilde
    _check_sample(problem, mu)
    e_mu = np.zeros((z.shape[0], 1))
    e_mu[mu] = 1.0
    rxt = _resolvent_xt(problem, sol.lambda_star, np.hstack([e_mu, z]))
    return np.outer(z[mu], rxt[:, 0]) + rxt[:, 1:].T


def jj_transpose(
    sol: FyodorovSolution, problem: ResponseProblem, mu: int
) -> np.ndarray:
    """Gram matrix Jac^mu (Jac^mu)^T via the four-term closed form."""
    z = problem.Z_tilde
    _check_sample(problem, mu)
    q = _omega_factor(problem, sol.lambda_star)
    qz = q.T @ z
    b_mu = qz.T @ q[mu]                # Z~^T Omega[:, mu]
    zm = z[mu]
    return (
        float(q[mu] @ q[mu]) * np.outer(zm, zm)
        + qz.T @ qz
        + np.outer(zm, b_mu)
        + np.outer(b_mu, zm)
    )


def _attack(
    sol: FyodorovSolution, problem: ResponseProblem
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Omega factor Q, and for every sample JJ^T_mu g_mu and zeta_mu.

    g_mu = softmax(z~^mu) - y^mu is the attack gradient and JJ^T_mu g_mu =
    Omega_mumu z_mu (z_mu.g) + Z~^T Omega Z~ g + z_mu (b_mu.g) + b_mu (z_mu.g)
    with b_mu = Z~^T Omega[:, mu]; zeta_mu = 1/sqrt(g^T JJ^T_mu g), or 0 where
    that form vanishes.
    """
    z = problem.Z_tilde
    g = softmax(z) - np.eye(z.shape[1])[problem.labels.labels]
    q = _omega_factor(problem, sol.lambda_star)
    qz = q.T @ z
    b = q @ qz                         # row mu is b_mu
    zg = np.einsum("ij,ij->i", z, g)
    jjg = (
        (np.einsum("ij,ij->i", q, q) * zg)[:, None] * z
        + g @ (qz.T @ qz)
        + np.einsum("ij,ij->i", b, g)[:, None] * z
        + zg[:, None] * b
    )
    quad = np.einsum("ij,ij->i", g, jjg)
    pos = quad > 0.0
    zeta = np.zeros_like(quad)
    zeta[pos] = 1.0 / np.sqrt(quad[pos])
    return q, jjg, zeta


def fgsm_logit_response(
    sol: FyodorovSolution, problem: ResponseProblem
) -> np.ndarray:
    """First-order per-sample logit shift under a normalized FGSM attack.

    delta z^mu = epsilon * zeta_mu * JJ^T_mu * (softmax(z~^mu) - y^mu) with
    zeta_mu = 1/sqrt(g^T JJ^T g). Samples with zero attack gradient get a
    zero row.
    """
    _, jjg, zeta = _attack(sol, problem)
    return problem.epsilon * zeta[:, None] * jjg


def gap_shift_experiment(
    params: MeanFieldParams,
    n_data: int,
    n_feats: int,
    epsilon: float,
    sigma0: float = 1e-3,
    c: float = 1.0,
    seed: int = 0,
    branch: str = "plus",
) -> tuple[float, float, float]:
    """Synthetic end-to-end check of the gap-shrinkage prediction.

    Builds unit-normalized Gaussian features, assembles surrogate logits with
    misclassified samples at rate error_rate, runs the FGSM linear response,
    and returns (predicted shrinkage, measured mean gap change over
    correctly classified samples, measured std).
    """
    if n_data < 1 or n_feats < 1:
        raise ResponseError("n_data and n_feats must be >= 1")
    n = params.n_classes
    # gap_shrinkage reads both cases, so both betas are checked before any draw
    beta_w, g, psi = surrogate_logit(
        SurrogateSpec(n, params.beta_wrong, "misclassified", branch), 1, 0)[:3]
    beta_c, f = surrogate_logit(SurrogateSpec(n, params.beta_correct, "correct", branch), 0, 0)[:2]
    rng = substream(seed, 1)
    x = rng.standard_normal((n_data, n_feats))
    x /= np.linalg.norm(x, axis=1, keepdims=True)

    n_wrong = int(round(params.error_rate * n_data))
    labels = rng.integers(0, n, size=n_data)
    correct_mask = np.arange(n_data) >= n_wrong
    wrong = ~correct_mask
    # each sample's row is its case's surrogate logit moved onto its classes
    z = np.empty((n_data, n))
    if n_wrong:
        argmax = (labels[wrong] + 1 + rng.integers(0, n - 1, size=n_wrong)) % n
        z[wrong] = psi
        z[wrong, labels[wrong]] = g
        z[wrong, argmax] = beta_w
    if n_wrong < n_data:
        z[correct_mask] = f
        z[correct_mask, labels[correct_mask]] = beta_c

    problem = ResponseProblem(
        X=x, Z_tilde=z, labels=LabelVector(labels),
        sigma0=sigma0, c=c, epsilon=epsilon, seed=seed,
    )
    sol = fyodorov_omega(problem)
    q, jjg, zeta = _attack(sol, problem)
    dz = epsilon * zeta[:, None] * jjg

    gaps_before = logit_gaps(LogitMatrix(z))
    gaps_after = logit_gaps(LogitMatrix(z + dz))
    change = gaps_after[correct_mask] - gaps_before[correct_mask]
    measured_mean = float(change.mean()) if change.size else 0.0
    measured_std = float(change.std()) if change.size else 0.0

    # Omega aggregation: row-mu sums of Omega(X, lambda*) = Q Q^T over
    # correctly and incorrectly labeled nu, scaled by epsilon*zeta_mu and
    # averaged over mu.
    sum_correct = q @ q[correct_mask].sum(axis=0)
    sum_wrong = q @ q[~correct_mask].sum(axis=0)
    eps_err = params.error_rate
    w_c = epsilon * np.mean(zeta * sum_correct)
    w_w = epsilon * np.mean(zeta * sum_wrong)
    omega_correct = max(w_c / (1.0 - eps_err), 0.0) if eps_err < 1.0 else 0.0
    omega_wrong = max(w_w / eps_err, 0.0) if eps_err > 0.0 else 0.0
    predicted = gap_shrinkage(
        GapShiftInput(params, epsilon, omega_correct, omega_wrong), branch
    )
    if epsilon == 0.0:
        predicted = 0.0
    return predicted, measured_mean, measured_std
