"""Replica mean-field analysis of point-cloud manifolds.

Capacity is estimated by drawing Gaussian vectors T = (t, t0) in each
manifold's subspace coordinates (center direction appended as the last
coordinate), solving for the anchor point s_tilde via the dual of
min ||V - T||^2 s.t. V.(s, 1) <= -kappa, a nonnegative least-squares problem
(Lawson-Hanson NNLS), and averaging
[t0 + t.s_tilde]_+^2 / (1 + ||s_tilde||^2) over draws and manifolds. The
manifold radius R_M, dimension D_M, center correlation rho_center, the
alpha_Ball/alpha_Point capacities in closed form, center null-space
projection, and an empirical separability-bisection capacity are also
provided.

The empirical capacity calls a dichotomy separable when one NNLS certifies
a box margin max_{||w||_inf <= 1} min_i y_i w.x_i above 1e-9 (_separable).

``nnls`` is a module-level function that imports scipy's on each call, so
importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import substream


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the call. Nothing here calls it; it
    stays while bench/tracer.py wraps mftma.linprog by name, without which every
    traced bench run fails."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def nnls(*args, **kwargs):
    """scipy.optimize.nnls, imported on the call."""
    from scipy.optimize import nnls
    return nnls(*args, **kwargs)


class MftmaError(Exception):
    pass


@dataclass(frozen=True)
class ManifoldSet:
    clouds: tuple  # P arrays, each M_i x N

    def __post_init__(self) -> None:
        clouds = tuple(np.asarray(c, dtype=np.float64) for c in self.clouds)
        if not clouds:
            raise MftmaError("need at least one manifold")
        n = clouds[0].shape[1] if clouds[0].ndim == 2 else -1
        for i, c in enumerate(clouds):
            if c.ndim != 2 or c.size == 0:  # no points, or no coordinates
                raise MftmaError(f"cloud {i} must be a nonempty 2-D point array")
            if c.shape[1] != n:
                raise MftmaError(f"cloud {i} has ambient dimension {c.shape[1]} != {n}")
            if not np.isfinite(c).all():
                raise MftmaError(f"non-finite point in cloud {i}")
        object.__setattr__(self, "clouds", clouds)

    @property
    def P(self) -> int:
        return len(self.clouds)

    @property
    def ambient_dim(self) -> int:
        return self.clouds[0].shape[1]


@dataclass(frozen=True)
class MftmaResult:
    alpha_mftma: float
    radius: float
    dimension: float
    center_correlation: float


INTERIOR = None  # sentinel anchor for draws with no active constraint


def anchor_point(
    cloud: np.ndarray, t: np.ndarray, t0: float, kappa: float = 0.0
) -> tuple:
    """Anchor point and KKT weights for one Gaussian draw.

    cloud: M x D points in manifold-subspace coordinates (center coordinate
    appended implicitly as 1). Returns (s_tilde, weights); s_tilde is the
    interior sentinel when T is already feasible.
    """
    if not 0.0 <= kappa < np.inf:
        raise MftmaError("kappa must be finite and nonnegative")
    cloud = np.asarray(cloud, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    m = cloud.shape[0]
    s_emb = np.hstack([cloud, np.ones((m, 1))])      # M x (D+1)
    t_emb = np.append(t, t0)
    if np.all(s_emb @ t_emb + kappa <= 0.0):
        return INTERIOR, np.zeros(m)
    # The dual min 0.5 a'SS'a - a'(S T + kappa) over a >= 0 is the NNLS
    # problem min ||S'a - (t, t0 + kappa)||, because S's last column is ones.
    try:
        a, _ = nnls(s_emb.T, np.append(t, t0 + kappa))
    except RuntimeError as e:
        raise MftmaError(f"anchor NNLS did not converge: {e}") from e
    total = a.sum()
    if total <= 0.0:
        return INTERIOR, np.zeros(m)
    s_tilde = (s_emb.T @ a)[:-1] / total
    return s_tilde, a / total


def _subspace_coords(cloud: np.ndarray) -> np.ndarray:
    """Cloud in centered singular-direction coordinates, scaled by 1/||center||."""
    center = cloud.mean(axis=0)
    spread = cloud - center
    scale = np.linalg.norm(center)
    if scale < 1e-12:
        scale = 1.0
    if cloud.shape[0] == 1:
        return np.zeros((1, 1))
    u, s, vt = np.linalg.svd(spread, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * max(s[0], 1e-300)))
    if rank == 0:
        return np.zeros((cloud.shape[0], 1))
    return spread @ vt[:rank].T / scale


def center_correlation(mset: ManifoldSet) -> float:
    """Mean absolute pairwise cosine of globally centered centroids."""
    centers = np.array([c.mean(axis=0) for c in mset.clouds])
    centers = centers - centers.mean(axis=0)
    norms = np.linalg.norm(centers, axis=1)
    p = mset.P
    vals = []
    for i in range(p):
        for j in range(i + 1, p):
            if norms[i] < 1e-12 or norms[j] < 1e-12:
                vals.append(0.0)
            else:
                vals.append(abs(centers[i] @ centers[j] / (norms[i] * norms[j])))
    return float(np.mean(vals)) if vals else 0.0


def mftma_capacity(
    mset: ManifoldSet, n_samples: int = 200, kappa: float = 0.0, seed: int = 0
) -> MftmaResult:
    if n_samples < 1:
        raise MftmaError("n_samples must be >= 1")
    inv_alphas = []
    radii = []
    dims = []
    for i, cloud in enumerate(mset.clouds):
        coords = _subspace_coords(cloud)
        d = coords.shape[1]
        inv_sum = 0.0
        r2 = []
        td2 = []
        for k in range(n_samples):
            rng = substream(seed, i, k)
            t = rng.standard_normal(d)
            t0 = float(rng.standard_normal())
            s_tilde, _ = anchor_point(coords, t, t0, kappa)
            if s_tilde is INTERIOR:
                continue
            norm2 = float(s_tilde @ s_tilde)
            proj = float(np.append(t, t0) @ np.append(s_tilde, 1.0)) + kappa
            try:
                inv_sum += max(proj, 0.0) ** 2 / (1.0 + norm2)
            except OverflowError:  # kappa above about 1.3e154
                inv_sum = math.inf
            r2.append(norm2)
            if norm2 > 0:
                td2.append(float(t @ s_tilde) ** 2 / norm2)
        if not math.isfinite(inv_sum):
            raise MftmaError(f"kappa = {kappa:g} puts the capacity sum beyond float range")
        inv_alphas.append(inv_sum / n_samples)
        radii.append(np.sqrt(np.mean(r2)) if r2 else 0.0)
        dims.append(np.mean(td2) if td2 else 0.0)
    mean_inv = float(np.mean(inv_alphas))
    if mean_inv <= 0:
        raise MftmaError("degenerate capacity estimate (all draws interior)")
    return MftmaResult(
        alpha_mftma=1.0 / mean_inv,
        radius=float(np.mean(radii)),
        dimension=float(np.mean(dims)),
        center_correlation=center_correlation(mset),
    )


def project_null_centers(mset: ManifoldSet) -> ManifoldSet:
    """Project each manifold into the null space of the other centroids.

    The global mean is removed first; manifold i is then projected onto the
    orthogonal complement of the span of the other manifolds' centered
    centroids (leave-one-out).
    """
    if mset.P < 2:
        raise MftmaError("need at least two manifolds")
    if mset.ambient_dim <= mset.P:
        raise MftmaError(
            f"ambient dimension {mset.ambient_dim} leaves no null space for "
            f"{mset.P} centers"
        )
    all_points = np.vstack(mset.clouds)
    gmean = all_points.mean(axis=0)
    centers = np.array([c.mean(axis=0) - gmean for c in mset.clouds])
    out = []
    for i, cloud in enumerate(mset.clouds):
        others = np.delete(centers, i, axis=0)
        q, r = np.linalg.qr(others.T)
        keep = np.abs(np.diag(r)) > 1e-10
        q = q[:, keep]
        pts = cloud - gmean
        out.append(pts - (pts @ q) @ q.T)
    return ManifoldSet(tuple(out))


def _shortfall_moment(a: float) -> float:
    """E[(a - t)_+^2] for t ~ N(0, 1), the integral of phi(t) (a - t)^2 over
    t <= a: (a^2 + 1) Phi(a) + a phi(a). Exact to rounding for a >= 0."""
    pdf = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * math.erfc(-a / math.sqrt(2.0))
    return (a * a + 1.0) * cdf + a * pdf


def alpha_ball(R: float, D: float) -> float:
    """Capacity of L2-ball manifolds with radius R and dimension D."""
    if not (0.0 <= R < np.inf and 0.0 <= D < np.inf):
        raise MftmaError("R and D must be finite and nonnegative")
    num, den = R * R + 1.0, _shortfall_moment(R * math.sqrt(D))
    if not math.isfinite(num + den):
        raise MftmaError(f"R = {R:g}, D = {D:g} put R^2 or R^2 D beyond float range")
    return num / den


def alpha_point(kappa: float) -> float:
    """Capacity of points under an imposed margin kappa."""
    if not 0.0 <= kappa < np.inf:
        raise MftmaError("kappa must be finite and nonnegative")
    return 1.0 / _shortfall_moment(kappa)


def _certified_margin(signed: np.ndarray) -> float:
    """The box margin min(S w) / ||w||_inf that one NNLS certifies for the
    signed points S, or 0. The least-distance problem min ||w||_2 s.t. S w >= 1
    is nnls(E, f) with E = [S^T; 1^T], f = e_{d+1} (Lawson & Hanson 1974,
    ch. 23); if r = E u - f has r[-1] < 0, w = -r[:-1] / r[-1] solves it."""
    e = np.vstack([signed.T, np.ones(signed.shape[0])])
    f = np.zeros(e.shape[0])
    f[-1] = 1.0
    try:
        u, _ = nnls(e, f)
    except RuntimeError as err:
        raise MftmaError(f"separability NNLS did not converge: {err}") from err
    r = e @ u - f
    if r[-1] >= 0.0:
        return 0.0
    w = -r[:-1] / r[-1]
    scale = np.abs(w).max()
    return max(float((signed @ w).min()) / scale, 0.0) if scale > 0.0 else 0.0


def _separable(points: np.ndarray, labels: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether the certified box margin of the signed points labels_i * x_i
    exceeds tol. w / ||w||_inf is box-feasible, and the box optimum w* / m* is
    feasible for the least-distance problem with norm <= sqrt(d) / m*, so
    m* >= certified >= 1 / ||w||_2 >= m* / sqrt(d): a dichotomy counted as not
    separable has m* <= sqrt(d) * tol in exact arithmetic, and a margin lost
    to NNLS rounding counts as not separable."""
    return _certified_margin(labels[:, None] * points) > tol


def _separable_fraction(
    mset: ManifoldSet, n_feats: int, n_dichotomies: int, seed: int
) -> float:
    n_amb = mset.ambient_dim
    hits = 0
    sizes = [c.shape[0] for c in mset.clouds]
    stacked = np.vstack(mset.clouds)
    for d in range(n_dichotomies):
        rng = substream(seed, n_feats, d)
        labels_m = rng.choice([-1.0, 1.0], size=mset.P)
        if n_feats < n_amb:
            proj = rng.standard_normal((n_amb, n_feats)) / np.sqrt(n_feats)
            pts = stacked @ proj
        else:
            pts = stacked
        labels = np.repeat(labels_m, sizes)
        if _separable(pts, labels):
            hits += 1
    return hits / n_dichotomies


def empirical_capacity(
    mset: ManifoldSet, n_dichotomies: int = 50, seed: int = 0
) -> float:
    """P over the critical projected dimension at 50% separability."""
    if mset.P < 2:
        raise MftmaError("need at least two manifolds")
    if n_dichotomies < 1:
        raise MftmaError("n_dichotomies must be >= 1")
    n_amb = mset.ambient_dim
    lo, hi = 1, n_amb
    if _separable_fraction(mset, lo, n_dichotomies, seed) >= 0.5:
        return float(mset.P)  # separable already at one dimension
    if _separable_fraction(mset, hi, n_dichotomies, seed) < 0.5:
        raise MftmaError(
            "separable fraction never reaches 0.5 at full ambient dimension"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _separable_fraction(mset, mid, n_dichotomies, seed) >= 0.5:
            hi = mid
        else:
            lo = mid
    return mset.P / hi
