"""Test oracles for the surrogate model, written from the truncated loss
itself: nothing here reads logitlab.surrogate.

The third-order expansion of the cross-entropy -z_y + log sum_i exp(z_i)
around beta*phi_hat, phi_hat = e_k, in the remainder u = z - beta*phi_hat
(u_k = 0), is its value there, plus the first three cumulants of u under
the softmax h at beta*phi_hat:

    L(u) = log Z - beta [k == y] - u_y + m1 + (m2 - m1^2)/2
           + (m3 - 3 m1 m2 + 2 m1^3)/6,    m_p = sum_i h_i u_i^p,

with Z = e^beta + N - 1, h_k = e^beta / Z and h_i = 1/Z elsewhere. At a
fixed beta and argmax k it is a cubic in u, with gradient and Hessian

    dL/du_i = h_i (1 + u_i - m1 + u_i^2/2 - m2/2 - m1 u_i + m1^2) - [i == y],
    d2L/du_i du_j = h_i [i == j] (1 + u_i - m1) - h_i h_j (1 + u_i + u_j - 2 m1).

Each function takes one remainder u of length N, or a stack of them along
the leading axes.
"""

import numpy as np

from logitlab.rng import substream


class SearchError(Exception):
    pass


def _softmax_at(beta: float, k: int, n: int):
    """log Z and h, the softmax at beta*phi_hat."""
    log_z = np.logaddexp(beta, np.log(n - 1))
    h = np.full(n, np.exp(-log_z))
    h[k] = np.exp(beta - log_z)
    return log_z, h


def loss(beta: float, k: int, y: int, u: np.ndarray):
    log_z, h = _softmax_at(beta, k, u.shape[-1])
    m1, m2, m3 = (u**p @ h for p in (1, 2, 3))
    return (log_z - beta * (k == y) - u[..., y] + m1 + (m2 - m1**2) / 2
            + (m3 - 3 * m1 * m2 + 2 * m1**3) / 6)


def gradient(beta: float, k: int, y: int, u: np.ndarray) -> np.ndarray:
    _, h = _softmax_at(beta, k, u.shape[-1])
    m1, m2 = (u**p @ h for p in (1, 2))
    m1, m2 = m1[..., None], m2[..., None]
    g = h * (1 + u - m1 + u**2 / 2 - m2 / 2 - m1 * u + m1**2)
    g[..., y] -= 1
    return g


def hessian(beta: float, k: int, u: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """basis^T H basis, H the Hessian at u, by the expansion
    H = diag(h (1 + u - m1)) - (1 - 2 m1) h h^T - (h u) h^T - h (h u)^T,
    which forms no N x N matrix for a basis of fewer columns."""
    _, h = _softmax_at(beta, k, u.shape[-1])
    m1 = u @ h
    a, b = h @ basis, (h * u) @ basis
    diag = (basis.T * (h * (1 + u - m1[..., None]))[..., None, :]) @ basis
    return (diag - (1 - 2 * m1)[..., None, None] * np.outer(a, a)
            - b[..., :, None] * a - a[:, None] * b[..., None, :])


def solve_each(a: np.ndarray, b: np.ndarray, singular) -> np.ndarray:
    """x[s] with a[s] x[s] = b[s] for each stacked system s, by one batched
    solve; if one a[s] is singular, each is solved alone, and a singular one
    gets singular(a[s], b[s])."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.empty_like(b)
        for s, (a_s, b_s) in enumerate(zip(a, b)):
            try:
                x[s] = np.linalg.solve(a_s, b_s)
            except np.linalg.LinAlgError:
                x[s] = singular(a_s, b_s)
        return x


def brute_force_stationary(
    beta: float,
    n_classes: int,
    true_class: int,
    argmax_class: int,
    n_inits: int = 64,
    seed: int = 0,
    tol: float = 1e-6,
) -> list[np.ndarray]:
    """Stationary points of L in the complement of phi_hat that obey the
    strict max(u) < beta constraint.

    Damped Newton from n_inits standard normal starts (substream(seed, 0)),
    all advanced together by one batched solve per step, least squares where
    a Hessian is singular. A start stops once its projected gradient is below
    1e-12, or after 200 steps; each step is capped at length 5, which keeps
    the cubic's unbounded tail at bay. Points whose final gradient is at most
    1e-10 are clustered within tol in start order, and the representatives u
    (full ambient length) returned.
    """
    n, k, y = n_classes, argmax_class, true_class
    basis = np.delete(np.eye(n), k, axis=1)  # orthonormal basis of the complement
    c = substream(seed, 0).normal(size=(n_inits, n - 1))
    live = np.arange(n_inits)
    for _ in range(200):
        u = c[live] @ basis.T
        g = gradient(beta, k, y, u) @ basis
        moving = np.linalg.norm(g, axis=1) >= 1e-12
        live, u, g = live[moving], u[moving], g[moving]
        if not live.size:
            break
        step = solve_each(hessian(beta, k, u, basis), g,
                          lambda a, b: np.linalg.lstsq(a, b, rcond=None)[0])
        c[live] -= step * (5.0 / np.maximum(np.linalg.norm(step, axis=1), 5.0))[:, None]
    u = c @ basis.T
    res = np.linalg.norm(gradient(beta, k, y, u) @ basis, axis=1)
    found: list[np.ndarray] = []
    for u_s, res_s in zip(u, res):
        if res_s > 1e-10 or not np.all(np.isfinite(u_s)) or u_s.max() >= beta:
            continue
        if not any(np.linalg.norm(u_s - v) < tol for v in found):
            found.append(u_s)
    best = min(res[~np.isnan(res)], default=np.inf)
    if not found and best > 1e-10:
        raise SearchError(f"no stationary point converged; best residual {best:.3e}")
    return found
