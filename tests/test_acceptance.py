"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Criteria 1-2 check the true stationary points of the truncated loss on the
symmetric ansatz, as returned by surrogate.symmetric_stationary, against a
Newton search on the ansatz and tests/oracles.py's brute-force search, both
stepping on that module's own gradient and Hessian of the loss, and against
a finite-difference gradient. The printed closed forms
(surrogate.coefficients) are not stationary points of that loss; both lines
print how far off they are. These two criteria vouch for the exact roots
only: the analytic outputs (loss surface, gap shrinkage, thresholds,
surrogate logits) are still built on the printed forms. Criterion 3 asks for
the paper's misclassified-case threshold of 3.5 +/- 0.2 at 10 classes. No
formula here gives it, so it fails and reports the thresholds it measures.
Criterion 10 checks average overlap against a brute-force oracle and the
identities its definition implies.
"""

import itertools
import shutil

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from logitlab import cli, forge, mftma, response, stats, store, surrogate
from logitlab.store import LabelVector, LogitMatrix


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _admissible_betas(n_classes: int, case: str, branch: str, count: int = 20):
    betas = []
    for b in np.arange(0.3, 40.0, 0.05):
        if surrogate.admissible(surrogate.SurrogateSpec(n_classes, float(b), case, branch)):
            betas.append(float(b))
        if len(betas) >= count:
            break
    return betas


def _closed_form_u(n_classes: int, beta: float, case: str, branch: str) -> np.ndarray:
    true_class = 0 if case == "correct" else 1
    z = surrogate.surrogate_logit(
        surrogate.SurrogateSpec(n_classes, beta, case, branch), true_class, 0
    )
    u = z.copy()
    u[0] = 0.0
    return u


def _nearest(a: np.ndarray, points: list) -> float:
    """Componentwise distance from a to the nearest of points (inf if none)."""
    return min((np.abs(a - v).max() for v in points), default=np.inf)


def _ansatz_settings():
    """(N, case, true class, beta) on a fixed beta grid: correct-case roots
    exist below ln(2(N-1)) and none above; each beta stays at least 0.05 from
    the poles ln(N-1) and ln(N-3). The argmax class is 0."""
    for n_classes in (4, 10, 100):
        poles = np.log([n_classes - 1, max(n_classes - 3, 1)])
        for case in ("correct", "misclassified"):
            for beta in np.arange(0.25, 10.0, 0.25):
                if np.abs(beta - poles).min() >= 0.05:
                    yield n_classes, case, 0 if case == "correct" else 1, float(beta)


def _printed_settings():
    """(N, true class, beta, u) for the printed closed forms on the grid of
    admissible betas of each case and branch."""
    for n_classes in (4, 10, 100):
        for case, branch in itertools.product(
            ("correct", "misclassified"), ("plus", "minus")
        ):
            for beta in _admissible_betas(n_classes, case, branch):
                yield (
                    n_classes,
                    0 if case == "correct" else 1,
                    beta,
                    _closed_form_u(n_classes, beta, case, branch),
                )


def _ansatz_basis(n_classes: int, case: str) -> np.ndarray:
    """Columns span the symmetric ansatz: argmax class 0, true class 1 when
    misclassified; u = f on every other class, or u_1 = g and psi elsewhere."""
    if case == "correct":
        d = np.ones((n_classes, 1))
    else:
        d = np.zeros((n_classes, 2))
        d[1, 0] = 1.0
        d[2:, 1] = 1.0
    d[0] = 0.0
    return d


def _newton_on_ansatz(beta: float, n_classes: int, case: str) -> list:
    """Stationary points on the ansatz from Newton's method on the oracle's
    gradient and Hessian (at fixed beta and argmax, so defined for every u),
    projected onto the ansatz basis. Every fixed start takes its steps
    together with the others; a start stops at a singular Jacobian, once it
    leaves [-1e6, 1e6], or once its step is below 1e-13 (1 + max|p|), and
    converges then. Converged points below beta are clustered in start order."""
    d = _ansatz_basis(n_classes, case)
    y = 0 if case == "correct" else 1
    p = np.array(list(itertools.product((-100.0, -3.0, 3.0, 100.0), repeat=d.shape[1])))
    live = np.arange(len(p))
    converged = {}
    for _ in range(100):
        u = p[live] @ d.T
        jac = oracles.hessian(beta, 0, u, d)
        step = oracles.solve_each(jac, oracles.gradient(beta, 0, y, u) @ d,
                                  lambda a, b: np.full_like(b, np.nan))
        p[live] -= step
        size = np.abs(p[live]).max(axis=1)
        done = ~(size <= 1e6)  # diverged, NaN included
        conv = ~done & (np.abs(step).max(axis=1) <= 1e-13 * (1.0 + size))
        converged.update(zip(live[conv], p[live[conv]] @ d.T))
        live = live[~(done | conv)]
        if not live.size:
            break
    found = []
    for s in sorted(converged):
        u = converged[s]
        if u.max() < beta and _nearest(u, found) > 1e-6 * (1.0 + np.abs(u).max()):
            found.append(u)
    return found


def _on_ansatz(u: np.ndarray, case: str) -> bool:
    rest = u[1:] if case == "correct" else u[2:]
    return bool(np.abs(rest - rest[0]).max() < 1e-8)


def test_criterion_01_stationary_point_equivalence():
    worst, mismatched, settings, roots = 0.0, 0, 0, 0
    for n_classes, case, true_class, beta in _ansatz_settings():
        settings += 1
        exact = surrogate.symmetric_stationary(beta, n_classes, case, true_class, 0)
        newton = _newton_on_ansatz(beta, n_classes, case)
        roots += len(exact)
        if len(exact) != len(newton):
            mismatched += 1
            continue
        for u in exact:
            worst = max(worst, _nearest(u, newton))
        for u in newton:
            worst = max(worst, _nearest(u, exact))

    # soundness of the brute-force oracle: whatever it finds on the ansatz is
    # one of the exact roots (it cannot show completeness: the loss has up to
    # 2^(N-1) stationary points and random starts rarely land on the ansatz)
    brute_on_ansatz, unsound = 0, 0
    for n_classes in (4, 10):
        for case in ("correct", "misclassified"):
            true_class = 0 if case == "correct" else 1
            for beta in (0.5, 1.5, 2.5, 3.5):
                exact = surrogate.symmetric_stationary(
                    beta, n_classes, case, true_class, 0
                )
                try:
                    found = oracles.brute_force_stationary(
                        beta, n_classes, true_class, 0, n_inits=16
                    )
                except oracles.SearchError:
                    found = []
                for u in found:
                    if _on_ansatz(u, case):
                        brute_on_ansatz += 1
                        unsound += _nearest(u, exact) >= 1e-5

    printed_matched, printed_total = 0, 0
    for n_classes, true_class, beta, u in _printed_settings():
        case = "correct" if true_class == 0 else "misclassified"
        exact = surrogate.symmetric_stationary(beta, n_classes, case, true_class, 0)
        printed_total += 1
        printed_matched += _nearest(u, exact) < 1e-5
    _report(
        1,
        roots > 0
        and brute_on_ansatz > 0
        and worst < 1e-5
        and mismatched == 0
        and unsound == 0,
        f"exact ansatz roots vs Newton search over {settings} settings "
        f"({roots} roots): {mismatched} count mismatches, max componentwise "
        f"error {worst:.3e} (need < 1e-5); brute-force points on the ansatz "
        f"{brute_on_ansatz}, {unsound} not exact roots; printed closed forms "
        f"within 1e-5 of a root in {printed_matched} of {printed_total} "
        f"admissible settings",
    )


def _fd_projected_gradient(u: np.ndarray, beta: float, true_class: int) -> float:
    """Five-point-stencil gradient norm of truncated_ce over the non-argmax
    coordinates. The loss is cubic in each coordinate, so the stencil is exact
    up to rounding; steps keep every coordinate below beta."""
    z = u.copy()
    z[0] = beta
    grad = np.zeros(u.size)
    for j in range(1, u.size):
        h = min(1e-2, (beta - u[j]) / 4)
        vals = []
        for k in (2, 1, -1, -2):
            zk = z.copy()
            zk[j] += k * h
            vals.append(surrogate.truncated_ce(zk, true_class))
        grad[j] = (-vals[0] + 8 * vals[1] - 8 * vals[2] + vals[3]) / (12 * h)
    return float(np.linalg.norm(grad))


def test_criterion_02_projected_gradient_at_closed_forms():
    worst, roots = 0.0, 0
    for n_classes, case, true_class, beta in _ansatz_settings():
        for u in surrogate.symmetric_stationary(beta, n_classes, case, true_class, 0):
            roots += 1
            worst = max(worst, _fd_projected_gradient(u, beta, true_class))

    printed = [
        _fd_projected_gradient(u, beta, true_class)
        for _, true_class, beta, u in _printed_settings()
    ]
    _report(
        2,
        roots > 0 and worst < 1e-8,
        f"five-point projected gradient at {roots} exact ansatz roots: max norm "
        f"{worst:.3e} (need < 1e-8); at the printed closed forms: norm from "
        f"{min(printed):.3e} to {max(printed):.3e}",
    )


def test_criterion_03_misclassified_admissibility_threshold():
    ths = {
        branch: surrogate.admissibility_threshold(10, "misclassified", branch)
        for branch in ("plus", "minus")
    }
    ok = any(abs(t - 3.5) <= 0.2 for t in ths.values())
    _report(
        3,
        ok,
        f"misclassified-case threshold at 10 classes: plus={ths['plus']:.4f}, "
        f"minus={ths['minus']:.4f} (need 3.5 +/- 0.2)",
    )


def _gap_correct(beta: float, n_classes: int, branch: str) -> float:
    f, _ = surrogate.coefficients(surrogate.SurrogateSpec(n_classes, beta, "correct", branch))
    return beta - f


def test_criterion_04_gap_shrinkage_sign_and_scaling():
    n_classes, eps = 10, 0.1
    betas_c = _admissible_betas(n_classes, "correct", "plus", count=30)
    betas_w = _admissible_betas(n_classes, "misclassified", "plus", count=30)
    max_val = -np.inf
    for bc in betas_c:
        for bw in betas_w:
            params = surrogate.MeanFieldParams(bc, bw, n_classes, 0.2)
            val = surrogate.gap_shrinkage(params, 1.0, 1.0, "plus")
            max_val = max(max_val, val)
    sign_ok = max_val <= 0.0

    # quadratic dependence of the correct-case term on its gap: find a second
    # beta whose gap is exactly double and compare -(1-eps)*Omega*gap^2 terms
    b1 = 6.0
    g1 = _gap_correct(b1, n_classes, "plus")
    b2 = brentq(
        lambda b: _gap_correct(b, n_classes, "plus") - 2.0 * g1, b1, 40.0,
        xtol=1e-14, rtol=8.9e-16,
    )
    t1 = -(1 - eps) * 1.0 * g1**2
    t2 = -(1 - eps) * 1.0 * _gap_correct(b2, n_classes, "plus") ** 2
    scale_ok = abs(t2 / t1 - 4.0) < 1e-10 * 4.0
    _report(
        4,
        sign_ok and scale_ok,
        f"shrinkage <= 0 on admissible grid (max {max_val:.3e}) and first term "
        f"x{t2 / t1:.12f} under gap doubling (need x4 to 1e-10 rel)",
    )


def test_criterion_05_end_to_end_linear_response():
    means = []
    ok = True
    for bc in (4.0, 5.0, 6.0):
        for bw in (4.0, 5.0, 6.0):
            params = surrogate.MeanFieldParams(bc, bw, 10, 0.2)
            _, mean, _ = response.gap_shift_experiment(
                params, 200, 100, 0.1, seed=0
            )
            means.append(mean)
            ok = ok and mean < 0
    _report(
        5,
        ok,
        f"measured mean gap change negative on 3x3 admissible grid "
        f"(range [{min(means):.3f}, {max(means):.3f}])",
    )


def test_criterion_06_jacobian_oracles():
    worst_fd, worst_jj, min_eig = 0.0, 0.0, np.inf
    for trial in range(10):
        rng = np.random.default_rng(trial)
        x = rng.standard_normal((20, 8))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        z = rng.standard_normal((20, 5))
        p = response.ResponseProblem(
            X=x, Z_tilde=z, labels=LabelVector(rng.integers(0, 5, 20)),
            sigma0=1e-12, c=1.0,
        )
        r = np.linalg.inv(x.T @ x - p.lambda_star * np.eye(8))
        mu = int(rng.integers(0, 20))
        jac = response.jacobian_block(p, mu)
        h = 1e-6
        fd = np.zeros_like(jac)
        for j in range(8):
            xp = x.copy(); xp[mu, j] += h
            xm = x.copy(); xm[mu, j] -= h
            fd[:, j] = (z.T @ xp @ r @ xp[mu] - z.T @ xm @ r @ xm[mu]) / (2 * h)
        worst_fd = max(worst_fd, np.linalg.norm(jac - fd) / np.linalg.norm(jac))
        # JJ^T from the Jacobian against the closed form the attack applies
        jj = jac @ jac.T
        g = stats.softmax(z[mu]) - np.eye(5)[p.labels.labels[mu]]
        shift = response.fgsm_logit_response(p, 1.0)[mu]
        worst_jj = max(
            worst_jj,
            np.abs(shift - jj @ g / np.sqrt(g @ jj @ g)).max(),
            np.abs(jj - jj.T).max(),
        )
        min_eig = min(min_eig, np.linalg.eigvalsh(jj).min())
    ok = worst_fd < 1e-5 and worst_jj < 1e-10 and min_eig >= -1e-10
    _report(
        6,
        ok,
        f"jacobian vs finite differences rel {worst_fd:.3e} (< 1e-5); "
        f"JJ^T vs the attack's closed form/symmetry {worst_jj:.3e} (< 1e-10), "
        f"min eigenvalue {min_eig:.3e}",
    )


def test_criterion_07_constrained_solve():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((30, 12))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    z = rng.standard_normal((30, 6))
    p = response.ResponseProblem(
        X=x, Z_tilde=z, labels=LabelVector(rng.integers(0, 6, 30)),
        sigma0=1e-3, c=1.0,
    )
    r = np.linalg.inv(x.T @ x - p.lambda_star * np.eye(12))
    s = z @ z.T + p.sigma0**2 * np.eye(30)
    tr = np.trace(x @ r @ r @ x.T @ s)
    target = p.c**2 * 12 * 6
    residual = abs(tr - target) / target

    n = 6
    z2 = rng.standard_normal((n, 4))
    c = np.linalg.norm(z2) / np.sqrt(n * 4)
    p2 = response.ResponseProblem(
        X=np.eye(n), Z_tilde=z2, labels=LabelVector(np.zeros(n, dtype=int)),
        sigma0=0.0, c=c,
    )
    identity_err = np.abs(response.fyodorov_omega(p2, 0) - z2).max()
    ok = residual < 1e-8 and identity_err < 1e-9
    _report(
        7,
        ok,
        f"trace residual {residual:.3e} (< 1e-8); identity-design recovery "
        f"error {identity_err:.3e}",
    )


def _ball_manifolds(rng, p, n, d, radius, m):
    clouds = []
    for _ in range(p):
        c = rng.standard_normal(n)
        c /= np.linalg.norm(c)
        basis = np.linalg.qr(rng.standard_normal((n, d)))[0]
        pts = rng.standard_normal((m, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        clouds.append(c + (radius * pts) @ basis.T)
    return mftma.ManifoldSet(tuple(clouds))


def test_criterion_08_manifold_capacity():
    quad_ok = (
        abs(mftma.alpha_point(0.0) - 2.0) < 1e-10
        and all(abs(mftma.alpha_ball(0.0, d) - 2.0) < 1e-10 for d in (1.0, 5.0, 20.0))
    )

    rng = np.random.default_rng(0)
    points = mftma.ManifoldSet(
        tuple(rng.standard_normal((1, 50)) for _ in range(30))
    )
    alpha_pt = mftma.mftma_capacity(points, n_samples=2000, seed=1).alpha_mftma
    point_ok = abs(alpha_pt - 2.0) / 2.0 < 0.05

    theory, formula, empirical = [], [], []
    for inst in range(3):
        balls = _ball_manifolds(rng, p=12, n=40, d=4, radius=0.3, m=40)
        res = mftma.mftma_capacity(balls, n_samples=300, seed=2 + inst)
        theory.append(res.alpha_mftma)
        formula.append(mftma.alpha_ball(res.radius, res.dimension))
        empirical.append(
            mftma.empirical_capacity(balls, n_dichotomies=40, seed=20 + inst)
        )
    ball_ok = all(
        abs(t - f) / f < 0.10 for t, f in zip(theory, formula)
    )
    mean_theory = float(np.mean(theory))
    mean_emp = float(np.mean(empirical))
    emp_ok = (
        mean_theory >= mean_emp
        and abs(mean_theory - mean_emp) / mean_emp < 0.20
    )

    ok = quad_ok and point_ok and ball_ok and emp_ok
    _report(
        8,
        ok,
        f"quadratures at 2 ({quad_ok}); point capacity {alpha_pt:.3f} (~2); "
        f"ball capacity within 10% of formula on each instance ({ball_ok}); "
        f"mean theory {mean_theory:.3f} >= mean empirical {mean_emp:.3f} "
        f"within 20%",
    )


def test_criterion_09_manipulation_invariants():
    rng = np.random.default_rng(0)
    n_rows, n_cols = 10_000, 10
    vals = rng.standard_normal((n_rows, n_cols)) * 3
    m = LogitMatrix(vals)
    labels = LabelVector(rng.integers(0, n_cols, n_rows))
    other = LogitMatrix(rng.standard_normal((n_rows, n_cols)))
    violations = 0

    perm = forge.fix_k_permute(m, 3, seed=1).values
    avg = forge.fix_k_average(m, 3).values
    fixed = forge.correct_fix_1(m, labels).values
    hyb = forge.hybrid_merge(m, other).values
    ident_p = forge.fix_k_permute(m, n_cols, seed=1).values
    ident_a = forge.fix_k_average(m, n_cols).values

    top3 = np.argsort(-vals, axis=1, kind="stable")[:, :3]
    rows = np.arange(n_rows)[:, None]
    for r in range(n_rows):
        t = top3[r]
        if not (np.array_equal(perm[r, t], vals[r, t])
                and sorted(perm[r]) == sorted(vals[r])):
            violations += 1
        if not (np.array_equal(avg[r, t], vals[r, t])
                and abs(avg[r].sum() - vals[r].sum()) < 1e-9):
            violations += 1
        if np.argmax(fixed[r]) != labels.labels[r]:
            violations += 1
        if not (np.array_equal(np.argsort(-hyb[r], kind="stable"),
                               np.argsort(-other.values[r], kind="stable"))
                and sorted(hyb[r]) == sorted(vals[r])):
            violations += 1
    if not np.array_equal(ident_p, vals) or not np.array_equal(ident_a, vals):
        violations += 1
    _report(
        9,
        violations == 0,
        f"manipulation invariants over {n_rows} rows: {violations} violations",
    )


def test_criterion_10_statistics_oracles():
    rng = np.random.default_rng(0)
    n, c = 100, 8
    vals = rng.standard_normal((n, c))
    labels = LabelVector(rng.integers(0, c, n))
    # bias toward the true class so every class keeps correctly predicted
    # samples while some errors remain
    vals[np.arange(n), labels.labels] += 1.5
    m = LogitMatrix(vals)

    gaps = stats.logit_gaps(m)
    gap_oracle = np.array([np.sort(row)[-1] - np.sort(row)[-2] for row in vals])
    gaps_ok = np.array_equal(gaps, gap_oracle)

    other = LogitMatrix(rng.standard_normal((n, c)))
    curve = stats.average_overlap(m, other, c)
    ao_oracle = np.zeros(c)
    for r in range(n):
        o1 = np.lexsort((np.arange(c), -vals[r]))
        o2 = np.lexsort((np.arange(c), -other.values[r]))
        for k in range(1, c + 1):
            total = 0.0
            for i in range(1, k + 1):
                total += len(set(o1[:i]) & set(o2[:i])) / i
            ao_oracle[k - 1] += total / k
    ao_oracle /= n
    ao_ok = np.abs(curve.ao_at_k - ao_oracle).max() < 1e-12

    neigh = stats.cosine_neighbors(m, 0, 5)
    sims = [
        (float(vals[i] @ vals[0]
               / (np.linalg.norm(vals[i]) * np.linalg.norm(vals[0]))), i)
        for i in range(1, n)
    ]
    sims.sort(key=lambda t: (-t[0], t[1]))
    neigh_ok = all(
        got[0] == want[1] and abs(got[1] - want[0]) < 1e-12
        for got, want in zip(neigh, sims[:5])
    )

    bundle = store.validate_bundle(m, labels)
    profile = stats.error_prediction_profile(bundle)
    preds = np.argmax(vals, axis=1)
    mean_vecs = {}
    for cls in range(c):
        mask = (preds == labels.labels) & (labels.labels == cls)
        mean_vecs[cls] = vals[mask].mean(axis=0)
    oracle_profile = np.zeros(c)
    wrong = [i for i in range(n) if preds[i] != labels.labels[i]]
    for i in wrong:
        mv = mean_vecs[labels.labels[i]]
        order = sorted(range(c), key=lambda j: (-mv[j], j))
        oracle_profile[order.index(preds[i])] += 1
    oracle_profile /= len(wrong)
    profile_ok = np.abs(profile - oracle_profile).max() < 1e-12

    # AO@k averages the top-i overlaps for i=1..k, and only the depth-N term
    # is 1 on a shared class set: N*AO@N - (N-1)*AO@(N-1) recovers it
    ao = curve.ao_at_k
    depth_n = float(c * ao[-1] - (c - 1) * ao[-2])
    depth_ok = abs(depth_n - 1.0) < 1e-12
    self_ao = stats.average_overlap(m, m, c).ao_at_k
    self_ok = bool(np.all(self_ao == 1.0))

    ok = gaps_ok and ao_ok and neigh_ok and profile_ok and depth_ok and self_ok
    _report(
        10,
        ok,
        f"oracles: gaps {gaps_ok}, overlap {ao_ok}, neighbors {neigh_ok}, "
        f"error profile {profile_ok}; depth-{c} overlap term {depth_n:.16f} "
        f"(need 1 to 1e-12; AO@{c} = {ao[-1]:.4f}); AO of a matrix with "
        f"itself is 1 at every depth: {self_ok}",
    )


def test_criterion_11_seeded_reproducibility(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((60, 6))
    store.store_matrix(LogitMatrix(vals), tmp_path / "m.lgt", "binary")
    store.store_matrix(
        LogitMatrix(vals + 0.1 * rng.standard_normal(vals.shape)),
        tmp_path / "m2.lgt", "binary",
    )
    store.store_labels(
        LabelVector(rng.integers(0, 6, 60)), tmp_path / "y.txt"
    )
    for i in range(4):
        name = f"c{i}.lgt"
        store.store_matrix(
            LogitMatrix(rng.standard_normal((6, 15))), tmp_path / name, "binary"
        )
    (tmp_path / "manifolds.txt").write_text(
        "\n".join(f"c{i}.lgt" for i in range(4)) + "\n"
    )
    runs = {
        "manipulate": ["manipulate", "--logits", str(tmp_path / "m.lgt"),
                       "--kind", "fix_k_permute", "--k", "2", "--seed", "5"],
        "overlap": ["overlap", "--logits", str(tmp_path / "m.lgt"),
                    "--logits2", str(tmp_path / "m2.lgt"),
                    "--labels", str(tmp_path / "y.txt"), "--seed", "5"],
        "response": ["response", "--n-data", "40", "--n-feats", "20",
                     "--seed", "5"],
        "mftma": ["mftma", "--manifolds", str(tmp_path / "manifolds.txt"),
                  "--n-samples", "30", "--seed", "5"],
    }
    ok = True
    for name, argv in runs.items():
        snaps = []
        for rep in ("a", "b"):
            out = tmp_path / f"{name}_{rep}"
            if out.exists():
                shutil.rmtree(out)
            assert cli.main(argv + ["--out", str(out)]) == 0
            snaps.append({
                p.name: p.read_bytes()
                for p in sorted(out.iterdir()) if p.name != "manifest.json"
            })
        ok = ok and snaps[0] == snaps[1]
    _report(
        11,
        ok,
        "seeded subcommands rerun byte-identical "
        f"({', '.join(runs)})",
    )


def test_criterion_12_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((1000, 100)) * np.exp(
        rng.uniform(-30, 30, (1000, 100))
    )
    m = LogitMatrix(vals)
    store.store_matrix(m, tmp_path / "b.lgt", "binary")
    back_b = store.load_matrix(tmp_path / "b.lgt", "binary")
    bin_ok = back_b.values.tobytes() == vals.tobytes()
    store.store_matrix(m, tmp_path / "t.lgt", "text")
    back_t = store.load_matrix(tmp_path / "t.lgt", "text")
    txt_ok = np.array_equal(back_t.values, vals)
    _report(
        12,
        bin_ok and txt_ok,
        f"binary round-trip bit-exact: {bin_ok}; text round-trip value-exact "
        f"over 1e5 doubles: {txt_ok}",
    )
