"""The benchmark's workloads: seeded inputs, the jobs of one pass, and the
checks that decide whether each job's outputs are correct.

Inputs are written with the benchmark's own writers (the layouts documented
in ``logitlab.store``), so the program under test only ever sees files.
Checks read outputs with the benchmark's own readers and compare them with
expectations computed here from the generated inputs. Expectations are built
on first use (or by the ``prepare`` that :func:`build_ops` returns), so a
pass can run every job before the harness holds any of them.

Nothing in this module imports logitlab: the parent process generates
inputs without it, and the child passes the imported package to
:func:`build_ops`.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

WORKLOADS = ("logits", "models")

# logits: 20k x 100 model A, model B = A + noise, ~1/3 of rows misclassified.
LOGITS_ROWS, LOGITS_COLS = 20_000, 100
LABEL_MARGIN = 3.0        # a standard-normal row plus this at the label: ~32% wrong
B_NOISE = 0.5             # model B = A + B_NOISE * N(0, 1): AO@k well inside (0, 1)
FORGE_K = 5
N_COSINE_SEEDS, N_NEIGHBORS = 20, 10
DIVERGENCE_THRESHOLD = 0.1

# logits, text part: a third model as a 2.5k x 100 text matrix (~5 MB), read
# and written through store's text path; about a fifth of a pass. As a
# workload of its own its times spread past the bound from run to run.
TEXT_ROWS, TEXT_COLS = 2_500, 100

# models, capacity part: 12 ball manifolds in ambient dimension 40. Draw and
# dichotomy counts keep it near 3 s of a pass. As a workload of its own its
# run-to-run spread came near the bound; sharing runs with the models' jobs
# gives both longer runs within the time all runs may take.
N_MANIFOLDS, AMBIENT, INTRINSIC, N_POINTS, RADIUS = 12, 40, 4, 40, 0.4
MFTMA_DRAWS_K0, MFTMA_DICHOTOMIES, MFTMA_DRAWS_K3, KAPPA = 50, 10, 35, 0.3
# alpha_MFTMA of sampled balls must lie within this factor of alpha_ball(R_M, D_M).
BALL_FACTOR = 2.0

# models: both response shapes, the analytic grid, and its heatmaps.
RESPONSE_SHAPES = ((2000, 1000), (1000, 2000))
ANALYTIC_CLASSES, ANALYTIC_STEP = 40, 0.05

MAGIC = b"LGT1"


class CheckError(Exception):
    """A job's outputs failed the workload's check."""


class JobError(Exception):
    """A job exited with a non-zero code."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass(frozen=True)
class Op:
    """One operation of a pass: ``run(out)`` does the job, ``check(out, value)``
    verifies it and returns named values for the seed-0 reference."""

    name: str
    run: Callable[[Path], object]
    check: Callable[[Path, object], dict]


# ---------------------------------------------------------------- file formats

def write_binary(path: Path, a: np.ndarray) -> None:
    path.write_bytes(MAGIC + struct.pack("<II", *a.shape)
                     + np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_binary(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    check(raw[:4] == MAGIC, f"{path.name}: bad binary header")
    rows, cols = struct.unpack("<II", raw[4:12])
    return np.frombuffer(raw, dtype="<f8", offset=12).reshape(rows, cols)


def write_text_matrix(path: Path, a: np.ndarray) -> None:
    lines = [f"{a.shape[0]},{a.shape[1]}"]
    lines += [",".join(f"{v:.17g}" for v in row) for row in a]
    path.write_text("\n".join(lines) + "\n")


def read_text_matrix(path: Path) -> np.ndarray:
    head, body = path.read_text().split("\n", 1)
    rows, cols = (int(t) for t in head.split(","))
    vals = np.array(body.replace("\n", ",").split(",")[:-1], dtype=np.float64)
    return vals.reshape(rows, cols)


def write_ints(path: Path, v: np.ndarray) -> None:
    path.write_text("".join(f"{int(x)}\n" for x in v))


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    header, *rows = path.read_text().splitlines()
    data = np.array([[float(t) for t in r.split(",")] for r in rows if r])
    return header.split(","), data


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a, "<f8"), np.ascontiguousarray(b, "<f8")
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


# ------------------------------------------------------------------ generation

def generate(workload: str, seed: int, directory: Path) -> None:
    """Write the workload's inputs for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "logits":
        a, labels = _classifier_logits(rng, LOGITS_ROWS, LOGITS_COLS)
        b = a + B_NOISE * rng.standard_normal(a.shape)
        top2 = np.sort(a, axis=1)[:, -2:]
        p_robust = np.clip((top2[:, 1] - top2[:, 0]) / 2.0, 0.05, 0.95)
        write_binary(directory / "a.lgt", a)
        write_binary(directory / "b.lgt", b)
        write_ints(directory / "labels.txt", labels)
        write_ints(directory / "flags.txt", rng.random(a.shape[0]) < p_robust)
        t, t_labels = _classifier_logits(rng, TEXT_ROWS, TEXT_COLS)
        write_text_matrix(directory / "t.txt", t)
        write_binary(directory / "t.lgt", t)
        write_ints(directory / "t_labels.txt", t_labels)
    elif workload == "models":    # response draws its data from the seed itself
        names = []
        for i in range(N_MANIFOLDS):
            center = rng.standard_normal(AMBIENT)
            center /= np.linalg.norm(center)
            basis, _ = np.linalg.qr(rng.standard_normal((AMBIENT, INTRINSIC)))
            u = rng.standard_normal((N_POINTS, INTRINSIC))
            u *= RADIUS / np.linalg.norm(u, axis=1, keepdims=True)
            write_binary(directory / f"m{i:02d}.lgt", center + u @ basis.T)
            names.append(f"m{i:02d}.lgt")
        (directory / "manifolds.txt").write_text("\n".join(names) + "\n")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _classifier_logits(rng, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    labels = rng.integers(0, cols, rows)
    a = rng.standard_normal((rows, cols))
    a[np.arange(rows), labels] += LABEL_MARGIN
    return a, labels


# ------------------------------------------------------------------------ ops

def build_ops(workload: str, inputs: Path, seed: int, lib) -> tuple[list[Op], Callable]:
    """The operations of one pass, and ``prepare``, which builds the checks'
    expectations (they are built on first use otherwise). ``lib`` is the
    imported ``logitlab`` package with its submodules loaded."""
    return {
        "logits": _logits_ops,
        "models": _models_ops,
    }[workload](inputs, seed, lib)


def _cli_op(lib, name: str, argv: Callable[[Path], list[str]],
            check_fn: Callable[[Path], dict]) -> Op:
    def run(out: Path) -> int:
        code = lib.cli.main(argv(out))
        if code != 0:
            raise JobError(f"{name}: exit code {code}")
        return code
    return Op(name, run, lambda out, _value: check_fn(out))


def _descending(v: np.ndarray) -> np.ndarray:
    """Class order by descending value, ties by ascending index."""
    return np.argsort(-v, axis=-1, kind="stable")


def _hist_total(path: Path, column: int) -> int:
    _, data = read_csv(path)
    return int(data[:, column].sum())


def _read_labels(path: Path) -> np.ndarray:
    return np.array(path.read_text().split(), dtype=np.int64)


def _nothing_to_prepare() -> None:
    """``prepare`` of workloads whose checks need no expectations."""


def _logits_ops(inp: Path, seed: int, lib) -> tuple[list[Op], Callable]:
    n, c = LOGITS_ROWS, LOGITS_COLS
    cosine_rows = np.random.default_rng([seed, 99]).choice(n, N_COSINE_SEEDS, replace=False)
    A, B, L, F = (str(inp / f) for f in ("a.lgt", "b.lgt", "labels.txt", "flags.txt"))
    state: dict = {}
    text_ops, text_expected = _text_ops(inp, lib)

    @functools.cache
    def expected() -> SimpleNamespace:
        a = read_binary(inp / "a.lgt")
        top_mask = np.zeros(a.shape, dtype=bool)
        top_mask[np.arange(n)[:, None], _descending(a)[:, :FORGE_K]] = True
        sorted_a = np.sort(a, axis=1)
        return SimpleNamespace(a=a, labels=_read_labels(inp / "labels.txt"),
                               order_b=_descending(read_binary(inp / "b.lgt")),
                               top_mask=top_mask, sorted_a=sorted_a,
                               gaps=sorted_a[:, -1] - sorted_a[:, -2])

    def check_stats(out: Path) -> dict:
        e = expected()
        d = out / "stats"
        for name in ("max_logit.csv", "gap_hist.csv"):
            check(_hist_total(d / name, 2) == n, f"{name}: counts do not sum to {n}")
        _, acc = read_csv(d / "gap_accuracy.csv")
        check(int(acc[:, 2].sum()) == n, "gap_accuracy.csv: samples do not sum to rows")
        check(bool(((acc[:, 3] >= 0) & (acc[:, 3] <= 1)).all()), "accuracy outside [0, 1]")
        _, got = read_csv(d / "gaps.csv")
        check(bits_equal(got[:, 0], e.gaps), "gaps.csv differs from the top-two gaps")
        _, summary = read_csv(d / "max_logit_summary.csv")
        mean, std, skew = summary[0]
        check(math.isclose(mean, e.a.max(axis=1).mean(), rel_tol=1e-12), "max-logit mean")
        return {"stats.max_logit_mean": mean, "stats.max_logit_std": std,
                "stats.max_logit_skewness": skew, "stats.gap_accuracy_bins": len(acc)}

    def check_overlap(out: Path) -> dict:
        values = {}
        for name in ("overlap", "overlap_permuted"):
            _, curve = read_csv(out / "overlap" / f"{name}.csv")
            check(np.array_equal(curve[:, 0], np.arange(1, c + 1)), f"{name}: k column")
            ao = curve[:, 1]
            check(bool(((ao >= 0) & (ao <= 1)).all()), f"{name}: AO outside [0, 1]")
            values |= {f"{name}.ao_at_1": ao[0], f"{name}.ao_at_10": ao[9],
                       f"{name}.ao_at_{c}": ao[-1]}
        return values

    def manip_argv(kind: str, *extra: str) -> Callable[[Path], list[str]]:
        return lambda out: ["manipulate", "--logits", A, "--kind", kind, *extra,
                            "--out", str(out / kind)]

    def forged(out: Path, kind: str) -> np.ndarray:
        m = read_binary(out / kind / f"{kind}.lgt")
        check(m.shape == (n, c), f"{kind}: shape {m.shape}")
        return m

    def signature(m: np.ndarray) -> float:
        return float((m * np.arange(1, c + 1)).sum())

    def check_permute(out: Path) -> dict:
        e, m = expected(), forged(out, "fix_k_permute")
        check(bool((m[e.top_mask] == e.a[e.top_mask]).all()), "fix_k_permute moved a top-k value")
        check(bits_equal(np.sort(m, axis=1), e.sorted_a), "fix_k_permute changed a row multiset")
        return {"fix_k_permute.signature": signature(m)}

    def check_average(out: Path) -> dict:
        e, m = expected(), forged(out, "fix_k_average")
        check(bool((m[e.top_mask] == e.a[e.top_mask]).all()), "fix_k_average moved a top-k value")
        rest = m[~e.top_mask].reshape(n, c - FORGE_K)
        check(bool((rest == rest[:, :1]).all()), "fix_k_average: tail not constant")
        check(np.allclose(rest[:, 0], e.a[~e.top_mask].reshape(n, -1).mean(axis=1),
                          rtol=1e-12, atol=1e-12), "fix_k_average: tail mean not kept")
        return {"fix_k_average.signature": signature(m)}

    def check_correct(out: Path) -> dict:
        e, m = expected(), forged(out, "correct_fix_1")
        check(np.array_equal(np.argmax(m, axis=1), e.labels), "correct_fix_1: argmax != label")
        check(bits_equal(np.sort(m, axis=1), e.sorted_a), "correct_fix_1 changed a row multiset")
        return {"correct_fix_1.signature": signature(m)}

    def check_hybrid(out: Path) -> dict:
        e, m = expected(), forged(out, "hybrid")
        check(np.array_equal(_descending(m), e.order_b), "hybrid: rank order is not B's")
        check(bits_equal(np.sort(m, axis=1), e.sorted_a), "hybrid: values are not A's")
        return {"hybrid.signature": signature(m)}

    def check_report(out: Path) -> dict:
        svgs = sorted((out / "stats").glob("*.svg"))
        check(len(svgs) == 4, f"report wrote {len(svgs)} SVGs, expected 4")
        check(all(p.read_text().startswith("<svg") for p in svgs), "report: not an SVG")
        return {"report.svg_files": len(svgs)}

    def load_bundles(out: Path) -> None:
        store = lib.store
        lab = store.load_labels(L)
        state["a"] = store.validate_bundle(store.load_matrix(A), lab, store.load_flags(F))
        state["b"] = store.validate_bundle(store.load_matrix(B), lab)

    def check_bundles(out: Path, _value) -> dict:
        check(bits_equal(state["a"].logits.values, expected().a), "library load of A differs")
        return {}

    def error_profile(out: Path) -> np.ndarray:
        return lib.stats.error_prediction_profile(state["a"])

    def check_profile(out: Path, profile: np.ndarray) -> dict:
        check(profile.shape == (c,) and bool((profile >= 0).all()), "error profile shape/sign")
        check(profile[0] == 0 and math.isclose(profile.sum(), 1.0), "error profile mass")
        return {"error_profile.rank_1": profile[1], "error_profile.argmax": int(profile.argmax())}

    def divergences(out: Path) -> list:
        st = lib.stats
        return [st.rank_divergence(st.confidence_ranks(state["a"], k),
                                   st.confidence_ranks(state["b"], k), DIVERGENCE_THRESHOLD)
                for k in range(c)]

    def check_divergences(out: Path, div: list) -> dict:
        check(len(div) == c and all(0.0 <= v <= 1.0 for v in div), "rank divergence range")
        return {"rank_divergence.mean": float(np.mean(div))}

    def neighbors(out: Path) -> list:
        m = state["a"].logits
        return [lib.stats.cosine_neighbors(m, int(r), N_NEIGHBORS) for r in cosine_rows]

    def check_neighbors(out: Path, found: list) -> dict:
        for r, hits in zip(cosine_rows, found):
            ids = [i for i, _ in hits]
            sims = np.array([s for _, s in hits])
            check(len(hits) == N_NEIGHBORS and r not in ids, f"neighbors of row {r}")
            check(bool((np.diff(sims) <= 0).all() and (np.abs(sims) <= 1 + 1e-12).all()),
                  f"neighbor similarities of row {r}")
        return {"cosine.top_similarity_sum": float(sum(h[0][1] for h in found))}

    return [
        _cli_op(lib, "stats", lambda out: ["stats", "--logits", A, "--labels", L, "--flags", F,
                                           "--out", str(out / "stats")], check_stats),
        _cli_op(lib, "overlap", lambda out: ["overlap", "--logits", A, "--logits2", B,
                                             "--labels", L, "--seed", str(seed),
                                             "--out", str(out / "overlap")], check_overlap),
        _cli_op(lib, "fix_k_permute",
                manip_argv("fix_k_permute", "--k", str(FORGE_K), "--seed", str(seed)),
                check_permute),
        _cli_op(lib, "fix_k_average", manip_argv("fix_k_average", "--k", str(FORGE_K)),
                check_average),
        _cli_op(lib, "correct_fix_1", manip_argv("correct_fix_1", "--labels", L), check_correct),
        _cli_op(lib, "hybrid", manip_argv("hybrid", "--index-source", B), check_hybrid),
        _cli_op(lib, "report", lambda out: ["report", "--out", str(out / "stats")], check_report),
        Op("load_bundles", load_bundles, check_bundles),
        Op("error_prediction_profile", error_profile, check_profile),
        Op("rank_divergence", divergences, check_divergences),
        Op("cosine_neighbors", neighbors, check_neighbors),
        *text_ops,
    ], lambda: (expected(), text_expected())


def _text_ops(inp: Path, lib) -> tuple[list[Op], Callable]:
    """The text part of ``logits``: the third model read by ``stats`` and
    read and written by ``manipulate``, both with ``--format text``."""
    T, L = str(inp / "t.txt"), str(inp / "t_labels.txt")

    @functools.cache
    def expected() -> SimpleNamespace:
        a = read_binary(inp / "t.lgt")
        labels = _read_labels(inp / "t_labels.txt")
        sorted_a = np.sort(a, axis=1)
        fixed = a.copy()
        rows = np.flatnonzero(np.argmax(a, axis=1) != labels)
        preds = np.argmax(a, axis=1)[rows]
        fixed[rows, preds], fixed[rows, labels[rows]] = a[rows, labels[rows]], a[rows, preds]
        return SimpleNamespace(max_mean=a.max(axis=1).mean(), fixed=fixed,
                               gaps=sorted_a[:, -1] - sorted_a[:, -2])

    def check_stats(out: Path) -> dict:
        # Gaps are exact differences of loaded values: equal bits here mean the
        # text load reproduced the binary copy's top two values in every row.
        e = expected()
        _, got = read_csv(out / "text_stats" / "gaps.csv")
        check(bits_equal(got[:, 0], e.gaps), "text load: gaps differ from the binary copy")
        _, summary = read_csv(out / "text_stats" / "max_logit_summary.csv")
        check(math.isclose(summary[0, 0], e.max_mean, rel_tol=1e-12),
              "text load: max-logit mean differs from the binary copy")
        return {"text.stats.max_logit_mean": summary[0, 0],
                "text.stats.max_logit_std": summary[0, 1]}

    def check_fix(out: Path) -> dict:
        # correct_fix_1 only swaps values, so the reloaded output equals the
        # swapped binary copy bit for bit iff both text load and store are exact.
        m = read_text_matrix(out / "text_fix" / "correct_fix_1.lgt")
        check(bits_equal(m, expected().fixed),
              "text round trip: output differs from the binary copy")
        return {"text.correct_fix_1.signature":
                float((m * np.arange(1, TEXT_COLS + 1)).sum())}

    return [
        _cli_op(lib, "stats_text", lambda out: ["stats", "--logits", T, "--format", "text",
                                                "--out", str(out / "text_stats")], check_stats),
        _cli_op(lib, "correct_fix_1_text",
                lambda out: ["manipulate", "--logits", T, "--format", "text",
                             "--kind", "correct_fix_1", "--labels", L,
                             "--out", str(out / "text_fix")], check_fix),
    ], expected


def _capacity_ops(inp: Path, seed: int, lib) -> list[Op]:
    """The capacity part of ``models``: ``mftma`` on the ball manifolds."""
    M = str(inp / "manifolds.txt")

    def row(out: Path, name: str) -> dict:
        header, data = read_csv(out / name / "mftma.csv")
        values = dict(zip(header, data[0]))
        alpha = values["alpha_mftma"]
        check(math.isfinite(alpha) and alpha > 0, f"{name}: alpha_mftma = {alpha}")
        return values

    def check_k0(out: Path) -> dict:
        v = row(out, "k0")
        ball = lib.mftma.alpha_ball(v["radius"], v["dimension"])
        check(ball / BALL_FACTOR <= v["alpha_mftma"] <= ball * BALL_FACTOR,
              f"alpha_mftma {v['alpha_mftma']:.4g} not within x{BALL_FACTOR} of "
              f"alpha_ball {ball:.4g}")
        _, emp = read_csv(out / "k0" / "empirical_capacity.csv")
        check(0 < emp[0, 0] <= N_MANIFOLDS, f"empirical capacity {emp[0, 0]}")
        return {"k0.alpha_mftma": v["alpha_mftma"], "k0.radius": v["radius"],
                "k0.dimension": v["dimension"], "k0.center_correlation": v["center_correlation"],
                "k0.alpha_empirical": emp[0, 0]}

    def check_k3(out: Path) -> dict:
        v = row(out, "k3")
        return {"k3.alpha_mftma": v["alpha_mftma"], "k3.radius": v["radius"],
                "k3.dimension": v["dimension"]}

    return [
        _cli_op(lib, "mftma_empirical",
                lambda out: ["mftma", "--manifolds", M, "--empirical",
                             "--n-samples", str(MFTMA_DRAWS_K0),
                             "--n-dichotomies", str(MFTMA_DICHOTOMIES),
                             "--seed", str(seed), "--out", str(out / "k0")], check_k0),
        _cli_op(lib, "mftma_kappa_projected",
                lambda out: ["mftma", "--manifolds", M, "--kappa", str(KAPPA),
                             "--project-centers", "--n-samples", str(MFTMA_DRAWS_K3),
                             "--seed", str(seed), "--out", str(out / "k3")], check_k3),
    ]


def _models_ops(inp: Path, seed: int, lib) -> tuple[list[Op], Callable]:
    surrogate = lib.surrogate

    def admissible(beta: float, case: str) -> bool:
        try:
            return surrogate.admissible(
                surrogate.SurrogateSpec(ANALYTIC_CLASSES, beta, case, "plus"))
        except surrogate.DomainError:
            return False

    def response_op(n_data: int, n_feats: int) -> Op:
        name = f"response_{n_data}x{n_feats}"

        def check_shift(out: Path) -> dict:
            header, data = read_csv(out / name / "gap_shift.csv")
            check(data.shape == (1, 5) and bool(np.isfinite(data).all()),
                  f"{name}: gap_shift.csv not finite")
            return {f"{name}.{k}": v for k, v in zip(header[2:], data[0, 2:])}

        return _cli_op(lib, name, lambda out: [
            "response", "--n-data", str(n_data), "--n-feats", str(n_feats),
            "--seed", str(seed), "--out", str(out / name)], check_shift)

    def check_analytic(out: Path) -> dict:
        values = {}
        for name in ("loss_surface", "gap_shrinkage"):
            _, grid = read_csv(out / "analytic" / f"{name}.csv")
            ok_c = {bc: admissible(bc, "correct") for bc in np.unique(grid[:, 0])}
            ok_w = {bw: admissible(bw, "misclassified") for bw in np.unique(grid[:, 1])}
            expect = np.array([ok_c[bc] and ok_w[bw] for bc, bw in grid[:, :2]])
            finite = np.isfinite(grid[:, 2])
            check(bool((np.isnan(grid[~expect, 2])).all()), f"{name}: inadmissible cell not NaN")
            check(bool(finite[expect].all()), f"{name}: admissible cell not finite")
            values[f"{name}.finite_sum"] = float(grid[finite, 2].sum())
            values[f"{name}.finite_cells"] = int(finite.sum())
        _, th = read_csv(out / "analytic" / "threshold.csv")
        check(np.array_equal(th[:, 0], np.arange(4, ANALYTIC_CLASSES + 1)),
              "threshold.csv: class column")
        values["threshold.sum"] = float(np.nansum(th[:, 1]))
        return values

    def check_report(out: Path) -> dict:
        names = sorted(p.name for p in (out / "analytic").glob("*.svg"))
        check(names == ["gap_shrinkage.svg", "loss_surface.svg"], f"report wrote {names}")
        return {"report.svg_files": len(names)}

    return [
        *(response_op(nd, nf) for nd, nf in RESPONSE_SHAPES),
        _cli_op(lib, "analytic", lambda out: [
            "analytic", "--surface", "--shrinkage", "--threshold",
            "--n-classes", str(ANALYTIC_CLASSES), "--beta-step", str(ANALYTIC_STEP),
            "--out", str(out / "analytic")], check_analytic),
        _cli_op(lib, "report_heatmaps", lambda out: ["report", "--out", str(out / "analytic")],
                check_report),
        *_capacity_ops(inp, seed, lib),
    ], _nothing_to_prepare
