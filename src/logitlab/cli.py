"""Command-line entry point.

Every analysis is a subcommand. A run that succeeds writes its outputs to
--out plus a manifest recording the configuration, the seed, and SHA-256
hashes of every file it read and wrote; a run that fails leaves --out as it
found it. Exit codes: 0 success, 2 usage error, 3 input error (an --out that
cannot be written included), 4 numeric/domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import forge, mftma, report, response, stats, store, surrogate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4
MAX_BETAS = 1000  # per analytic grid axis; the surface CSVs hold MAX_BETAS**2 rows
MAX_CLASSES = 1000  # analytic's surfaces hold MAX_BETAS x MAX_CLASSES logits per case


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 2 with one-line message
        raise UsageError(message)


class UsageError(Exception):
    pass


def _number(kind: type):
    """The option type that reads kind as store.number does, so a spelling no
    file may hold ("1_0", "\u0663") is refused as "abc" is: exit 2, one line."""
    def parse(text: str):
        return store.number(kind, text)
    parse.__name__ = kind.__name__  # argparse's message: "invalid int value: '1_0'"
    return parse


_int, _float = _number(int), _number(float)


def _seed(text: str) -> int:
    """A --seed value: a nonnegative integer, as rng.substream requires of a seed."""
    try:
        seed = _int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class _Outputs:
    """The artifacts of one run, staged in a hidden directory inside --out. On
    success an earlier manifest.json is removed, each artifact moves into
    --out, then manifest.json, so a failed move leaves no manifest naming a
    replaced file; on failure the staging directory is deleted, and so is
    every directory the run made for --out.

    While the command runs, store.reads holds this run's dict, so the manifest
    lists the files the loaders read, hashed from the bytes they read; the
    outputs are hashed on commit from the staged files."""

    def __init__(self, args) -> None:
        self.args = args
        self.out = Path(args.out)
        self.names: list[str] = []
        self.made = [p for p in (self.out, *self.out.parents) if not p.exists()]
        self.stage = None
        self.reads: dict = {}

    def path(self, name: str) -> Path:
        self.names.append(name)
        return self.stage / name

    def csv(self, name: str, header: str, *columns) -> None:
        store.write_rows(self.path(name), header, columns)

    def _open(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=self.out))

    def _commit(self) -> None:
        # refuse before the first move, so a refused run leaves --out as found
        store.refuse_directories(self.out / n for n in self.names + ["manifest.json"])
        manifest = {
            "config": {k: v for k, v in vars(self.args).items() if k != "func"},
            "inputs": {p: digest.hexdigest() for p, digest in self.reads.items()},
            "outputs": {str(self.out / n): _sha256(self.stage / n) for n in self.names},
        }
        (self.stage / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        (self.out / "manifest.json").unlink(missing_ok=True)
        for name in self.names + ["manifest.json"]:
            os.replace(self.stage / name, self.out / name)
        self.stage.rmdir()

    def _discard(self) -> None:
        if self.stage is not None:
            shutil.rmtree(self.stage, ignore_errors=True)
        with contextlib.suppress(OSError):  # innermost first; stops at one not empty
            for made in self.made:
                made.rmdir()

    def _guard(self, step) -> None:
        try:
            step()
        except OSError as e:
            self._discard()
            raise store.StoreError(f"cannot write {self.out}: {e}") from e

    def __enter__(self) -> _Outputs:
        self._guard(self._open)
        self.token = store.reads.set(self.reads)
        return self

    def __exit__(self, kind, *_) -> None:
        store.reads.reset(self.token)
        if kind is None:
            self._guard(self._commit)
        else:
            self._discard()


def _load_bundle(args) -> store.DatasetBundle:
    logits = store.load_matrix(args.logits, args.format)
    if getattr(args, "labels", None):
        labels = store.load_labels(args.labels)
    else:
        labels = store.LabelVector(np.argmax(logits.values, axis=1))
    flags = store.load_flags(args.flags) if getattr(args, "flags", None) else None
    return store.validate_bundle(logits, labels, flags)


def _cmd_stats(args, outputs: _Outputs) -> None:
    bundle = _load_bundle(args)
    ml = stats.max_logit_distribution(bundle.logits, args.bin_width)
    outputs.csv("max_logit.csv", "bin_left,bin_right,count", *ml.histogram)
    outputs.csv("max_logit_summary.csv", "mean,std,skewness", [ml.mean], [ml.std], [ml.skewness])
    outputs.csv("gaps.csv", "gap", stats.logit_gaps(bundle.logits))
    gd = stats.gap_distribution(bundle.logits, args.bin_width)
    outputs.csv("gap_hist.csv", "bin_left,bin_right,count", *gd.histogram)
    if bundle.flags is not None:
        outputs.csv("gap_accuracy.csv", "gap_low,gap_high,n_samples,adversarial_accuracy",
                    *stats.gap_accuracy_curve(bundle, args.bin_width, args.min_count))


def _cmd_overlap(args, outputs: _Outputs) -> None:
    m1 = store.load_matrix(args.logits, args.format)
    m2 = store.load_matrix(args.logits2, args.format)
    k_max = args.k if args.k else m1.cols
    curve = stats.average_overlap(m1, m2, k_max)
    outputs.csv("overlap.csv", "k,ao_at_k", curve.k_values, curve.ao_at_k)
    if args.labels:
        labels = store.load_labels(args.labels)
        b1 = store.validate_bundle(m1, labels)
        b2 = store.validate_bundle(m2, labels)
        perm = stats.within_class_permuted_overlap(b1, b2, k_max, args.seed)
        outputs.csv("overlap_permuted.csv", "k,ao_at_k", perm.k_values, perm.ao_at_k)


def _cmd_manipulate(args, outputs: _Outputs) -> None:
    m = store.load_matrix(args.logits, args.format)
    spec = forge.ManipulationSpec(kind=args.kind, k=args.k, seed=args.seed)
    labels = store.load_labels(args.labels) if args.labels else None
    index_source = (
        store.load_matrix(args.index_source, args.format) if args.index_source else None
    )
    result = forge.apply_manipulation(spec, m, labels=labels, index_source=index_source)
    store.store_matrix(result, outputs.path(f"{args.kind}.lgt"), args.format)


def _cmd_analytic(args, outputs: _Outputs) -> None:
    if not args.beta_step > 0:
        raise UsageError(f"--beta-step must be > 0, got {args.beta_step}")
    if not 0 < (args.beta_max + 1e-12 - args.beta_min) / args.beta_step <= MAX_BETAS:
        raise UsageError(f"--beta-min/--beta-max/--beta-step must give 1 to {MAX_BETAS} betas")
    if args.n_classes > MAX_CLASSES:
        raise UsageError(f"--n-classes must be at most {MAX_CLASSES}, got {args.n_classes}")
    surrogate.check_error_rate(args.error_rate)
    surrogate.SurrogateSpec(args.n_classes, 0.0, "misclassified")  # every output reads that case
    if not (args.surface or args.shrinkage or args.threshold):
        raise UsageError("analytic requires at least one of --surface/--shrinkage/--threshold")
    grid = np.arange(args.beta_min, args.beta_max + 1e-12, args.beta_step)
    pairs = [np.repeat(grid, grid.size), np.tile(grid, grid.size)]
    for wanted, surface, name, column in (
        (args.surface, surrogate.mean_field_loss_surface, "loss_surface", "loss"),
        (args.shrinkage, surrogate.gap_shrinkage_surface, "gap_shrinkage", "shrinkage"),
    ):
        if wanted:
            values = surface(grid, grid, args.n_classes, args.error_rate, args.branch).ravel()
            outputs.csv(f"{name}.csv", f"beta_correct,beta_wrong,{column}", *pairs, values)
    if args.threshold:
        ns = range(4, args.n_classes + 1)
        ths = [surrogate.admissibility_threshold(nn, "misclassified", args.branch) for nn in ns]
        outputs.csv("threshold.csv", "n_classes,threshold", ns, ths)


def _cmd_response(args, outputs: _Outputs) -> None:
    params = surrogate.MeanFieldParams(
        args.beta_correct, args.beta_wrong, args.n_classes, args.error_rate
    )
    predicted, mean, std = response.gap_shift_experiment(
        params, args.n_data, args.n_feats, args.epsilon,
        sigma0=args.sigma0, c=args.c, seed=args.seed,
    )
    outputs.csv("gap_shift.csv", "beta_correct,beta_wrong,predicted,measured_mean,measured_std",
                [args.beta_correct], [args.beta_wrong], [predicted], [mean], [std])


def _cmd_mftma(args, outputs: _Outputs) -> None:
    files = [ln.strip(" \t") for _, ln in store.read_lines(Path(args.manifolds))]
    if not files:
        raise store.ParseError(f"{args.manifolds}: empty manifold manifest")
    clouds = []
    for name in files:
        p = Path(args.manifolds).parent / name  # an absolute name stays as it is
        clouds.append(store.load_matrix(p, args.format).values)
    mset = mftma.ManifoldSet(tuple(clouds))
    if args.project_centers:
        mset = mftma.project_null_centers(mset)
    result = mftma.mftma_capacity(mset, args.n_samples, args.kappa, args.seed)
    outputs.csv("mftma.csv", "alpha_mftma,radius,dimension,center_correlation,n_samples,seed",
                [result.alpha_mftma], [result.radius], [result.dimension],
                [result.center_correlation], [args.n_samples], [args.seed])
    if args.empirical:
        cap = mftma.empirical_capacity(mset, args.n_dichotomies, args.seed)
        outputs.csv("empirical_capacity.csv", "alpha_empirical", [cap])


def build_parser() -> _Parser:
    parser = _Parser(prog="logitlab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, logits=True):
        if logits:
            p.add_argument("--logits", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=("text", "binary"), default="binary")

    p = sub.add_parser("stats", help="distributional statistics")
    common(p)
    p.add_argument("--labels")
    p.add_argument("--flags")
    p.add_argument("--bin-width", type=_float, default=0.25, dest="bin_width")
    p.add_argument("--min-count", type=_int, default=50, dest="min_count")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("overlap", help="average overlap of two logit matrices")
    common(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--logits2", required=True)
    p.add_argument("--labels")
    p.add_argument("--k", type=_int, default=0)
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("manipulate", help="distillation-target manipulations")
    common(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--kind", required=True, choices=forge.KINDS)
    p.add_argument("--k", type=_int)
    p.add_argument("--labels")
    p.add_argument("--index-source", dest="index_source")
    p.set_defaults(func=_cmd_manipulate)

    p = sub.add_parser("analytic", help="surrogate-model surfaces and thresholds")
    p.add_argument("--out", required=True)
    p.add_argument("--surface", action="store_true")
    p.add_argument("--shrinkage", action="store_true")
    p.add_argument("--threshold", action="store_true")
    p.add_argument("--n-classes", type=_int, default=10, dest="n_classes")
    p.add_argument("--error-rate", type=_float, default=0.2, dest="error_rate")
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")
    p.add_argument("--beta-min", type=_float, default=3.0, dest="beta_min")
    p.add_argument("--beta-max", type=_float, default=10.0, dest="beta_max")
    p.add_argument("--beta-step", type=_float, default=0.25, dest="beta_step")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("response", help="linear-response gap-shift experiment")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--n-data", type=_int, default=200, dest="n_data")
    p.add_argument("--n-feats", type=_int, default=100, dest="n_feats")
    p.add_argument("--n-classes", type=_int, default=10, dest="n_classes")
    p.add_argument("--beta-correct", type=_float, default=5.0, dest="beta_correct")
    p.add_argument("--beta-wrong", type=_float, default=5.0, dest="beta_wrong")
    p.add_argument("--error-rate", type=_float, default=0.2, dest="error_rate")
    p.add_argument("--epsilon", type=_float, default=0.1)
    p.add_argument("--sigma0", type=_float, default=1e-3)
    p.add_argument("--c", type=_float, default=1.0)
    p.set_defaults(func=_cmd_response)

    p = sub.add_parser("mftma", help="manifold capacity analysis")
    common(p, logits=False)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--manifolds", required=True,
                   help="text file listing one matrix file per manifold")
    p.add_argument("--n-samples", type=_int, default=200, dest="n_samples")
    p.add_argument("--kappa", type=_float, default=0.0)
    p.add_argument("--project-centers", action="store_true", dest="project_centers")
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--n-dichotomies", type=_int, default=50, dest="n_dichotomies")
    p.set_defaults(func=_cmd_mftma)

    p = sub.add_parser("report", help="render SVGs from emitted CSV")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand == "report":
            for p in report.emit_report(args.out):
                print(p)
        else:
            with _Outputs(args) as outputs:
                args.func(args, outputs)
        return EXIT_OK
    except UsageError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, store.StoreError, report.ReportError) as e:
        print(f"error: input: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (
        surrogate.SurrogateError,
        response.ResponseError,
        mftma.MftmaError,
        stats.StatsError,
        np.linalg.LinAlgError,
    ) as e:
        print(f"error: numeric: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
