import errno
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import logitlab
from logitlab import cli, stats
from logitlab.store import (
    LabelVector,
    LogitMatrix,
    RobustFlags,
    load_matrix,
    store_flags,
    store_labels,
    store_matrix,
)


HIST, HEAT = "bin_left,bin_right,count\n", "beta_correct,beta_wrong,loss\n"
# report directories: a CSV that can be drawn, a.csv, beside one that cannot, b.csv
REPORT_CSVS = {
    "csv_short_row": HIST + "0,1,3\n1,2\n",
    "csv_long_row": HIST + "0,1,3\n1,2,5,7\n",
    "csv_inf_count": HIST + "0,1,3\n1,2,inf\n",
    "csv_inf_value": HEAT + "0,0,1\n0,1,-inf\n",
    "csv_nan_coordinate": HEAT + "0,0,1\nnan,1,2\n",
    "csv_huge_values": HEAT + "0,0,1e308\n0,1,-1e308\n",
    "csv_huge_edges": HIST + "-1e308,0,1\n0,1e308,1\n",
    "csv_empty": "",
    "csv_all_nan": HEAT + "0,0,nan\n0,1,nan\n",
    # cells float() reads but logitlab never writes
    "csv_form_feed": HIST + "0,1,3\n1,2,5\x0c\n",
    "csv_digit_separator": HIST + "0,1,3\n1,2,1_0\n",
    "csv_non_ascii_digit": HIST + "0,1,3\n1,2,\u0665\n",
}


@pytest.fixture()
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((120, 6)) * 2
    labels = rng.integers(0, 6, size=120)
    flags = rng.random(120) > 0.4
    store_matrix(LogitMatrix(vals), tmp_path / "m.lgt", "binary")
    store_labels(LabelVector(labels), tmp_path / "y.txt")
    store_labels(LabelVector(labels[:40]), tmp_path / "y40.txt")
    (tmp_path / "y_huge.txt").write_text("0\n99999999999999999999999\n")
    (tmp_path / "y_neg.txt").write_text("0\n\n-1\n2\n")  # -1 on line 3
    (tmp_path / "blank.txt").write_text("\n \n\n")
    (tmp_path / "wide.txt").write_text("1,3000000000\n1,2\n")
    (tmp_path / "huge.txt").write_text("1,99999999999999999999\n1,2\n")
    # max logits all 1e17 + 2, where the float spacing is 16
    store_matrix(LogitMatrix(np.full((4, 3), 1e17 + 2)), tmp_path / "big.lgt", "binary")
    store_flags(RobustFlags(flags), tmp_path / "f.txt")
    for i in range(2):
        store_matrix(LogitMatrix(rng.standard_normal((4, 6)) + 3 * i), tmp_path / f"c{i}.lgt",
                     "binary")
    (tmp_path / "manifolds.txt").write_text("c0.lgt\nc1.lgt\n")
    (tmp_path / "manifolds_ff.txt").write_text("c0.lgt\x0c\nc1.lgt\n")  # no such file
    # an --out with a directory where overlap's second artifact would go
    (tmp_path / "taken" / "overlap_permuted.csv").mkdir(parents=True)
    for name, text in REPORT_CSVS.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "a.csv").write_text(HIST + "0,1,3\n1,2,5\n")
        (tmp_path / name / "b.csv").write_text(text)
    return tmp_path, vals, labels, flags


def _run(*argv):
    return cli.main(list(argv))


def _tree(d):
    """Every path under d: a file's bytes, False for a directory."""
    return {p: p.is_file() and p.read_bytes() for p in d.rglob("*")}


def test_stats_outputs(dataset):
    d, vals, _, _ = dataset
    out = d / "stats_out"
    code = _run("stats", "--logits", str(d / "m.lgt"), "--labels", str(d / "y.txt"),
                "--flags", str(d / "f.txt"), "--out", str(out))
    assert code == 0
    for name in ("max_logit.csv", "gaps.csv", "gap_hist.csv", "gap_accuracy.csv",
                 "manifest.json"):
        assert (out / name).exists()
    gaps = [float(x) for x in (out / "gaps.csv").read_text().splitlines()[1:]]
    assert np.allclose(gaps, stats.logit_gaps(LogitMatrix(vals)))
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"config", "inputs", "outputs"}
    assert manifest["config"]["subcommand"] == "stats"
    assert len(manifest["outputs"]) == 5


def test_manipulate_deterministic(dataset):
    d, vals, _, _ = dataset
    outs = []
    for sub in ("a", "b"):
        out = d / sub
        code = _run("manipulate", "--logits", str(d / "m.lgt"), "--kind",
                    "fix_k_permute", "--k", "3", "--seed", "7", "--out", str(out))
        assert code == 0
        outs.append((out / "fix_k_permute.lgt").read_bytes())
    assert outs[0] == outs[1]
    m = load_matrix(d / "a" / "fix_k_permute.lgt", "binary")
    for r in range(m.rows):
        assert sorted(m.values[r]) == pytest.approx(sorted(vals[r]))


def test_overlap_subcommand(dataset):
    d, vals, _, _ = dataset
    store_matrix(LogitMatrix(vals + 0.01), d / "m2.lgt", "binary")
    out = d / "ov"
    code = _run("overlap", "--logits", str(d / "m.lgt"), "--logits2",
                str(d / "m2.lgt"), "--labels", str(d / "y.txt"),
                "--out", str(out), "--seed", "1")
    assert code == 0
    lines = (out / "overlap.csv").read_text().splitlines()
    assert lines[0] == "k,ao_at_k"
    assert len(lines) == 7
    assert (out / "overlap_permuted.csv").exists()


def test_analytic_matches_module(tmp_path):
    from logitlab import surrogate as sg

    out = tmp_path / "an"
    code = _run("analytic", "--surface", "--n-classes", "10", "--error-rate", "0.2",
                "--beta-min", "4", "--beta-max", "6", "--beta-step", "0.5",
                "--out", str(out))
    assert code == 0
    rows = (out / "loss_surface.csv").read_text().splitlines()[1:]
    grid = np.arange(4.0, 6.0 + 1e-12, 0.5)
    surf = sg.mean_field_loss_surface(grid, grid, 10, 0.2)
    for line in rows:
        bc, bw, v = (float(t) for t in line.split(","))
        i = int(round((bc - 4.0) / 0.5))
        j = int(round((bw - 4.0) / 0.5))
        if np.isnan(surf[i, j]):
            assert np.isnan(v)
        else:
            assert v == surf[i, j]


@pytest.mark.filterwarnings("error")
def test_analytic_far_below_the_poles_is_nan_without_warnings(tmp_path, capsys):
    # exp(-beta) overflows at beta = -800; those cells are NaN, and nothing reaches stderr
    out = tmp_path / "an"
    assert _run("analytic", "--surface", "--shrinkage", "--beta-min", "-800",
                "--beta-max", "-790", "--beta-step", "5", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    for name in ("loss_surface.csv", "gap_shrinkage.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        assert len(rows) == 9 and all(r.endswith(",nan") for r in rows)


def test_response_subcommand(tmp_path):
    out = tmp_path / "resp"
    code = _run("response", "--n-data", "60", "--n-feats", "30", "--epsilon", "0.1",
                "--seed", "3", "--out", str(out))
    assert code == 0
    line = (out / "gap_shift.csv").read_text().splitlines()[1]
    _, _, pred, mean, _ = (float(t) for t in line.split(","))
    assert pred < 0
    assert mean < 0


@pytest.mark.parametrize("sigma0", ["1e60", "1e100", "1e150", "1e152"])
@pytest.mark.filterwarnings("error")  # a warning would be a stray stderr line
def test_response_solves_lambda_star_at_huge_sigma0(tmp_path, capsys, sigma0):
    # the bracket's lower end keeps the trace below the target after rounding,
    # and a trace that overflows near the upper end lies above it
    out = tmp_path / "resp"
    assert _run("response", "--sigma0", sigma0, "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    line = (out / "gap_shift.csv").read_text().splitlines()[1]
    assert np.isfinite([float(t) for t in line.split(",")]).all()


def test_mftma_subcommand(tmp_path):
    rng = np.random.default_rng(1)
    names = []
    for i in range(5):
        name = f"cloud{i}.lgt"
        store_matrix(LogitMatrix(rng.standard_normal((8, 20))), tmp_path / name, "binary")
        names.append(name)
    (tmp_path / "manifolds.txt").write_text("\n".join(names) + "\n")
    out = tmp_path / "mf"
    code = _run("mftma", "--manifolds", str(tmp_path / "manifolds.txt"),
                "--n-samples", "40", "--seed", "2", "--out", str(out))
    assert code == 0
    line = (out / "mftma.csv").read_text().splitlines()[1]
    alpha = float(line.split(",")[0])
    assert alpha > 0


def test_report_renders_and_is_deterministic(dataset):
    d, _, _, _ = dataset
    out = d / "rep"
    assert _run("stats", "--logits", str(d / "m.lgt"), "--out", str(out)) == 0
    assert _run("report", "--out", str(out)) == 0
    svg1 = (out / "max_logit.svg").read_bytes()
    assert _run("report", "--out", str(out)) == 0
    assert (out / "max_logit.svg").read_bytes() == svg1
    # bar count equals populated histogram rows
    n_bars = svg1.decode().count("<rect") - 1  # minus background rect
    n_rows = len((out / "max_logit.csv").read_text().splitlines()) - 1
    assert n_bars == n_rows


def test_report_heights_match_counts(dataset):
    d, _, _, _ = dataset
    out = d / "rep2"
    assert _run("stats", "--logits", str(d / "m.lgt"), "--out", str(out)) == 0
    assert _run("report", "--out", str(out)) == 0
    svg = (out / "max_logit.svg").read_text()
    titles = [float(t.split("</title>")[0]) for t in svg.split("<title>")[1:]]
    counts = [float(ln.split(",")[2]) for ln in
              (out / "max_logit.csv").read_text().splitlines()[1:]]
    assert titles == counts


def test_report_writes_no_svg_when_a_csv_cannot_be_drawn(tmp_path, capsys):
    (tmp_path / "a.csv").write_text("bin_left,bin_right,count\n0,1,3\n1,2,5\n")
    (tmp_path / "b.csv").write_text("bin_left,bin_right,count\n0,1,x\n")
    assert _run("report", "--out", str(tmp_path)) == 3
    assert "b.csv: non-numeric CSV cell at line 2" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]


def test_report_refuses_a_directory_at_an_svg_name(tmp_path, capsys):
    for name in ("a", "b"):
        (tmp_path / f"{name}.csv").write_text("bin_left,bin_right,count\n0,1,3\n1,2,5\n")
    (tmp_path / "b.svg").mkdir()
    before = _tree(tmp_path)
    assert _run("report", "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err == f"error: input: cannot write {tmp_path}/b.svg: Is a directory\n"
    assert _tree(tmp_path) == before  # a.svg is not written either


@pytest.mark.parametrize("argv", [
    ["stats", "--logits", "{d}/m.lgt", "--labels", "{d}/y.txt", "--flags", "{d}/f.txt",
     "--min-count", "5"],
    ["overlap", "--logits", "{d}/m.lgt", "--logits2", "{d}/m.lgt", "--labels", "{d}/y.txt"],
    ["manipulate", "--logits", "{d}/m.lgt", "--kind", "fix_k_permute", "--k", "2"],
    ["analytic", "--surface", "--threshold", "--n-classes", "5", "--beta-max", "4"],
    ["response", "--n-data", "20", "--n-feats", "10"],
    ["mftma", "--manifolds", "{d}/manifolds.txt", "--n-samples", "5"],
], ids=["stats", "overlap", "manipulate", "analytic", "response", "mftma"])
def test_manifest_hashes_the_final_files(dataset, argv):
    d = dataset[0]
    out = d / "out"
    assert _run(*[a.format(d=d) for a in argv], "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    sha = {p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
           for p in (*manifest["inputs"], *manifest["outputs"])}
    assert {**manifest["inputs"], **manifest["outputs"]} == sha
    # the outputs and the manifest are all that is left in --out: no staging directory
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [Path(p).name for p in manifest["outputs"]] + ["manifest.json"])
    if argv[0] == "mftma":  # the listing and each cloud file it names
        assert sorted(manifest["inputs"]) == [f"{d}/c0.lgt", f"{d}/c1.lgt", f"{d}/manifolds.txt"]


@pytest.mark.parametrize("fail_at", range(4))
def test_a_failed_rerun_leaves_no_stale_manifest(tmp_path, monkeypatch, capsys, fail_at):
    # a re-run into a full --out whose move number fail_at fails, as on a full
    # disk: any manifest left in --out matches every file it names
    out = tmp_path / "out"
    argv = ["analytic", "--surface", "--shrinkage", "--threshold", "--beta-max", "4",
            "--out", str(out)]
    assert _run(*argv, "--n-classes", "10") == 0
    assert len(list(out.iterdir())) == 4  # three artifacts and the manifest
    moves, replace = [], os.replace

    def failing(src, dst):
        moves.append(dst)
        if len(moves) > fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    assert _run(*argv, "--n-classes", "12") == 3
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
    assert len(moves) == fail_at + 1
    if (out / "manifest.json").exists():
        manifest = json.loads((out / "manifest.json").read_text())
        for p, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
            assert hashlib.sha256(Path(p).read_bytes()).hexdigest() == digest


def test_exit_codes(tmp_path, dataset):
    d, _, _, _ = dataset
    # usage: unknown flag
    assert _run("stats", "--nonsense") == 2
    # input: missing file
    assert _run("stats", "--logits", str(tmp_path / "nope.lgt"),
                "--out", str(tmp_path / "o")) == 3
    # input: report on empty dir
    empty = tmp_path / "empty"
    empty.mkdir()
    assert _run("report", "--out", str(empty)) == 3
    # numeric: inadmissible analytic request hits a numeric failure path
    assert _run("response", "--beta-wrong", "1.0", "--n-data", "20",
                "--n-feats", "10", "--out", str(tmp_path / "o2")) == 4


def test_cli_reproducible_responses(tmp_path):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert _run("response", "--n-data", "40", "--n-feats", "20",
                    "--seed", "11", "--out", str(out)) == 0
        outs.append((out / "gap_shift.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv,code,message", [
    (["response", "--n-data", "0"], 4, "n_data and n_feats must be >= 1"),
    (["response", "--n-feats", "0"], 4, "n_data and n_feats must be >= 1"),
    (["analytic", "--surface", "--beta-step", "0"], 2, "--beta-step must be > 0"),
    (["manipulate", "--logits", "{d}/m.lgt", "--kind", "hybrid", "--labels", "{d}/y.txt"],
     3, "hybrid requires an index-source matrix"),
    (["stats", "--logits", "{d}/m.lgt", "--labels", "{d}"], 3, "cannot read"),
    (["stats", "--logits", "{d}/m.lgt", "--flags", "{d}"], 3, "cannot read"),
    (["mftma", "--manifolds", "{d}"], 3, "cannot read"),
    (["stats", "--logits", "{d}/m.lgt", "--bin-width", "1e-13"], 4, "histogram bins"),
    (["stats", "--logits", "{d}/m.lgt", "--bin-width", "1e-310"], 4, "histogram bins"),
    (["analytic", "--surface", "--error-rate", "5"], 4, "error_rate must be in [0, 1]"),
    (["analytic", "--threshold", "--error-rate", "-1"], 4, "error_rate must be in [0, 1]"),
    (["analytic", "--surface", "--beta-min", "5", "--beta-max", "4"], 2, "1 to 1000 betas"),
    (["analytic", "--shrinkage", "--beta-step", "1e-4"], 2, "1 to 1000 betas"),
    (["analytic", "--surface", "--epsilon", "0.1"], 2, "unrecognized arguments"),
    (["analytic", "--surface", "--seed", "1"], 2, "unrecognized arguments"),
    (["analytic", "--surface", "--format", "text"], 2, "unrecognized arguments"),
    (["response", "--format", "text"], 2, "unrecognized arguments"),
    (["response", "--beta-wrong", "1.0", "--n-data", "20", "--n-feats", "10"], 4,
     "beta=1.0 is inadmissible for case=misclassified, branch=plus, N=10"),
    (["response", "--beta-correct", "-0.5", "--n-data", "20", "--n-feats", "10"], 4,
     "beta=-0.5 is inadmissible for case=correct, branch=plus, N=10"),
    (["response", "--beta-correct", "2.1972245773362196", "--n-data", "20", "--n-feats", "10"],
     4, "beta at pole ln(N-1) = ln(9)"),
    (["response", "--error-rate", "0", "--beta-wrong", "1.0", "--n-data", "20",
      "--n-feats", "10"], 4, "beta=1.0 is inadmissible for case=misclassified, branch=plus, N=10"),
    (["response", "--error-rate", "1", "--beta-correct", "-0.5", "--n-data", "20",
      "--n-feats", "10"], 4, "beta=-0.5 is inadmissible for case=correct, branch=plus, N=10"),
    (["response", "--epsilon", "nan", "--n-data", "20", "--n-feats", "10"], 4,
     "finite epsilon >= 0 required, got nan"),
    (["response", "--c", "inf", "--n-data", "20", "--n-feats", "10"], 4,
     "finite sigma0 >= 0, c > 0 required"),
    (["mftma", "--manifolds", "{d}/manifolds.txt", "--n-samples", "5", "--empirical",
      "--n-dichotomies", "0"], 4, "n_dichotomies must be >= 1"),
    (["manipulate", "--logits", "{d}/m.lgt", "--kind", "fix_k_permute", "--k", "2",
      "--seed", "-1"], 2, "argument --seed: must be >= 0, got -1"),
    (["stats", "--logits", "{d}/m.lgt", "--format", "text"], 3, "m.lgt: not text"),
    (["stats", "--logits", "{d}/m.lgt", "--bin-width", "inf"], 4, "beyond float range"),
    (["stats", "--logits", "{d}/m.lgt", "--flags", "{d}/f.txt", "--bin-width", "0.01",
      "--min-count", "0"], 4, "min_count must be >= 1, got 0"),
    (["overlap", "--logits", "{d}/m.lgt", "--logits2", "{d}/m.lgt", "--labels", "{d}"], 3,
     "cannot read"),
    (["overlap", "--logits", "{d}/m.lgt", "--logits2", "{d}/m.lgt", "--labels", "{d}/y40.txt"],
     3, "labels length mismatch: 40 labels for 120 rows"),
    (["stats", "--logits", "{d}/m.lgt", "--out", "{d}/m.lgt"], 3,
     "error: input: cannot write {d}/m.lgt: "),
    (["response", "--n-data", "20", "--n-feats", "10", "--out", "{d}/m.lgt/sub"], 3,
     "error: input: cannot write {d}/m.lgt/sub: "),
    (["stats", "--logits", "{d}/big.lgt", "--bin-width", "1"], 4,
     "bin_width 1 is below the float spacing of values near 1e+17"),
    (["response", "--n-data", "0", "--out", "{d}/new/out"], 4,
     "n_data and n_feats must be >= 1"),
    (["overlap", "--logits", "{d}/m.lgt", "--logits2", "{d}/m.lgt", "--labels", "{d}/y.txt",
      "--out", "{d}/taken"], 3,
     "error: input: cannot write {d}/taken: [Errno 21] Is a directory: "
     "'{d}/taken/overlap_permuted.csv'"),
    (["stats", "--logits", "{d}/m.lgt", "--labels", "{d}/y_huge.txt"], 3,
     "y_huge.txt: label at line 2 does not fit in int64"),
    (["overlap", "--logits", "{d}/m.lgt", "--logits2", "{d}/m.lgt", "--labels",
      "{d}/y_huge.txt"], 3, "y_huge.txt: label at line 2 does not fit in int64"),
    (["manipulate", "--logits", "{d}/m.lgt", "--kind", "correct_fix_1", "--labels",
      "{d}/y_huge.txt"], 3, "y_huge.txt: label at line 2 does not fit in int64"),
    (["stats", "--logits", "{d}/wide.txt", "--format", "text"], 3,
     "wide.txt: header '1,3000000000' is too large for a file of 17 bytes"),
    (["stats", "--logits", "{d}/huge.txt", "--format", "text"], 3,
     "huge.txt: header '1,99999999999999999999' is too large for a file of 27 bytes"),
    (["analytic", "--surface", "--n-classes", "1000000000"], 2,
     "--n-classes must be at most 1000, got 1000000000"),
    (["analytic", "--threshold", "--n-classes", "1000000000"], 2,
     "--n-classes must be at most 1000, got 1000000000"),
    (["response", "--n-data", "100000000", "--n-feats", "100000000"], 4,
     "n_data x (n_feats + n_classes) exceeds 67108864 values"),
    (["response", "--n-classes", "1000000000", "--beta-correct", "40", "--beta-wrong", "40"],
     4, "n_data x (n_feats + n_classes) exceeds 67108864 values"),
    (["response", "--n-data", "50", "--n-feats", "40", "--c", "1e-200"], 4,
     "cannot bracket lambda* for c = 1e-200: trace target 0.000e+00"),
    (["response", "--n-data", "50", "--n-feats", "40", "--c", "1e-160"], 4,
     "cannot bracket lambda* for c = 1e-160: trace target 4.000e-318"),
    (["response", "--n-data", "50", "--n-feats", "40", "--c", "1e200"], 4,
     "cannot bracket lambda* for c = 1e+200: trace target inf"),
    (["response", "--sigma0", "1e160"], 4,
     "sigma0 = 1e+160 puts the noise trace beyond float range"),
    (["response", "--sigma0", "1e154"], 4,
     "sigma0 = 1e+154 puts the noise trace beyond float range"),
    (["response", "--epsilon", "1e200"], 4,
     "epsilon = 1e+200 puts the measured gap change beyond float range"),
    (["response", "--epsilon", "1e308"], 4,
     "epsilon = 1e+308 puts the attacked logits beyond float range"),
    (["response", "--beta-correct", "-800"], 4,
     "beta=-800.0 is inadmissible for case=correct, branch=plus, N=10"),
    (["mftma", "--manifolds", "{d}/manifolds.txt", "--n-samples", "5", "--kappa", "1e155"], 4,
     "kappa = 1e+155 puts the capacity sum beyond float range"),
    (["stats", "--logits", "{d}/m.lgt", "--seed", "1"], 2, "unrecognized arguments"),
    (["report", "--out", "{d}/csv_short_row"], 3, "b.csv: line 3 has 2 cells, the header has 3"),
    (["report", "--out", "{d}/csv_long_row"], 3, "b.csv: line 3 has 4 cells, the header has 3"),
    (["report", "--out", "{d}/csv_inf_count"], 3,
     "b.csv: non-finite bin edge or count at line 3"),
    (["report", "--out", "{d}/csv_inf_value"], 3, "b.csv: infinite value at line 3"),
    (["report", "--out", "{d}/csv_nan_coordinate"], 3, "b.csv: non-finite coordinate at line 3"),
    (["report", "--out", "{d}/csv_huge_values"], 3,
     "b.csv: value range -1e+308..1e+308 is beyond float range"),
    (["report", "--out", "{d}/csv_huge_edges"], 3,
     "b.csv: value range -1e+308..1e+308 is beyond float range"),
    (["stats", "--logits", "{d}/m.lgt", "--labels", "{d}/y_neg.txt"], 3,
     "y_neg.txt: negative label at line 3"),
    (["overlap", "--logits", "{d}/m.lgt", "--logits2", "{d}/m.lgt", "--labels",
      "{d}/y_neg.txt"], 3, "y_neg.txt: negative label at line 3"),
    (["manipulate", "--logits", "{d}/m.lgt", "--kind", "correct_fix_1", "--labels",
      "{d}/y_neg.txt"], 3, "y_neg.txt: negative label at line 3"),
    (["overlap", "--logits", "{d}/m.lgt", "--logits2", "{d}/m.lgt", "--seed", "abc"], 2,
     "argument --seed: invalid int value: 'abc'"),
    (["mftma", "--manifolds", "{d}/blank.txt"], 3, "blank.txt: empty manifold manifest"),
    (["stats", "--logits", "{d}/blank.txt", "--format", "text"], 3, "blank.txt: empty file"),
    (["report", "--out", "{d}/csv_empty"], 3, "b.csv: empty CSV"),
    (["report", "--out", "{d}/csv_all_nan"], 3, "b.csv: all values are NaN"),
    (["response", "--beta-correct", "-3"], 4, "negative discriminant at beta=-3.0, N=10"),
    (["report", "--out", "{d}/csv_form_feed"], 3, "b.csv: non-numeric CSV cell at line 3"),
    (["report", "--out", "{d}/csv_digit_separator"], 3, "b.csv: non-numeric CSV cell at line 3"),
    (["report", "--out", "{d}/csv_non_ascii_digit"], 3, "b.csv: non-numeric CSV cell at line 3"),
    (["mftma", "--manifolds", "{d}/manifolds_ff.txt"], 3, "cannot read {d}/c0.lgt\x0c: "),
], ids=["response_no_data", "response_no_feats", "analytic_zero_step",
        "hybrid_without_index_source", "labels_directory", "flags_directory",
        "manifolds_directory", "bin_width_tiny", "bin_width_overflow",
        "analytic_error_rate", "analytic_threshold_error_rate", "analytic_empty_grid",
        "analytic_grid_cap", "analytic_epsilon_removed", "analytic_seed_removed",
        "analytic_format_removed", "response_format_removed", "response_beta_wrong_inadmissible",
        "response_beta_correct_inadmissible", "response_beta_correct_at_pole",
        "response_beta_wrong_inadmissible_no_wrong_samples",
        "response_beta_correct_inadmissible_no_correct_samples",
        "response_epsilon_nan", "response_c_inf", "mftma_no_dichotomies", "negative_seed",
        "binary_read_as_text", "bin_width_inf", "min_count_zero", "overlap_labels_directory",
        "overlap_labels_length", "out_is_a_file", "out_under_a_file",
        "bin_width_below_float_spacing", "out_with_new_parent", "directory_at_artifact_name",
        "stats_label_beyond_int64", "overlap_label_beyond_int64", "manipulate_label_beyond_int64",
        "text_header_beyond_memory", "text_header_beyond_int64", "analytic_surface_classes_cap",
        "analytic_threshold_classes_cap", "response_data_by_feats_cap",
        "response_data_by_classes_cap", "response_c_zero_target",
        "response_c_bracket_overflow", "response_c_squared_overflow",
        "response_sigma0_squared_overflow", "response_sigma0_noise_overflow",
        "response_epsilon_std_overflow", "response_epsilon_logit_overflow",
        "response_beta_correct_far_below_the_poles", "mftma_kappa_overflow",
        "stats_seed_removed", "report_short_row",
        "report_long_row",
        "report_inf_count", "report_inf_value", "report_nan_coordinate", "report_huge_values",
        "report_huge_edges", "stats_negative_label", "overlap_negative_label",
        "manipulate_negative_label", "overlap_seed_not_int", "mftma_blank_manifest",
        "stats_blank_text", "report_empty_csv", "report_all_nan_heatmap",
        "response_beta_correct_negative_discriminant", "report_form_feed_cell",
        "report_digit_separator_cell", "report_non_ascii_digit_cell",
        "mftma_listing_strips_only_spaces_and_tabs"])
@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_failures_exit_with_one_line(dataset, capsys, argv, code, message):
    d = dataset[0]
    argv = [a.format(d=d) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(d / "out")]
    before = _tree(d)
    assert _run(*argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message.format(d=d) in err
    assert "Traceback" not in err
    # a failed run writes no artifact and no manifest, and removes every directory it made
    assert not (d / "out").exists()
    assert _tree(d) == before


def test_bin_cap_refuses_before_allocating(dataset):
    d = dataset[0]
    tracemalloc.start()
    try:
        code = _run("stats", "--logits", str(d / "m.lgt"), "--bin-width", "1e-13",
                    "--out", str(d / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 16 * 2**20  # 1e-13 bins over this data would need ~1e14 bins


def test_beta_grid_cap_refuses_before_allocating(dataset):
    d = dataset[0]
    tracemalloc.start()
    try:
        code = _run("analytic", "--surface", "--beta-step", "1e-9", "--beta-max", "3.5",
                    "--out", str(d / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 16 * 2**20  # the 5e8-value grid alone would take 4 GB
    assert not (d / "out").exists()


SRC = Path(logitlab.__file__).resolve().parents[1]
# Runs cli.main on its arguments (none: import only), then prints the
# scipy modules the process loaded.
SCIPY_PROBE = """import json, sys
import logitlab.cli
code = logitlab.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
sys.exit(code)"""


def _python(*args):
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("argv", [
    [],
    ["stats", "--logits", "{d}/m.lgt", "--labels", "{d}/y.txt", "--flags", "{d}/f.txt",
     "--min-count", "5"],
    ["overlap", "--logits", "{d}/m.lgt", "--logits2", "{d}/m.lgt", "--labels", "{d}/y.txt"],
    ["manipulate", "--logits", "{d}/m.lgt", "--kind", "fix_k_permute", "--k", "2"],
    ["response", "--n-data", "60", "--n-feats", "30"],
    ["analytic", "--surface", "--shrinkage", "--threshold", "--beta-step", "1.0"],
], ids=["import", "stats", "overlap", "manipulate", "response", "analytic"])
def test_cold_start_loads_no_scipy(dataset, argv):
    d = dataset[0]
    if argv:
        argv = [a.format(d=d) for a in argv] + ["--out", str(d / "out")]
    proc = _python("-c", SCIPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    if argv:
        assert (d / "out" / "manifest.json").exists()


def test_python_dash_m_runs_the_cli():
    proc = _python("-m", "logitlab", "stats", "--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: logitlab stats")
    proc = _python("-m", "logitlab", "stats", "--nonsense")
    assert proc.returncode == 2 and proc.stderr.count("\n") == 1
