"""Byte-identity gate for the forge outputs, the stats, overlap and mftma
CSVs, the surrogate-model artifacts and the SVGs `report` draws from them.

The forge and stats inputs are small seeded matrices rounded to one decimal,
so rows hold ties and the tie order (ascending class index) decides the
outputs. The mftma clouds are small seeded Gaussian matrices. The analytic
and response runs take no input file. The SHA-256 of
every output file is pinned; a rewrite of the ranking, forge, text IO,
closed-form or response code must reproduce each file byte for byte, or,
where float reassociation moves the last bits, re-pin the hash in the same
change and stay within a stated tolerance of the old values, as
gap_shift.csv does.
"""

import hashlib

import numpy as np
import pytest

from logitlab import cli
from logitlab.store import (
    LabelVector,
    LogitMatrix,
    RobustFlags,
    store_flags,
    store_labels,
    store_matrix,
)

# Hashes taken from the per-row implementation (one lexsort per row).
FORGE = {
    "binary": {
        "fix_k_permute.lgt": "80497f928f04bb4c07375152c50b5a643a7b5e210736d25c11bea07c8685e834",
        "fix_k_average.lgt": "064e3d9d8e53bbeb260d803f8f2f52984608da092c1521f2d90f93120ddda907",
        "correct_fix_1.lgt": "36948bca38f5bd6fa73a297617fbd5b82cfbaf4810f4cf56d213b195e133fcdc",
        "hybrid.lgt": "4d776562aa10e739e0c8f251e881a675137be4152cd83571ecb83839db774ee7",
    },
    "text": {
        "fix_k_permute.lgt": "ba6ed9be40dd5f404a2d568d77b960721c3006fc0f7a10514a9ef551d384be6d",
        "fix_k_average.lgt": "4ed3d60a9da993afde0156b4e2dd5816bb042cf80b30c0e57c16a955a35a45ae",
        "correct_fix_1.lgt": "e9f557ebfcd56b23d3e81c8d5c59423bed8365eba1e4b6c8be8a9564b478ea62",
        "hybrid.lgt": "85b8a57ea77e5c5d94ba11b8fdaa13181ce66c2706dd67cab0d85ba3d6cd6de2",
    },
}
# The stats CSVs do not depend on the input format.
STATS = {
    "max_logit.csv": "674695d8f486bb476cc62efc1be0b71f87720497c12007f06421c5ea2c1168be",
    "max_logit_summary.csv": "a0dfa40e6797321f7b2e51a51688b55ab2847ba2c7f8bf283eb3f8da548c3d61",
    "gaps.csv": "7109b21c5103085b54dbcf4f20811777f0d9191351d6e9e95a92bf7cf7419a76",
    "gap_hist.csv": "f70f98a7ea6d7116c3ac8109973b496b729905da0938548c8ea9057a77253d3f",
    "gap_accuracy.csv": "05506ba697f0e6149ea9e3722cd357b3b24b65ad2142b61e628274e28c1e9377",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("hash_inputs")
    rng = np.random.default_rng(20211027)
    a = np.round(rng.standard_normal((60, 7)) * 1.5, 1)
    b = np.round(a + rng.standard_normal((60, 7)) * 0.5, 1)
    labels = rng.integers(0, 7, size=60)
    flags = rng.random(60) > 0.5
    for fmt in ("binary", "text"):
        store_matrix(LogitMatrix(a), d / f"a.{fmt}", fmt)
        store_matrix(LogitMatrix(b), d / f"b.{fmt}", fmt)
    store_labels(LabelVector(labels), d / "y.txt")
    store_flags(RobustFlags(flags), d / "f.txt")
    return d


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_outputs_are_byte_identical(inputs, tmp_path, fmt):
    d = inputs
    base = ["--logits", str(d / f"a.{fmt}"), "--format", fmt]
    runs = [
        ["manipulate", *base, "--kind", "fix_k_permute", "--k", "3", "--seed", "5"],
        ["manipulate", *base, "--kind", "fix_k_average", "--k", "2"],
        ["manipulate", *base, "--kind", "correct_fix_1", "--labels", str(d / "y.txt")],
        ["manipulate", *base, "--kind", "hybrid", "--index-source", str(d / f"b.{fmt}")],
        ["stats", *base, "--labels", str(d / "y.txt"), "--flags", str(d / "f.txt"),
         "--bin-width", "0.5", "--min-count", "8"],
    ]
    for argv in runs:
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    expected = FORGE[fmt] | STATS
    got = {name: _sha256(tmp_path / name) for name in expected}
    assert got == expected


# Hashes taken from the CSV writer that formatted each value in Python.
OVERLAP = {
    "overlap.csv": "83693f7373b70b0fbe462b941cf48503cbcf5e73235d6746a61e8a2a5862b29d",
    "overlap_permuted.csv": "7ff69fbc578aac536d4a82364bac9231ebfc018d41aa9bf5b4b3f709df988663",
}


def test_overlap_outputs_are_byte_identical(inputs, tmp_path):
    d = inputs
    assert cli.main(["overlap", "--logits", str(d / "a.binary"), "--logits2", str(d / "b.binary"),
                     "--labels", str(d / "y.txt"), "--seed", "3", "--out", str(tmp_path)]) == 0
    assert {name: _sha256(tmp_path / name) for name in OVERLAP} == OVERLAP


@pytest.fixture(scope="module")
def clouds(tmp_path_factory):
    d = tmp_path_factory.mktemp("clouds")
    rng = np.random.default_rng(20211028)
    names = [f"cloud{i}.lgt" for i in range(4)]
    for name in names:
        store_matrix(LogitMatrix(rng.standard_normal((6, 12))), d / name, "binary")
    (d / "manifolds.txt").write_text("\n".join(names) + "\n")
    return d / "manifolds.txt"


MFTMA = {
    "mftma.csv": "878788f48010001ae19b2b1312d6961b09d1566d255649afb657b9db0a81c959",
    "empirical_capacity.csv": "dafdf0ed00efc87035ea791867cbe32530852adbb6b4e0022ea37bb1bca33532",
}


def test_mftma_outputs_are_byte_identical(clouds, tmp_path):
    assert cli.main(["mftma", "--manifolds", str(clouds), "--n-samples", "30", "--empirical",
                     "--n-dichotomies", "8", "--seed", "4", "--out", str(tmp_path)]) == 0
    assert {name: _sha256(tmp_path / name) for name in MFTMA} == MFTMA


# Taken from the capacity loop that embedded the cloud and the draw in every draw.
MFTMA_MARGIN = "ce260a82032f46c738214faab785bd2b3ca4a57d354e882ea3db5159c68ca9d5"


def test_mftma_margin_output_is_byte_identical(clouds, tmp_path):
    # a margin enters the interior test and the NNLS right-hand side
    assert cli.main(["mftma", "--manifolds", str(clouds), "--kappa", "0.5", "--project-centers",
                     "--n-samples", "30", "--seed", "4", "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "mftma.csv") == MFTMA_MARGIN


# Cases a columns writer can get wrong: no rows, an integer beyond int64 and
# NaN cells. Hashes taken from the CSV writer that formatted each value in
# Python; each case also checks the text that makes it an edge case.
EDGE_CASES = {
    "threshold_no_rows": (
        ["analytic", "--threshold", "--n-classes", "3"], "threshold.csv",
        lambda text: text == "n_classes,threshold\n",
        "d440560d71dd359285124e8d151c7bcbf2a86907e731847e01876b327d975d4f"),
    "seed_beyond_int64": (
        ["mftma", "--n-samples", "5", "--seed", str(2**70 + 1)], "mftma.csv",
        lambda text: text.endswith(f",5,{2**70 + 1}\n"),
        "477d08f7a728774e47ece097902c5947e24f0d3ee017d1df154c4a0d704ea866"),
    "nan_surface_cells": (
        ["analytic", "--surface", "--beta-min", "0.5", "--beta-max", "3", "--beta-step", "0.5"],
        "loss_surface.csv", lambda text: "\n3,2,nan\n3,2.5,2.5360186024925189\n" in text,
        "c936e1aa7e647c048477d7cf994114eba3e9fe5512862e602876ff0b1aad881e"),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_csv_edge_cases_are_byte_identical(clouds, tmp_path, case):
    argv, name, holds, expected = EDGE_CASES[case]
    if argv[0] == "mftma":
        argv = [*argv, "--manifolds", str(clouds)]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert holds((tmp_path / name).read_text())
    assert _sha256(tmp_path / name) == expected


# Hashes taken from the per-beta, per-cell and per-sample implementation.
ANALYTIC_ARGS = {
    "readme": ["--n-classes", "10", "--error-rate", "0.2",
               "--beta-min", "3", "--beta-max", "10", "--beta-step", "0.25"],
    "n40": ["--n-classes", "40", "--beta-step", "0.05"],
    "minus": ["--branch", "minus", "--n-classes", "12",
              "--beta-min", "0.3", "--beta-max", "8", "--beta-step", "0.1"],
}
ANALYTIC = {
    "readme": {
        "loss_surface.csv": "d11494526262bf43bb7f41794be16f4bc10b2c5546c65257fc8d63d5614e0d95",
        "gap_shrinkage.csv": "cc88b814be2477a746b0f300b40a0f53a1954fb33d5f466fa6c61feebdba8b41",
        "threshold.csv": "0d7799186d9a59a9dd557956aadb61acd12bd5f8fa149095d57353dd11e74501",
    },
    "n40": {
        "loss_surface.csv": "ea534aaf5045a2d4ec610905abcaf4f5682fd013f25714610aac300ac6f8d067",
        "gap_shrinkage.csv": "1e823df81e84db8013b5904b6d3fb001216a4be4919756779f783e40b30d8b2d",
        "threshold.csv": "beff908fd484ccbe5440a30b0d1d727cbd96f9b99c3413d8aaf5ddaf81ece5bf",
    },
    "minus": {
        "loss_surface.csv": "e2123c926773c8efc94584527f8e44f4f4cdbd1865f353c11c42b7e4fcee45e4",
        "gap_shrinkage.csv": "f9d6905bf8e8782f5a274d473bc247053e8ce6296a906dddc199215cca5f8550",
        "threshold.csv": "373b206a18f8a3bbf0b6fa6f880c94f7bcc3afb983ddbe8e89095ac01b0f8bdf",
    },
}
# Hashes taken from the eigenpair-applied Omega; the values beside them are
# the rows the N_data x rank Omega factor wrote (%.17g), which the new rows
# must match within GAP_SHIFT_RTOL.
GAP_SHIFT = {
    "0.2": "a7369f535c0b40f338317218d5d321b6bd55cd314498658bab552b414717a83e",
    "0": "da29acb9981d596b3a3bd8f96c05163892e5dcbf66138bb234cc3ba40fee0d80",
    "1": "6a09a7c12c17b72aa9dc5fbecaafb8b5a9ca0a2c59fedfb14f4ec57deaee0bac",
}
GAP_SHIFT_VALUES = {
    "0.2": (5, 5, -1.4653389599838489, -1.1585969999005852, 0.13989437782505715),
    "0": (5, 5, -2.1639257305791477, -1.3508304378989151, 0.17311750958928573),
    "1": (5, 5, -0.089405593866662927, 0, 0),
}
GAP_SHIFT_RTOL = 1e-13


@pytest.mark.parametrize("grid", sorted(ANALYTIC))
def test_analytic_outputs_are_byte_identical(tmp_path, grid):
    expected = ANALYTIC[grid]
    assert cli.main(["analytic", "--surface", "--shrinkage", "--threshold",
                     *ANALYTIC_ARGS[grid], "--out", str(tmp_path)]) == 0
    assert {name: _sha256(tmp_path / name) for name in expected} == expected


@pytest.mark.parametrize("error_rate", sorted(GAP_SHIFT))
def test_gap_shift_is_byte_identical(tmp_path, error_rate):
    assert cli.main(["response", "--n-data", "50", "--n-feats", "80", "--seed", "2",
                     "--error-rate", error_rate, "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "gap_shift.csv") == GAP_SHIFT[error_rate]
    header, row = (tmp_path / "gap_shift.csv").read_text().splitlines()
    assert header == "beta_correct,beta_wrong,predicted,measured_mean,measured_std"
    values = tuple(float(v) for v in row.split(","))
    assert values == pytest.approx(GAP_SHIFT_VALUES[error_rate], rel=GAP_SHIFT_RTOL, abs=0.0)


# Hashes taken from the renderers that parsed each CSV twice.
REPORT = {
    "stats": {
        "max_logit.svg": "48cdbef4525b0117e8dec363f60f3389a04fcb2beb303d611a9adfe2638e0403",
        "max_logit_summary.svg": "6e2460f10d522d7263bce60b9c31ebf50be416e30dd45e1adc4ad63e53ba564e",
        "gap_hist.svg": "e168d493e2b7d8636498f7806249c91dbb9338910e9c3d67d72088e1be020e98",
        "gap_accuracy.svg": "368e35ef47f78133c5231c4bc9a415aafcc7de1547cd81edbdfc38e121ace9ff",
    },
    "analytic": {
        "loss_surface.svg": "977ac9d05382c87ebbf472f92d0269faaa87bb1930fde1ff2fbed73a636602f4",
        "gap_shrinkage.svg": "8f9726d689c0a3b88fdc5e8f27653279a845476fb9d3494e989a0b8f4106773c",
    },
}


def test_report_svgs_are_byte_identical(inputs, tmp_path):
    d = inputs
    assert cli.main(["stats", "--logits", str(d / "a.binary"), "--labels", str(d / "y.txt"),
                     "--flags", str(d / "f.txt"), "--bin-width", "0.5", "--min-count", "8",
                     "--out", str(tmp_path / "stats")]) == 0
    assert cli.main(["analytic", "--surface", "--shrinkage", "--threshold",
                     *ANALYTIC_ARGS["readme"], "--out", str(tmp_path / "analytic")]) == 0
    for run, expected in REPORT.items():
        assert cli.main(["report", "--out", str(tmp_path / run)]) == 0
        svgs = {p.name for p in (tmp_path / run).glob("*.svg")}
        assert svgs == set(expected)
        assert {name: _sha256(tmp_path / run / name) for name in expected} == expected
