"""Byte-identity gate for the forge outputs and the stats CSVs.

The inputs are small seeded matrices rounded to one decimal, so rows hold
ties and the tie order (ascending class index) decides the outputs. The
SHA-256 of every output file is pinned; a rewrite of the ranking, forge or
text IO code must reproduce each file byte for byte.
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
