"""Smoke tests for the two demos in scripts/: each runs with small arguments,
exits 0 and prints one row of finite numbers per grid cell."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logitlab

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(logitlab.__file__).resolve().parent.parent)


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    return header.split(), [[float(v) for v in row.split()] for row in rows]


@pytest.mark.parametrize("script,args,columns,n_rows", [
    ("gap_shift_demo.py", ["--n-data", "40", "--n-feats", "20", "--betas", "4", "5"], 5, 4),
    ("capacity_demo.py", ["--n-manifolds", "4", "--ambient", "12", "--intrinsic", "2",
                          "--points", "8", "--n-samples", "20", "--radii", "0.0", "0.4"], 6, 2),
], ids=["gap_shift_demo", "capacity_demo"])
def test_demo_prints_a_row_per_cell(script, args, columns, n_rows):
    header, rows = _run(script, *args)
    assert len(header) == columns
    assert len(rows) == n_rows
    assert all(len(row) == columns and all(map(math.isfinite, row)) for row in rows)
