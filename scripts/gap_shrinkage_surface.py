#!/usr/bin/env python3
"""Sweep the predicted squared-gap change over (beta_correct, beta_wrong).

Inadmissible grid cells are emitted as NaN and left blank in the heatmap.
Writes gap_shrinkage.csv plus a rendered heatmap into the output directory.
"""

import argparse
import sys

from logitlab import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/gap_shrinkage")
    ap.add_argument("--n-classes", type=int, default=10)
    ap.add_argument("--error-rate", type=float, default=0.2)
    ap.add_argument("--branch", choices=("plus", "minus"), default="plus")
    ap.add_argument("--beta-min", type=float, default=3.0)
    ap.add_argument("--beta-max", type=float, default=10.0)
    ap.add_argument("--beta-step", type=float, default=0.25)
    args = ap.parse_args()
    code = cli.main([
        "analytic", "--shrinkage",
        "--n-classes", str(args.n_classes),
        "--error-rate", str(args.error_rate),
        "--branch", args.branch,
        "--beta-min", str(args.beta_min),
        "--beta-max", str(args.beta_max),
        "--beta-step", str(args.beta_step),
        "--out", args.out,
    ])
    if code:
        return code
    return cli.main(["report", "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
