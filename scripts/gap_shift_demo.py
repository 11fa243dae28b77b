#!/usr/bin/env python3
"""Compare the predicted first-order change of the correct-sample logit gap
against a synthetic measurement.

Runs the end-to-end linear-response experiment for every (beta_correct,
beta_wrong) pair drawn from --betas and prints the predicted and measured
values; it writes no files. `logitlab response` writes one cell's values to
gap_shift.csv.
"""

import argparse
import sys

from logitlab import response, surrogate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-data", type=int, default=200)
    ap.add_argument("--n-feats", type=int, default=100)
    ap.add_argument("--n-classes", type=int, default=10)
    ap.add_argument("--error-rate", type=float, default=0.2)
    ap.add_argument("--epsilon", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--betas", type=float, nargs="+", default=[4.0, 5.0, 6.0])
    args = ap.parse_args()
    print("beta_correct  beta_wrong  predicted  measured_mean  measured_std")
    for bc in args.betas:
        for bw in args.betas:
            params = surrogate.MeanFieldParams(
                bc, bw, args.n_classes, args.error_rate
            )
            pred, mean, std = response.gap_shift_experiment(
                params, args.n_data, args.n_feats, args.epsilon, seed=args.seed
            )
            print(f"{bc:12.3f}  {bw:10.3f}  {pred:9.4f}  {mean:13.4f}  {std:12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
