#!/usr/bin/env python3
"""End-to-end demo of the library workflow on synthetic functional data.

Generates a sample of correlated curves, fits the mean with a local linear
smoother, builds normal and bootstrap simultaneous confidence bands and a
prediction band for a new curve, runs the sup-norm lack-of-fit test against a
straight-line model (with the pseudo-likelihood-ratio benchmark), and
compares two independent samples.
Writes band CSVs next to --out (default: ./demo_output).
"""

import argparse
import os
import sys

import numpy as np

from funcband import (
    bootstrap_scb,
    make_eval_grid,
    normal_scb,
    plrt_test,
    polynomial_basis,
    prediction_band,
    scb_gof_test,
    two_sample_scb,
)
from funcband.simlab import gen_model1, gen_model3, m1_mean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=50)
    parser.add_argument("--p", type=int, default=50)
    parser.add_argument("--h", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="demo_output")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    eval = make_eval_grid(100)

    sample = gen_model1(args.n, args.p, seed_or_rng=args.seed)
    band = normal_scb(sample, eval, args.h, seed=args.seed)
    band.write_csv(os.path.join(args.out, "band_normal.csv"))
    truth = m1_mean(eval.points)
    covered = bool(np.all((band.lower <= truth) & (truth <= band.upper)))
    print(f"normal band: c = {band.threshold:.3f}, covers true mean: {covered}")

    boot = bootstrap_scb(sample, eval, args.h, bootstraps=1000, seed=args.seed)
    boot.write_csv(os.path.join(args.out, "band_bootstrap.csv"))
    print(f"bootstrap band: c = {boot.threshold:.3f}")

    pred = prediction_band(sample, eval, args.h, seed=args.seed)
    pred.write_csv(os.path.join(args.out, "band_prediction.csv"))
    print(f"prediction band: c = {pred.threshold:.3f}")

    lin = gen_model3(args.n, args.p, seed_or_rng=args.seed, hypothesis="hn")
    report = scb_gof_test(lin, polynomial_basis(1), eval, args.h, seed=args.seed)
    print(f"lack-of-fit vs straight line: T = {report.statistic:.3f}, "
          f"c = {report.threshold:.3f}, reject = {report.reject}")
    plrt = plrt_test(lin, polynomial_basis(1), args.h)
    print(f"plrt benchmark: F = {plrt.statistic:.3f}, p = {plrt.pvalue:.4f}")

    other = gen_model1(args.n, args.p, seed_or_rng=args.seed + 1)
    cmp = two_sample_scb(sample, other, eval, args.h, args.h, seed=args.seed)
    cmp.band.write_csv(os.path.join(args.out, "band_difference.csv"))
    print(f"two-sample comparison: c = {cmp.band.threshold:.3f}, "
          f"reject equal means = {cmp.reject}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
