#!/usr/bin/env python3
"""Reproduce the simulation-study tables at configurable replication counts.

Tables:
  1  mean-curve SCB coverage and thresholds (model 1), plus the
     known-covariance threshold column
  2  normal vs bootstrap SCB coverage at small n (model 2)
  3  lack-of-fit test size under the null (model 3, H0)
  4  lack-of-fit test power under the local alternative (model 3, Hn)

Defaults are desk-scale; raise --reps for publication-scale runs.
"""

import argparse
import sys

from funcband.simlab import ExperimentTable, ModelSpec, known_R_threshold, run_experiment

TABLE1_ROWS = [(20, 20, 0.1), (50, 50, 0.05), (100, 100, 0.05), (100, 100, 0.1)]
TABLE2_ROWS = [(10, 50, 0.05), (20, 50, 0.05), (50, 50, 0.05)]
TABLE34_BANDWIDTHS = [0.035, 0.05, 0.1]
TEST_METHODS = ["gof-scb", "plrt-known", "plrt-np", "plrt-ar1"]


def table1(args):
    table = ExperimentTable()
    for i, (n, p, h) in enumerate(TABLE1_ROWS):
        spec = ModelSpec(model="m1", n=n, p=p, h=h, reps=args.reps,
                         seed=args.seed + i)
        table.rows.append(run_experiment(spec, "normal-scb"))
        c_known = known_R_threshold("m1", paths=50000, seed=args.seed + i, p=p, h=h)
        print(f"# (n={n}, p={p}, h={h}) known-covariance threshold: {c_known:.3f}",
              file=sys.stderr)
    return table


def table2(args):
    table = ExperimentTable()
    for i, (n, p, h) in enumerate(TABLE2_ROWS):
        spec = ModelSpec(model="m2", n=n, p=p, h=h, reps=args.reps,
                         seed=args.seed + i, bootstraps=args.bootstraps)
        table.rows.append(run_experiment(spec, "normal-scb"))
        table.rows.append(run_experiment(spec, "bootstrap-scb"))
    return table


def _test_table(args, hypothesis):
    table = ExperimentTable()
    for i, h in enumerate(TABLE34_BANDWIDTHS):
        spec = ModelSpec(model=f"m3-{hypothesis}", n=50, p=50, h=h,
                         reps=args.reps, seed=args.seed + i)
        for method in TEST_METHODS:
            table.rows.append(run_experiment(spec, method))
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table", type=int, required=True, choices=[1, 2, 3, 4])
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--bootstraps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args(argv)

    builders = {1: table1, 2: table2,
                3: lambda a: _test_table(a, "h0"), 4: lambda a: _test_table(a, "hn")}
    table = builders[args.table](args)
    text = table.to_csv() if args.format == "csv" else table.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
