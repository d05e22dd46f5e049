#!/usr/bin/env python3
"""
Sweep the quadratic weight and tabulate the sparsity/smoothness trade-off.

This script:
1. Solves the mixed L1/L2 problem on the fourth-order example for a log-spaced
   grid of quadratic weights r
2. Prints, for each r, the support measure of the control (time spent away
   from zero), the largest slope between adjacent samples, and the Newton
   steps of that point (the sweep is one continuation path from the largest
   r down, so most points need only a few)
3. Optionally writes the table to CSV in the same format as the command line
   driver's sweep subcommand

Raising r buys a smoother control at the cost of a longer support; the table
makes the exchange rate explicit.

Usage:
    python3 tradeoff_sweep.py [--points 9] [--out tradeoff.csv]
"""

import argparse
import csv

import numpy as np

from handsoff import ControlProblem, LtiPlant, sweep_tradeoff

PLANT = LtiPlant(
    a=[
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    b=[2.0, 0.0, 0.0, 0.0],
)
X0 = [1.0, 1.0, 1.0, 1.0]
HORIZON = 10.0
INTERVALS = 1000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--points", type=int, default=9, help="sweep resolution")
    parser.add_argument("--out", default=None, help="write tradeoff CSV here")
    args = parser.parse_args()

    problem = ControlProblem(
        plant=PLANT, x0=X0, T=HORIZON, N=INTERVALS, lam=1.0, r=1.0, mode="L1L2"
    )
    r_values = np.logspace(-3.0, 1.0, args.points)
    points = sweep_tradeoff(problem, r_values)

    print("r          support [s]   max slope [1/s]   status      steps")
    for point in points:
        print(
            f"{point.r:<10.4g} {point.l0_seconds:<13.4f} "
            f"{point.derivative_supnorm:<17.4f} {point.status:<11} {point.iterations}"
        )

    if args.out is not None:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["r", "l0_seconds", "derivative_supnorm", "status", "iterations"]
            )
            for point in points:
                writer.writerow(
                    [
                        f"{point.r:.15g}",
                        f"{point.l0_seconds:.15g}",
                        f"{point.derivative_supnorm:.15g}",
                        point.status,
                        point.iterations,
                    ]
                )
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
