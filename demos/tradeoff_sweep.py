#!/usr/bin/env python3
"""
Sweep the quadratic weight and tabulate the sparsity/smoothness trade-off.

This script:
1. Solves the mixed L1/L2 problem on the fourth-order example of
   problems/fourth_order_l1.txt, at its L1 weight, for nine log-spaced
   quadratic weights r from 1e-3 to 10
2. Prints, for each r, the support measure of the control (time spent away
   from zero), the largest slope between adjacent samples, and the Newton
   steps of that point (the sweep is one continuation path from the largest
   r down, so most points need only a few)

Raising r buys a smoother control at the cost of a longer support; the table
makes the exchange rate explicit.

Usage:
    python3 tradeoff_sweep.py

The `handsoff` command sweeps the same file over a list of weights and
writes the table to tradeoff.csv in a directory:
    handsoff sweep demos/problems/fourth_order_l1.txt \\
        --r-list "0.001 0.01 0.1 1 10" --out run/
"""

from pathlib import Path

import numpy as np

from handsoff import sweep_tradeoff
from handsoff.cli import parse_problem_file

PROBLEM = Path(__file__).resolve().parent / "problems" / "fourth_order_l1.txt"


def main() -> None:
    points = sweep_tradeoff(parse_problem_file(PROBLEM), np.logspace(-3.0, 1.0, 9))

    print("r          support [s]   max slope [1/s]   status      steps")
    for point in points:
        print(
            f"{point.r:<10.4g} {point.l0_seconds:<13.4f} "
            f"{point.derivative_supnorm:<17.4f} {point.status:<11} {point.iterations}"
        )


if __name__ == "__main__":
    main()
