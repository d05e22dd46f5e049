#!/usr/bin/env python3
"""
Solve a maximum hands-off (sparsest) control problem and describe the result.

This script:
1. Builds a fourth-order single-input plant with an oscillatory pair and a
   double integrator tail, steered from x0 = [1, 1, 1, 1] to the origin in 10 s
2. Solves the L1 relaxation on a 1000-interval grid exactly: an exchange
   method on the costate dual goes to its optimal vertex, whose control is
   bang-off-bang
3. Prints the support measure, hands-off fraction, switching times, and the
   terminal accuracy of the resimulated trajectory
4. Optionally writes the sampled trajectory to CSV

Usage:
    python3 maximum_handsoff.py [--out trajectory.csv]

The same problem is available to the command line driver; see the problem
files under demos/problems/.
"""

import argparse

import numpy as np

from handsoff import (
    ControlProblem,
    LtiPlant,
    compute_metrics,
    simulate,
    solve_problem,
)
from handsoff.cli import write_trajectory_csv

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
    parser.add_argument("--out", default=None, help="write trajectory CSV here")
    args = parser.parse_args()

    problem = ControlProblem(
        plant=PLANT, x0=X0, T=HORIZON, N=INTERVALS, lam=1.0, mode="L1"
    )
    report = solve_problem(problem)
    metrics = compute_metrics(report.u)
    states = simulate(PLANT, X0, report.u)

    print(f"status            = {report.status} ({report.iterations} iterations)")
    print(f"support measure   = {metrics.l0_seconds:.4f} s of {HORIZON:g} s")
    print(f"hands-off         = {100.0 * metrics.handsoff_fraction:.1f}% of the horizon")
    print(f"L1 cost           = {report.j1:.6f}")
    print(f"bang-off-bang     = {metrics.bangoffbang_score:.4f}")
    times = " ".join(f"{t:.2f}" for t in metrics.switching_times)
    print(f"switching times   = {times}")
    print(f"terminal residual = {report.eq_residual:.2e}")
    print(f"|x(T)|            = {np.linalg.norm(states[-1]):.2e}")

    if args.out is not None:
        write_trajectory_csv(args.out, report.u, states)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
