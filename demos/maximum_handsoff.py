#!/usr/bin/env python3
"""
Solve a maximum hands-off (sparsest) control problem and describe the result.

This script:
1. Reads the fourth-order example from problems/fourth_order_l1.txt: an
   oscillatory pair feeding a double integrator tail, steered from
   x0 = [1, 1, 1, 1] to the origin in 10 s on a 1000-interval grid
2. Solves the L1 relaxation exactly: an exchange method on the costate dual
   goes to its optimal vertex, whose control is bang-off-bang
3. Prints the support measure, hands-off fraction, switching times, and the
   terminal accuracy of the resimulated trajectory

Usage:
    python3 maximum_handsoff.py

The `handsoff` command solves the same file and writes the sampled
trajectory (trajectory.csv) and the report (report.txt) to a directory:
    handsoff solve demos/problems/fourth_order_l1.txt --out run/
"""

from pathlib import Path

import numpy as np

from handsoff import compute_metrics, simulate, solve_problem
from handsoff.cli import parse_problem_file

PROBLEM = Path(__file__).resolve().parent / "problems" / "fourth_order_l1.txt"


def main() -> None:
    problem = parse_problem_file(PROBLEM)
    report = solve_problem(problem)
    metrics = compute_metrics(report.u)
    states = simulate(problem.plant, problem.x0, report.u)

    print(f"status            = {report.status} ({report.iterations} iterations)")
    print(f"support measure   = {metrics.l0_seconds:.4f} s of {problem.T:g} s")
    print(f"hands-off         = {100.0 * metrics.handsoff_fraction:.1f}% of the horizon")
    print(f"L1 cost           = {report.j1:.6f}")
    print(f"bang-off-bang     = {metrics.bangoffbang_score:.4f}")
    times = " ".join(f"{t:.2f}" for t in metrics.switching_times)
    print(f"switching times   = {times}")
    print(f"terminal residual = {report.eq_residual:.2e}")
    print(f"|x(T)|            = {np.linalg.norm(states[-1]):.2e}")


if __name__ == "__main__":
    main()
