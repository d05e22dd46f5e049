#!/usr/bin/env python3
"""
Show how the mixed L1/L2 control interpolates between its two limits.

This script:
1. Solves the fourth-order example of problems/fourth_order_l1.txt in pure
   L1 mode (sparsest control) and in pure L2 mode (minimum energy control)
2. Solves the mixed problem for a decreasing sequence of quadratic weights r
3. Prints, for each r, the largest step between adjacent samples (a proxy for
   continuity), the L2(0,T) and sup-norm distances to the sparse control, and
   the sup-norm distance to the minimum energy control

As r shrinks the mixed control develops steep ramps and approaches the sparse
bang-off-bang solution in L2(0,T).  It does not approach it in the sup norm:
the mixed control is continuous and the sparse one jumps at its switches, so
the sup distance depends on where the samples fall around the switches and
grows as the grid is refined.  As the sparsity weight shrinks at fixed r the
mixed control matches the minimum energy solution, uniformly.

Usage:
    python3 mixed_limits.py
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from handsoff import solve_problem
from handsoff.cli import parse_problem_file

PROBLEM = Path(__file__).resolve().parent / "problems" / "fourth_order_l1.txt"
R_VALUES = (1.0, 0.1, 0.01, 0.001)


def main() -> None:
    sparse = parse_problem_file(PROBLEM)
    u_sparse = solve_problem(sparse).u.u.reshape(-1)
    u_smooth = solve_problem(replace(sparse, r=1.0, mode="L2")).u.u.reshape(-1)

    print("r        max jump   L2|u - sparse|   sup|u - sparse|   sup|u - smooth|")
    for r in R_VALUES:
        report = solve_problem(replace(sparse, r=r, mode="L1L2"))
        u = report.u.u.reshape(-1)
        jump = float(np.max(np.abs(np.diff(u))))
        l2_to_sparse = float(np.sqrt(sparse.h * np.sum((u - u_sparse) ** 2)))
        to_sparse = float(np.max(np.abs(u - u_sparse)))
        to_smooth = float(np.max(np.abs(u - u_smooth)))
        print(
            f"{r:<8g} {jump:<10.4f} {l2_to_sparse:<16.4f} {to_sparse:<17.4f} "
            f"{to_smooth:.4f}"
        )

    # the other limit: vanishing sparsity weight at fixed r recovers L2
    report = solve_problem(replace(sparse, lam=1e-3, r=1.0, mode="L1L2"))
    gap = float(np.max(np.abs(report.u.u.reshape(-1) - u_smooth)))
    print(f"\nlam=1e-3, r=1: sup|u - smooth| = {gap:.4f}")


if __name__ == "__main__":
    main()
