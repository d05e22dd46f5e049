#!/usr/bin/env python3
"""
Show how the mixed L1/L2 control interpolates between its two limits.

This script:
1. Solves the fourth-order example in pure L1 mode (sparsest control) and in
   pure L2 mode (minimum energy control)
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

import numpy as np

from handsoff import ControlProblem, LtiPlant, solve_problem

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
R_VALUES = (1.0, 0.1, 0.01, 0.001)


def problem(**kwargs) -> ControlProblem:
    return ControlProblem(plant=PLANT, x0=X0, T=HORIZON, N=INTERVALS, **kwargs)


def main() -> None:
    u_sparse = solve_problem(problem(lam=1.0, mode="L1")).u.u.reshape(-1)
    u_smooth = solve_problem(problem(r=1.0, mode="L2")).u.u.reshape(-1)

    h = HORIZON / INTERVALS
    print("r        max jump   L2|u - sparse|   sup|u - sparse|   sup|u - smooth|")
    for r in R_VALUES:
        report = solve_problem(problem(lam=1.0, r=r, mode="L1L2"))
        u = report.u.u.reshape(-1)
        jump = float(np.max(np.abs(np.diff(u))))
        l2_to_sparse = float(np.sqrt(h * np.sum((u - u_sparse) ** 2)))
        to_sparse = float(np.max(np.abs(u - u_sparse)))
        to_smooth = float(np.max(np.abs(u - u_smooth)))
        print(
            f"{r:<8g} {jump:<10.4f} {l2_to_sparse:<16.4f} {to_sparse:<17.4f} "
            f"{to_smooth:.4f}"
        )

    # the other limit: vanishing sparsity weight at fixed r recovers L2
    report = solve_problem(problem(lam=1e-3, r=1.0, mode="L1L2"))
    gap = float(np.max(np.abs(report.u.u.reshape(-1) - u_smooth)))
    print(f"\nlam=1e-3, r=1: sup|u - smooth| = {gap:.4f}")


if __name__ == "__main__":
    main()
