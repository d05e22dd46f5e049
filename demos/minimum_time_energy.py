#!/usr/bin/env python3
"""
Find the shortest feasible horizon, then compare energy solvers on a fixed one.

This script:
1. Finds the minimum time needed to drive a double integrator from rest at
   position 1 to the origin with |u| <= 1 (the classical answer is T* = 2)
2. Repeats the search for the fourth-order example plant
3. Solves a minimum energy problem two ways on a comfortable horizon: the
   Gramian closed form and the costate-dual Newton solver, and prints their
   relative difference

Usage:
    python3 minimum_time_energy.py
"""

import numpy as np

from handsoff import (
    ControlProblem,
    LtiPlant,
    min_energy_closed_form,
    minimum_time,
    solve_problem,
)

DOUBLE_INTEGRATOR = LtiPlant(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]])
CHAIN = LtiPlant(
    a=[
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    b=[2.0, 0.0, 0.0, 0.0],
)


def main() -> None:
    t_di = minimum_time(DOUBLE_INTEGRATOR, [1.0, 0.0], grid_density=200.0, tol_t=0.01)
    print(f"double integrator from [1, 0]: T* = {t_di:.3f} s (exact value 2)")

    t_chain = minimum_time(CHAIN, [1.0, 1.0, 1.0, 1.0], grid_density=20.0, tol_t=0.05)
    print(f"fourth-order example:          T* = {t_chain:.2f} s")

    # minimum energy on twice the minimal horizon, solver vs closed form
    horizon, n_steps = 4.0, 1000
    exact = min_energy_closed_form(DOUBLE_INTEGRATOR, [1.0, 0.0], horizon, n_steps)
    report = solve_problem(
        ControlProblem(
            plant=DOUBLE_INTEGRATOR,
            x0=[1.0, 0.0],
            T=horizon,
            N=n_steps,
            r=1.0,
            mode="L2",
        )
    )
    u_exact = exact.u.reshape(-1)
    u_solver = report.u.u.reshape(-1)
    rel = np.linalg.norm(u_solver - u_exact) / np.linalg.norm(u_exact)
    print(f"\nminimum energy on T = {horizon:g} s, N = {n_steps}:")
    print(f"closed-form peak |u| = {np.max(np.abs(u_exact)):.4f}")
    print(f"solver energy        = {report.j2:.6f}")
    print(f"relative difference  = {rel:.2e}")


if __name__ == "__main__":
    main()
