#!/usr/bin/env python3
"""
Find the shortest feasible horizon, then compare energy solvers on a fixed one.

This script:
1. Finds the minimum time needed to drive the double integrator of
   problems/double_integrator_l1l2.txt from rest at position 1 to the origin
   with |u| <= 1 (the classical answer is T* = 2)
2. Repeats the search for the fourth-order example of
   problems/fourth_order_l1.txt
3. Solves a minimum energy problem two ways on the double integrator file's
   horizon of 4 s, on a 1000-interval grid: the Gramian closed form and the
   costate-dual Newton solver, and prints their relative difference

Usage:
    python3 minimum_time_energy.py

The `handsoff` command searches the same files at their own grid density:
    handsoff mintime demos/problems/double_integrator_l1l2.txt
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from handsoff import min_energy_closed_form, minimum_time, solve_problem
from handsoff.cli import parse_problem_file

PROBLEMS = Path(__file__).resolve().parent / "problems"


def main() -> None:
    integrator = parse_problem_file(PROBLEMS / "double_integrator_l1l2.txt")
    chain = parse_problem_file(PROBLEMS / "fourth_order_l1.txt")

    t_di = minimum_time(integrator.plant, integrator.x0, grid_density=200.0, tol_t=0.01)
    print(f"double integrator from [1, 0]: T* = {t_di:.3f} s (exact value 2)")

    t_chain = minimum_time(chain.plant, chain.x0, grid_density=20.0, tol_t=0.05)
    print(f"fourth-order example:          T* = {t_chain:.2f} s")

    # minimum energy on twice the minimal horizon, solver vs closed form
    energy = replace(integrator, N=1000, r=1.0, mode="L2")
    exact = min_energy_closed_form(energy.plant, energy.x0, energy.T, energy.N)
    report = solve_problem(energy)
    u_exact = exact.u.reshape(-1)
    u_solver = report.u.u.reshape(-1)
    rel = np.linalg.norm(u_solver - u_exact) / np.linalg.norm(u_exact)
    print(f"\nminimum energy on T = {energy.T:g} s, N = {energy.N}:")
    print(f"closed-form peak |u| = {np.max(np.abs(u_exact)):.4f}")
    print(f"solver energy        = {report.j2:.6f}")
    print(f"relative difference  = {rel:.2e}")


if __name__ == "__main__":
    main()
