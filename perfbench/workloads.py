"""The benchmark's three workloads: seeded inputs, one operation, its check.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns, in one process.  Inputs are a fixed design of
problems put in state coordinates drawn from the seed; they are generated
before timing starts and reach the program only through its public
functions (``handsoff.cli.main``, ``handsoff.analysis``, ``handsoff.plant``,
``handsoff.solver``).  Calls go through the module attribute
(``handsoff.cli.main``, not a name bound at import) so that the traced run's
spans see them.

Why each workload exists, and what it should move, is in ``README.md``.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import handsoff
import handsoff.analysis
import handsoff.cli
import handsoff.plant
import handsoff.solver

import oracle

# the paper's fourth-order example: an oscillatory pair feeding a double
# integrator tail
CHAIN_A = np.array(
    [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
)
CHAIN_B = np.array([[2.0], [0.0], [0.0], [0.0]])

L1_HORIZON = 10.0
L1_GRIDS = (1000, 2000)
SWEEP_R = (1e-3, 1e-2, 1e-1, 1.0, 10.0)
SWEEP_N = 8000
# the sweep's horizon, as a multiple of the oracle's minimum time for that
# plant and x0 (the paper's T = 10 is about 1.5x the chain's minimum time)
SWEEP_T_FACTOR = 1.5
# ``oracle.min_time`` of the problems of ``sweep_design`` in turn; constants
# because the design is fixed (a test recomputes them)
SWEEP_MIN_TIMES = (6.5625, 0.578125, 6.5, 1.65625, 6.375, 0.484375, 6.375)
MINTIME_DENSITY = 100.0
MINTIME_TOL = 0.01
# one block of the minimum-time batch: stable, marginal and unstable plants in
# turn; the unstable plants' x0 take 66 strata of the null-controllable ratio,
# 65 inside (0..1) and the last one outside (1..1.1).  One unreachable input
# per block keeps its time-outs to a few percent of a run's time.
MINTIME_BLOCK = 198
# the fixed stream every workload's problems are drawn from; the run's seed
# changes their state coordinates (see ``rotate``)
DESIGN_SEED = 20130731


@dataclass
class Workload:
    make_inputs: Callable[[int, Path], list]
    run: Callable[[Any, Path], Any]
    check: Callable[[Any, Any, Path], oracle.Verdict]
    # an operation still running after this many seconds is stopped and failed
    op_limit_s: float
    # a small input whose operation touches the same code, run once in set-up
    tiny: Callable[[Path], Any]


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Independent stream per (seed, workload)."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def rotate(rng: np.random.Generator, a, b, x0):
    """The same problem in random orthonormal state coordinates ``x' = Q x``.

    The transcription's rows turn by ``Q``, which changes no optimal control
    and no solver iterate, so the work of a problem does not depend on ``Q``.
    """
    q, r = np.linalg.qr(rng.standard_normal((len(x0), len(x0))))
    q = q * np.sign(np.diag(r))
    return q @ a @ q.T, q @ b, q @ x0


def _fmt_row(values) -> str:
    return " ".join(repr(float(v)) for v in np.ravel(values))


def _fmt_matrix(mat) -> str:
    return "; ".join(_fmt_row(row) for row in np.atleast_2d(mat))


# ---------------------------------------------------------------------------
# handsoff_l1: CLI solve + verify of the fourth-order chain, L1 mode


@dataclass(frozen=True)
class L1Input:
    a: np.ndarray
    b: np.ndarray
    x0: np.ndarray
    n_steps: int
    path: str


def l1_design(pool: int) -> list[np.ndarray]:
    """The x0 of the chain problems, within +-20% of [1,1,1,1].

    Drawn once from ``DESIGN_SEED``; entry 5 (N = 2000) is the x0 on which the
    seed release of the solver stops at ``max_iter`` 1.2e-6 from the optimum.
    """
    rng = np.random.default_rng(DESIGN_SEED)
    design = [1.0 + 0.2 * (2.0 * rng.random(4) - 1.0) for _ in range(pool)]
    if pool > 5:
        design[5] = np.array([1.04, 1.0914, 0.8752, 0.8221])
    return design


def l1_inputs(seed: int, workdir: Path, pool: int = 7) -> list[L1Input]:
    """The chain problems of ``l1_design`` in rotated state coordinates.

    N alternates 1000/2000.  The seed draws one orthogonal change of state
    coordinates per problem, so every number in the problem files depends on
    the seed while the work is the same for every seed.
    """
    rng = rng_for(seed, "handsoff_l1")
    problems = workdir / "problems"
    problems.mkdir(parents=True, exist_ok=True)
    inputs = []
    for i, x0 in enumerate(l1_design(pool)):
        a, b, x0 = rotate(rng, CHAIN_A, CHAIN_B, x0)
        n_steps = L1_GRIDS[i % 2]
        path = problems / f"chain_{i:03d}.txt"
        path.write_text(
            "\n".join(
                [
                    "n = 4",
                    "m = 1",
                    f"A = {_fmt_matrix(a)}",
                    f"B = {_fmt_matrix(b)}",
                    f"x0 = {_fmt_row(x0)}",
                    f"T = {L1_HORIZON!r}",
                    f"N = {n_steps}",
                    "lambda = 1",
                    "mode = L1",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        inputs.append(L1Input(a=a, b=b, x0=x0, n_steps=n_steps, path=str(path)))
    return inputs


def l1_tiny(workdir: Path) -> L1Input:
    inp = l1_inputs(0, workdir / "tiny", pool=1)[0]
    text = Path(inp.path).read_text(encoding="utf-8").replace("N = 1000", "N = 100")
    Path(inp.path).write_text(text, encoding="utf-8")
    return L1Input(a=inp.a, b=inp.b, x0=inp.x0, n_steps=100, path=inp.path)


def l1_run(inp: L1Input, out: Path):
    rc_solve = handsoff.cli.main(["solve", inp.path, "--out", str(out)])
    rc_verify = handsoff.cli.main(["verify", inp.path, str(out / "trajectory.csv")])
    return rc_solve, rc_verify


def _read_report(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _read_controls(path: Path, m: int) -> np.ndarray:
    rows = path.read_text(encoding="utf-8").splitlines()[1:-1]
    return np.array([[float(c) for c in row.split(",")[1 : 1 + m]] for row in rows])


def l1_check(inp: L1Input, result, out: Path) -> oracle.Verdict:
    rc_solve, rc_verify = result
    # exit 2 is a solve that stopped early but still wrote its outputs
    if rc_solve not in (0, 2) or not (out / "report.txt").exists():
        return oracle.Verdict(
            False, math.nan, math.nan, f"solve exit {rc_solve} without its outputs"
        )
    report = _read_report(out / "report.txt")
    u = _read_controls(out / "trajectory.csv", 1)
    verdict = oracle.check_l1(
        inp.a, inp.b, inp.x0, L1_HORIZON, inp.n_steps, 1.0, float(report["J1"]), u
    )
    reasons = [verdict.reason] if verdict.reason else []
    if report["status"] != "converged":
        reasons.append(f"status {report['status']} after {report['iterations']} iterations")
    if rc_solve != 0:
        reasons.append(f"solve exit {rc_solve}")
    if rc_verify != 0:
        reasons.append(f"verify exit {rc_verify}")
    return oracle.Verdict(not reasons, verdict.rel_error, verdict.eq_residual, "; ".join(reasons))


# ---------------------------------------------------------------------------
# tradeoff_long: r-sweep plus the minimum-energy end at N = 8000


@dataclass(frozen=True)
class SweepInput:
    kind: str
    problem: handsoff.ControlProblem


def _stable_two_input(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Three states, two inputs, eigenvalues in the open left half plane."""
    w = rng.uniform(0.5, 3.0)
    sigma = rng.uniform(0.1, 1.0)
    core = np.array(
        [[-sigma, w, 0.0], [-w, -sigma, 0.0], [0.0, 0.0, -rng.uniform(0.2, 2.0)]]
    )
    s = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    return s @ core @ np.linalg.inv(s), rng.standard_normal((3, 2))


def sweep_design() -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray, float]]:
    """``(kind, A, B, x0, T)``: the chain and stable two-input plants in turn.

    Drawn once from ``DESIGN_SEED``: the chain's x0 within +-20% of
    [1,1,1,1], the two-input plants' x0 a random direction of norm 0.5..2.
    T is ``SWEEP_T_FACTOR`` times the oracle's minimum time for that plant
    and x0, ``SWEEP_MIN_TIMES``.
    """
    rng = np.random.default_rng(DESIGN_SEED + 1)
    design = []
    for i, min_time in enumerate(SWEEP_MIN_TIMES):
        if i % 2 == 0:
            kind, a, b = "chain", CHAIN_A, CHAIN_B
            x0 = 1.0 + 0.2 * (2.0 * rng.random(4) - 1.0)
        else:
            kind = "two_input"
            a, b = _stable_two_input(rng)
            d = rng.standard_normal(3)
            x0 = d / np.linalg.norm(d) * rng.uniform(0.5, 2.0)
        design.append((kind, a, b, x0, SWEEP_T_FACTOR * min_time))
    return design


def sweep_inputs(seed: int, workdir: Path) -> list[SweepInput]:
    """The problems of ``sweep_design``, each in seeded rotated state coordinates."""
    rng = rng_for(seed, "tradeoff_long")
    inputs = []
    for kind, a, b, x0, horizon in sweep_design():
        a, b, x0 = rotate(rng, a, b, x0)
        problem = handsoff.ControlProblem(
            plant=handsoff.LtiPlant(a=a, b=b), x0=x0, T=horizon, N=SWEEP_N, lam=1.0
        )
        inputs.append(SweepInput(kind=kind, problem=problem))
    return inputs


def sweep_tiny(workdir: Path) -> SweepInput:
    problem = handsoff.ControlProblem(
        plant=handsoff.LtiPlant(a=CHAIN_A, b=CHAIN_B), x0=np.ones(4), T=10.0, N=200
    )
    return SweepInput(kind="chain", problem=problem)


def sweep_run(inp: SweepInput, out: Path):
    problem = inp.problem
    points = handsoff.analysis.sweep_tradeoff(problem, SWEEP_R)
    energy = handsoff.plant.min_energy_closed_form(
        problem.plant, problem.x0, problem.T, problem.N
    )
    states = handsoff.plant.simulate(problem.plant, problem.x0, energy)
    return points, energy, states


def sweep_check(inp: SweepInput, result, out: Path) -> oracle.Verdict:
    points, energy, _ = result
    pr = inp.problem
    args = (pr.plant.a, pr.plant.b, pr.x0, pr.T, pr.N)
    sweep = oracle.check_sweep(
        *args, 1.0, [(p.r, p.l0_seconds, p.derivative_supnorm, p.status) for p in points]
    )
    end = oracle.check_energy(*args, energy.u)
    reasons = [v.reason for v in (sweep, end) if v.reason]
    return oracle.Verdict(
        not reasons,
        max(sweep.rel_error, end.rel_error),
        end.eq_residual,
        "; ".join(reasons),
    )


# ---------------------------------------------------------------------------
# mintime_batch: minimum_time on a seeded batch of small plants


@dataclass(frozen=True)
class MinTimeInput:
    kind: str
    plant: handsoff.LtiPlant
    x0: np.ndarray
    # |v' x0| / (|B' v|_1 / mu) for the unstable mode; below 1 is null-controllable
    nc_ratio: float = 0.0


def _similar(rng, core: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = core.shape[0]
    s = np.eye(n) + 0.4 * rng.standard_normal((n, n))
    return s @ core @ np.linalg.inv(s), np.linalg.inv(s)


def _spectrum(rng, n: int, kind: str) -> np.ndarray:
    """Block-diagonal real matrix; the first block carries the class."""
    blocks = []
    if kind == "marginal":
        w = rng.uniform(0.5, 3.0)
        blocks.append(np.array([[0.0, w], [-w, 0.0]]))
    elif kind == "unstable":
        blocks.append(np.array([[rng.uniform(0.2, 1.5)]]))
    while sum(len(blk) for blk in blocks) < n:
        left = n - sum(len(blk) for blk in blocks)
        sigma = rng.uniform(0.2, 2.0)
        if left >= 2 and rng.random() < 0.5:
            w = rng.uniform(0.5, 3.0)
            blocks.append(np.array([[-sigma, w], [-w, -sigma]]))
        else:
            blocks.append(np.array([[-sigma]]))
    core = np.zeros((n, n))
    k = 0
    for blk in blocks:
        core[k : k + len(blk), k : k + len(blk)] = blk
        k += len(blk)
    return core


def mintime_design(pool: int) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray, float]]:
    """``(kind, A, B, x0, nc_ratio)``: n in 2..4, m in 1..2, drawn from ``DESIGN_SEED``.

    Stable, marginal and unstable plants come in turn.  The unstable plants
    have one real unstable eigenvalue ``mu`` with left eigenvector ``v``; the
    origin is reachable from ``x0`` exactly when ``|v'x0| < |B'v|_1 / mu``.
    Their ``x0`` is a random direction whose ``v``-component is a stratified
    share ``nc_ratio`` of that bound: 65 strata below it and, last in each
    block of ``MINTIME_BLOCK`` plants, one between 1 and 1.1 times it.
    """
    rng = np.random.default_rng(DESIGN_SEED + 2)
    kinds = ("stable", "marginal", "unstable")
    inside = MINTIME_BLOCK // 3 - 1
    design = []
    strata: list[float] = []
    for i in range(pool):
        kind = kinds[i % 3]
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        core = _spectrum(rng, n, kind)
        a, s_inv = _similar(rng, core)
        b = rng.standard_normal((n, m))
        d = rng.standard_normal(n)
        x0 = d / np.linalg.norm(d) * rng.uniform(0.5, 2.0)
        ratio = 0.0
        if kind == "unstable":
            if not strata:
                strata = [(k + rng.random()) / inside for k in rng.permutation(inside)]
                strata.append(1.0 + 0.1 * rng.random())
            ratio = strata.pop(0)
            # left eigenvector of the unstable eigenvalue core[0, 0]
            v = s_inv[0]
            bound = float(np.abs(b.T @ v).sum()) / core[0, 0]
            x0 = x0 + (np.sign(v @ x0 or 1.0) * ratio * bound - v @ x0) / (v @ v) * v
        design.append((kind, a, b, x0, ratio))
    return design


def mintime_inputs(seed: int, workdir: Path, pool: int = MINTIME_BLOCK) -> list:
    """The plants of ``mintime_design``, each in seeded rotated state coordinates."""
    rng = rng_for(seed, "mintime_batch")
    inputs = []
    for kind, a, b, x0, ratio in mintime_design(pool):
        a, b, x0 = rotate(rng, a, b, x0)
        plant = handsoff.LtiPlant(a=a, b=b)
        inputs.append(MinTimeInput(kind=kind, plant=plant, x0=x0, nc_ratio=ratio))
    return inputs


def mintime_tiny(workdir: Path) -> MinTimeInput:
    plant = handsoff.LtiPlant(a=[[0.0, 1.0], [-1.0, -1.0]], b=[[0.0], [1.0]])
    return MinTimeInput(kind="stable", plant=plant, x0=np.array([1.0, 0.0]))


def mintime_run(inp: MinTimeInput, out: Path):
    return handsoff.solver.minimum_time(
        inp.plant, inp.x0, grid_density=MINTIME_DENSITY, tol_t=MINTIME_TOL
    )


def mintime_check(inp: MinTimeInput, t_star, out: Path) -> oracle.Verdict:
    return oracle.check_min_time(
        inp.plant.a, inp.plant.b, inp.x0, float(t_star), MINTIME_TOL, MINTIME_DENSITY
    )


# ---------------------------------------------------------------------------


WORKLOADS = {
    "handsoff_l1": Workload(
        make_inputs=l1_inputs,
        run=l1_run,
        check=l1_check,
        op_limit_s=60.0,
        tiny=l1_tiny,
    ),
    "tradeoff_long": Workload(
        make_inputs=sweep_inputs,
        run=sweep_run,
        check=sweep_check,
        op_limit_s=60.0,
        tiny=sweep_tiny,
    ),
    "mintime_batch": Workload(
        make_inputs=mintime_inputs,
        run=mintime_run,
        check=mintime_check,
        op_limit_s=1.0,
        tiny=mintime_tiny,
    ),
}
