"""Batch front-end: problem files in, trajectories, reports, and checks out.

A problem file is a flat key = value text format; ``#`` starts a comment.
Matrix values use semicolon-separated rows.  Keys ``n``, ``m``, ``A``, ``B``,
``x0``, ``T``, ``N``, ``mode`` are required; ``lambda`` and ``r`` are optional.
Unknown keys are rejected with the offending line number; the solver's
stopping rule is fixed and has no keys.

Subcommands: ``solve`` writes ``trajectory.csv`` and ``report.txt`` (status,
costs, residuals and the duality gap of the solve, then the metrics);
``sweep`` writes ``tradeoff.csv`` (``r,l0_seconds,derivative_supnorm,status,
iterations``); ``mintime`` prints the shortest feasible horizon, or exits 2
when none exists; ``verify`` re-checks a stored trajectory against its
problem file: the amplitude bound, the stored states, the terminal state,
the bang-off-bang structure in mode L1, and in every mode the duality gap
that certifies the control optimal (``analysis.costate_consistency``).
``--eps`` (``solve``, ``sweep``, ``verify``) must lie in (0, 0.5) and
``--tol`` (``mintime``, ``verify``) must be positive and finite; both are
checked before any file is read or written.
Exit codes: 0 success, 1 malformed input or an uncontrollable pair, 2 solve or
check failure.  All diagnostics go to standard error; data goes to files or
standard output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    DEFAULT_EPS,
    _check_eps,
    bangoffbang_score,
    compute_metrics,
    costate_consistency,
    l0_measure,
    ternary_transitions_ok,
)
from .plant import ControlProblem, ControlTrajectory, LtiPlant, MODES, simulate
from .solver import _TOL_DUAL, minimum_time, solve_problem

__all__ = [
    "ProblemFileError",
    "TrajectoryFormatError",
    "parse_problem_file",
    "read_trajectory_csv",
    "write_trajectory_csv",
    "main",
]

_REQUIRED_KEYS = ("n", "m", "A", "B", "x0", "T", "N", "mode")
_PROBLEM_KEYS = _REQUIRED_KEYS + ("lambda", "r")

# significant digits for serialized numbers; enough that re-parsing
# reproduces every metric to 1e-9
_FMT = ".15g"
# rows formatted per write of write_trajectory_csv
_CSV_BLOCK = 1024


class ProblemFileError(ValueError):
    """Malformed problem file; the message carries file and line."""


class TrajectoryFormatError(ValueError):
    """Malformed trajectory CSV; the message carries file context."""


def _fmt(value: float) -> str:
    return format(float(value), _FMT)


# ---------------------------------------------------------------------------
# problem files


def _parse_scalar(path: str, lineno: int, key: str, text: str, kind):
    try:
        value = kind(text)
    except ValueError as exc:
        raise ProblemFileError(
            f"{path}:{lineno}: key '{key}' needs a {kind.__name__}, got {text!r}"
        ) from exc
    return value

def _parse_matrix(path: str, lineno: int, key: str, text: str, shape) -> np.ndarray:
    rows = []
    for row_text in text.split(";"):
        try:
            rows.append([float(cell) for cell in row_text.split()])
        except ValueError as exc:
            raise ProblemFileError(
                f"{path}:{lineno}: key '{key}' has a non-numeric entry in "
                f"row {row_text.strip()!r}"
            ) from exc
    if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
        raise ProblemFileError(
            f"{path}:{lineno}: key '{key}' must be {shape[0]}x{shape[1]}, "
            f"got rows of lengths {[len(row) for row in rows]}"
        )
    return np.array(rows, dtype=float)


def parse_problem_file(path) -> ControlProblem:
    """Read a key = value problem file into a problem."""
    path = str(path)
    entries: dict[str, tuple[int, str]] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ProblemFileError(f"{path}: cannot read problem file: {exc}") from exc

    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ProblemFileError(
                f"{path}:{lineno}: expected 'key = value', got {text!r}"
            )
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PROBLEM_KEYS:
            raise ProblemFileError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise ProblemFileError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ProblemFileError(f"{path}:{lineno}: empty value for key {key!r}")
        entries[key] = (lineno, value)

    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ProblemFileError(f"{path}: missing required key {key!r}")

    def scalar(key, kind):
        lineno, text = entries[key]
        return _parse_scalar(path, lineno, key, text, kind)

    n = scalar("n", int)
    m = scalar("m", int)
    if n < 1 or m < 1:
        raise ProblemFileError(f"{path}: n and m must be positive integers")

    lineno_a, text_a = entries["A"]
    lineno_b, text_b = entries["B"]
    lineno_x0, text_x0 = entries["x0"]
    a = _parse_matrix(path, lineno_a, "A", text_a, (n, n))
    b = _parse_matrix(path, lineno_b, "B", text_b, (n, m))
    x0 = _parse_matrix(path, lineno_x0, "x0", text_x0, (1, n)).reshape(-1)

    mode_lineno, mode = entries["mode"]
    if mode not in MODES:
        raise ProblemFileError(
            f"{path}:{mode_lineno}: mode must be one of {sorted(MODES)}, got {mode!r}"
        )

    problem_kwargs = dict(
        plant=LtiPlant(a=a, b=b),
        x0=x0,
        T=scalar("T", float),
        N=scalar("N", int),
        mode=mode,
    )
    if "lambda" in entries:
        problem_kwargs["lam"] = scalar("lambda", float)
    if "r" in entries:
        problem_kwargs["r"] = scalar("r", float)

    try:
        return ControlProblem(**problem_kwargs)
    except ValueError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# trajectory CSV


def _csv_header(m: int, n: int) -> list[str]:
    """Column names of a trajectory CSV: t, u_1..u_m, x_1..x_n."""
    return ["t"] + [f"u_{i + 1}" for i in range(m)] + [f"x_{j + 1}" for j in range(n)]


def write_trajectory_csv(path, control: ControlTrajectory, states) -> None:
    """Serialize a solved trajectory: t, u_1..u_m, x_1..x_n; N+1 rows.

    Controls follow the zero-order-hold convention, one row per grid time;
    the final row has no control (blank cells) and carries the terminal
    state.
    """
    u = control.u
    x = np.asarray(states, dtype=float)
    n_steps, m = u.shape
    n = x.shape[1]
    # one %-template per row: "%.15g" formats a float exactly as _fmt does
    cell = "%" + _FMT
    row = ",".join([cell] * (1 + m + n)) + "\n"
    last = ",".join([cell] + [""] * m + [cell] * n) + "\n"
    t = np.arange(n_steps + 1) * control.h
    body = np.column_stack([t[:-1], u, x[:n_steps]])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_csv_header(m, n)) + "\n")
        # in blocks of rows, so that memory stays bounded on long grids
        for block in np.array_split(body, range(_CSV_BLOCK, n_steps, _CSV_BLOCK)):
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
        fh.write(last % (t[-1], *x[n_steps].tolist()))


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a trajectory CSV back into ``(t, u, x)`` arrays.

    Returns ``t`` of length N+1, ``u`` of shape (N, m), ``x`` of shape
    (N+1, n).  The channel counts come from the header names.
    """
    path = str(path)
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise TrajectoryFormatError(f"{path}: cannot read trajectory: {exc}") from exc
    if not lines:
        raise TrajectoryFormatError(f"{path}: empty trajectory file")

    header = lines[0].split(",")
    m = sum(1 for name in header if name.startswith("u_"))
    n = sum(1 for name in header if name.startswith("x_"))
    if m == 0 or n == 0 or header != _csv_header(m, n):
        raise TrajectoryFormatError(
            f"{path}: header must be t,u_1..u_m,x_1..x_n, got {lines[0]!r}"
        )

    # blank lines are skipped; a row is named by its line in the file
    numbers = [k for k, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(numbers) < 2:
        raise TrajectoryFormatError(f"{path}: needs at least two data rows")
    final = lines[numbers[-1] - 1].split(",")
    if any(c.strip() for c in final[1 : 1 + m]):
        raise TrajectoryFormatError(f"{path}: final row must leave the control blank")
    # the final row's blank controls parse as 0, and it keeps its cell count
    final[1 : 1 + m] = ["0"] * len(final[1 : 1 + m])
    rows = [lines[k - 1] for k in numbers[:-1]] + [",".join(final)]
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != 1 + m + n or not np.isfinite(data).all():
        raise _first_bad_row(path, zip(numbers, rows), 1 + m + n)
    return data[:, 0], data[:-1, 1 : 1 + m], data[:, 1 + m :]


def _first_bad_row(path: str, rows, width: int) -> TrajectoryFormatError:
    """The error that names the first of ``rows``, ``(file line, text)``
    pairs, to fail the parse."""
    for k, row in rows:
        cells = row.count(",") + 1
        if cells != width:
            return TrajectoryFormatError(f"{path}: row {k} has {cells} cells, expected {width}")
        try:
            values = np.loadtxt([row], delimiter=",", comments=None)
        except ValueError:
            return TrajectoryFormatError(f"{path}: row {k} has a non-numeric cell")
        if not np.isfinite(values).all():
            return TrajectoryFormatError(f"{path}: row {k} has a non-finite cell")
    return TrajectoryFormatError(f"{path}: the rows do not parse as a table")


# ---------------------------------------------------------------------------
# reports


def _write_report(path, problem: ControlProblem, report, states, epsilon) -> None:
    metrics = compute_metrics(report.u, epsilon=epsilon)
    j0 = l0_measure(report.u, epsilon, weights=None if problem.mode == "L2" else problem.lam)
    terminal = float(np.linalg.norm(states[-1]))
    switch_text = " ".join(_fmt(v) for v in metrics.switching_times)
    lines = [
        f"status = {report.status}",
        f"mode = {problem.mode}",
        f"iterations = {report.iterations}",
        f"J0_seconds = {_fmt(j0)}",
        f"J1 = {_fmt(report.j1)}",
        f"J2 = {_fmt(report.j2)}",
        f"primal_residual = {_fmt(report.primal_residual)}",
        f"dual_residual = {_fmt(report.dual_residual)}",
        f"eq_residual = {_fmt(report.eq_residual)}",
        f"duality_gap = {_fmt(report.duality_gap)}",
        f"terminal_state_norm = {_fmt(terminal)}",
        f"l0_seconds = {_fmt(metrics.l0_seconds)}",
        f"handsoff_fraction = {_fmt(metrics.handsoff_fraction)}",
        f"handsoff_percent = {_fmt(100.0 * metrics.handsoff_fraction)}",
        f"bangoffbang_score = {_fmt(metrics.bangoffbang_score)}",
        f"derivative_supnorm = {_fmt(metrics.derivative_supnorm)}",
        f"max_jump = {_fmt(metrics.max_jump)}",
        f"switching_times = {switch_text}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(args) -> int:
    problem = parse_problem_file(args.problem)
    if args.mode is not None:
        problem = replace(problem, mode=args.mode)
    report = solve_problem(problem)
    states = simulate(problem.plant, problem.x0, report.u).states
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", report.u, states)
    _write_report(out / "report.txt", problem, report, states, args.eps)
    if report.status != "converged":
        reason = {"infeasible_suspected": "no control with |u| <= 1 reaches the origin",
                  "stalled": "rounding holds a residual above its bound"}
        print(
            f"solve did not converge: status={report.status} after "
            f"{report.iterations} iterations ({reason.get(report.status, 'budget spent')})",
            file=sys.stderr,
        )
        return 2
    return 0


def _parse_r_list(text: str) -> np.ndarray:
    values = [cell for cell in text.replace(",", " ").split() if cell]
    return np.array([float(v) for v in values])


def _cmd_sweep(args) -> int:
    problem = parse_problem_file(args.problem)
    try:
        r_values = _parse_r_list(args.r_list)
    except ValueError:
        print(f"error: --r-list has a non-numeric entry: {args.r_list!r}",
              file=sys.stderr)
        return 1
    if r_values.size == 0:
        print("error: --r-list is empty", file=sys.stderr)
        return 1

    # looked up at call time, so that a hook on analysis.sweep_tradeoff sees it
    from .analysis import sweep_tradeoff

    points = sweep_tradeoff(problem, r_values, epsilon=args.eps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "tradeoff.csv", "w", encoding="utf-8") as fh:
        fh.write("r,l0_seconds,derivative_supnorm,status,iterations\n")
        for p in points:
            fh.write(
                f"{_fmt(p.r)},{_fmt(p.l0_seconds)},"
                f"{_fmt(p.derivative_supnorm)},{p.status},{p.iterations}\n"
            )
    converged = sum(1 for p in points if p.status == "converged")
    if converged == 0:
        print("no sweep point converged", file=sys.stderr)
        return 2
    if converged < len(points):
        print(
            f"{len(points) - converged} of {len(points)} sweep points failed",
            file=sys.stderr,
        )
    return 0


def _cmd_mintime(args) -> int:
    problem = parse_problem_file(args.problem)
    density = problem.N / problem.T
    try:
        t_star = minimum_time(
            problem.plant, problem.x0, grid_density=density, tol_t=args.tol
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"T_star = {_fmt(t_star)}")
    print(f"grid_density = {_fmt(density)}")
    return 0


def _cmd_verify(args) -> int:
    problem = parse_problem_file(args.problem)
    t, u, x = read_trajectory_csv(args.trajectory)

    plant = problem.plant
    if u.shape != (problem.N, plant.m) or x.shape[1] != plant.n:
        print(
            f"error: trajectory dimensions {u.shape[0]}x{u.shape[1]} controls, "
            f"{x.shape[1]} states do not match the problem "
            f"(N={problem.N}, m={plant.m}, n={plant.n})",
            file=sys.stderr,
        )
        return 1
    grid = np.arange(problem.N + 1) * problem.h
    if np.max(np.abs(t - grid)) > 1e-9 * max(1.0, problem.T):
        print("error: time column does not match the problem grid",
              file=sys.stderr)
        return 1

    failures = []
    control = ControlTrajectory(h=problem.h, u=u)

    if np.max(np.abs(u)) > 1.0 + 1e-6:
        failures.append(f"amplitude bound violated: max |u| = {np.max(np.abs(u)):.6g}")

    resim = simulate(plant, problem.x0, control).states
    dyn_err = float(np.max(np.abs(resim - x)))
    if dyn_err > 1e-6 * (1.0 + float(np.max(np.abs(x)))):
        failures.append(f"stored states disagree with the dynamics by {dyn_err:.3g}")

    terminal = float(np.linalg.norm(resim[-1]))
    tol_terminal = args.tol if args.tol is not None else 1e-4 * max(
        1.0, float(np.linalg.norm(problem.x0))
    )
    if terminal > tol_terminal:
        failures.append(
            f"terminal state norm {terminal:.3g} exceeds {tol_terminal:.3g}"
        )

    if problem.mode == "L1":
        score = bangoffbang_score(control, delta=args.eps)
        structured, reason = ternary_transitions_ok(control, args.eps)
        if score < 0.98 or not structured:
            detail = reason if reason else f"score = {score:.4f} < 0.98"
            failures.append(f"bang-off-bang structure check failed: {detail}")

    certified, gap = costate_consistency(problem, control)
    if not certified:
        failures.append(
            f"duality gap {gap:.3g} of the control's cost exceeds {_TOL_DUAL:.3g}: "
            "no costate certifies it optimal for its terminal response"
        )

    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if failures:
        return 2
    print(
        f"verified: {len(u)} samples, terminal norm {terminal:.3g}, "
        f"relative duality gap {gap:.3g} <= {_TOL_DUAL:.3g}"
    )
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handsoff",
        description="Sparse, mixed, and minimum-energy control of LTI plants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem file, write CSV and report")
    solve.add_argument("problem", help="path to the problem file")
    solve.add_argument("--mode", choices=sorted(MODES), default=None,
                       help="override the mode given in the problem file")
    solve.add_argument("--out", default=".", help="output directory")
    solve.add_argument("--eps", type=float, default=DEFAULT_EPS,
                       help="support/quantization threshold for the report")
    solve.set_defaults(func=_cmd_solve)

    sweep = sub.add_parser("sweep", help="sweep the quadratic weight, write tradeoff CSV")
    sweep.add_argument("problem", help="path to the problem file")
    sweep.add_argument("--r-list", required=True,
                       help="comma- or space-separated quadratic weights")
    sweep.add_argument("--out", default=".", help="output directory")
    sweep.add_argument("--eps", type=float, default=DEFAULT_EPS,
                       help="support threshold for l0_seconds")
    sweep.set_defaults(func=_cmd_sweep)

    mintime = sub.add_parser("mintime", help="print the shortest feasible horizon")
    mintime.add_argument("problem", help="path to the problem file")
    mintime.add_argument("--tol", type=float, default=0.01,
                         help="tolerance on the horizon, seconds: the printed horizon is "
                         "certified reachable and within this, or one ulp when that is "
                         "wider, of one certified unreachable")
    mintime.set_defaults(func=_cmd_mintime)

    verify = sub.add_parser("verify", help="re-check a stored trajectory")
    verify.add_argument("problem", help="path to the problem file")
    verify.add_argument("trajectory", help="path to a trajectory CSV")
    verify.add_argument("--eps", type=float, default=DEFAULT_EPS,
                        help="quantization threshold for the structure checks")
    verify.add_argument("--tol", type=float, default=None,
                        help="terminal-norm tolerance (default 1e-4 * max(1, |x0|))")
    verify.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if hasattr(args, "eps"):
            _check_eps(args.eps)
        if getattr(args, "tol", None) is not None and not 0.0 < args.tol < math.inf:
            raise ValueError(f"--tol must be positive and finite, got {args.tol}")
        return args.func(args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
