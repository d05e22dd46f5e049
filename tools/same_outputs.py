"""Check that the working tree gives the same outputs as a commit.

Usage (from the repository root):

    python3 tools/same_outputs.py --commit REV

Collects these outputs once with the checkout of ``REV`` and once with the
working tree, each side's package in one subprocess and each of its demos
in one more, with BLAS pinned to one thread:

- ``solve``, ``sweep`` (the README's ``--r-list "0.001 0.01 0.1 1"``),
  ``mintime`` and ``verify`` (on the trajectory ``solve`` wrote, and again
  on a copy of it whose middle row has ``u_1 = 0.5``, so that ``verify``'s
  failure output is compared too) on every problem file of
  ``demos/problems/``: exit codes, stdout, stderr and the files written;
- ``solve_problem``'s status, iterations, control and costate, and the
  ``repr`` of its duality gap, dual residual, terminal residual, ``j1`` and
  ``j2``, on the forty problems of each of the seeds 7, 8 and 9 of the
  battery B120 (``b120`` in ``tests/test_solver.py``) and on the 32 of
  ``status_battery()``; for each converged L1 solve, also ``verify``'s exit
  code, stdout and stderr on the problem's file (``problem_text``) and the
  trajectory of the solve;
- ``minimum_time``'s T* and each horizon it tried, in order, as the
  ``repr`` of its step and its sample count (its ``discretize`` and
  ``reachability_matrix`` calls), on the ``mintime_batch`` inputs of
  seeds 1-4 (``perfbench/workloads.py``);
- on the ``tradeoff_long`` inputs of seed 1, as ``workloads.sweep_run``
  makes them: every ``sweep_tradeoff`` point, every ``solver.solve`` call
  the sweep makes, in order (the map's column count, status, iterations,
  the ``repr`` of ``j1``, ``j2`` and the duality gap, and the sha256 of the
  bytes of its costate and of its control), the
  ``min_energy_closed_form`` control and the terminal state that
  ``simulate`` gives it;
- each of the side's own ``demos/*.py``, run with no arguments: exit code,
  stdout and stderr.

``simulate`` returns its grid states as an array, and as the ``states`` of
a ``StateTrajectory`` at older commits; both are read (``grid_states``).

An exception is an output too, named with its message.  Both sides draw
their inputs from the working tree's ``tests/test_solver.py`` and
``perfbench/workloads.py``, imported without writing bytecode.  Prints
every output that differs, with a unified line diff, and exits 1 if any
does, 0 if every output is byte for byte the same.  ``REV`` is cloned into
a temporary directory (``bench_record.check_out``); the working tree is
used as it is, uncommitted changes included.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
from bench_record import ROOT, check_out, git  # noqa: E402

R_LIST = "0.001 0.01 0.1 1"
B120_SEEDS = (7, 8, 9)
MINTIME_SEEDS = (1, 2, 3, 4)
SWEEP_SEED = 1
OUTPUTS = "outputs.pickle"
# the numbers of a solve's report besides its control and costate
REPORTED = ("duality_gap", "dual_residual", "eq_residual", "j1", "j2")


def commands(problems: list[str]) -> list[tuple[str, list[str]]]:
    """``(label, argv)`` of every CLI call, in order; paths are relative."""
    calls = []
    for name in problems:
        stem = Path(name).stem
        path = f"problems/{name}"
        calls += [
            (f"solve {stem}", ["solve", path, "--out", f"solve_{stem}"]),
            (f"sweep {stem}", ["sweep", path, "--r-list", R_LIST, "--out", f"sweep_{stem}"]),
            (f"mintime {stem}", ["mintime", path]),
            (f"verify {stem}", ["verify", path, f"solve_{stem}/trajectory.csv"]),
        ]
    return calls


def move_middle_sample(trajectory: Path, copy: Path) -> None:
    """Write ``trajectory`` to ``copy`` with the middle row's ``u_1`` set to 0.5."""
    rows = trajectory.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = rows[len(rows) // 2].split(",")
    cells[1] = "0.5"
    rows[len(rows) // 2] = ",".join(cells)
    copy.write_text("".join(rows), encoding="utf-8")


def record(outputs: dict[str, bytes], label: str, call) -> None:
    """Store each field of ``call()``'s dict as ``label: field``, or what it raised."""
    try:
        fields = call()
    except Exception as exc:  # an exception is an output to compare
        fields = {"raised": f"{type(exc).__name__}: {exc}"}
    for name, value in fields.items():
        outputs[f"{label}: {name}"] = value if isinstance(value, bytes) else str(value).encode()


def lines(values) -> str:
    """One exact ``repr`` per line, so that a diff names the changed entries."""
    return "\n".join(map(repr, values.ravel().tolist()))


def grid_states(simulated):
    """The state array of a ``simulate`` result: the array itself, or, at
    older commits, the ``states`` of the ``StateTrajectory`` it returned."""
    return getattr(simulated, "states", simulated)


def side() -> None:
    """Every output of the ``handsoff`` on the path, pickled to ``OUTPUTS``.

    Runs in the side's working directory, which holds a copy of
    ``demos/problems/`` as ``problems/``.
    """
    import handsoff.cli
    import handsoff.solver
    import test_solver
    import workloads

    here = Path.cwd()
    outputs: dict[str, bytes] = {}

    def cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = handsoff.cli.main(argv)
        return {"exit code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    problems = sorted(p.name for p in (here / "problems").glob("*.txt"))
    for label, argv in commands(problems):
        record(outputs, label, lambda: cli(argv))
    for name in problems:
        stem = Path(name).stem
        moved = f"solve_{stem}/moved_sample.csv"

        def verify_moved():
            move_middle_sample(here / f"solve_{stem}" / "trajectory.csv", here / moved)
            return cli(["verify", f"problems/{name}", moved])

        record(outputs, f"verify {stem}, one sample moved", verify_moved)
    for path in sorted(here.rglob("*")):
        rel = path.relative_to(here)
        if path.is_file() and rel.parts[0] != "problems":
            outputs[f"file {rel.as_posix()}"] = path.read_bytes()

    def solved(problem, reports):
        report = handsoff.solve_problem(problem)
        reports.append(report)
        return {"status": report.status, "iterations": report.iterations,
                "control": lines(report.u.u), "costate": lines(report.costate),
                **{name: repr(getattr(report, name)) for name in REPORTED}}

    def verified(problem, report):
        (here / "battery.txt").write_text(test_solver.problem_text(problem), encoding="utf-8")
        states = grid_states(handsoff.simulate(problem.plant, problem.x0, report.u))
        handsoff.cli.write_trajectory_csv(here / "battery.csv", report.u, states)
        return cli(["verify", "battery.txt", "battery.csv"])

    drawn = [(f"B120 {seed}/{i}", p) for seed in B120_SEEDS
             for i, p in enumerate(test_solver.b120(seed))]
    drawn += [(f"status_battery {i}", p) for i, p in enumerate(test_solver.status_battery())]
    for label, problem in drawn:
        reports = []
        record(outputs, label, lambda: solved(problem, reports))
        if problem.mode == "L1" and reports and reports[0].status == "converged":
            record(outputs, f"{label}, verify", lambda: verified(problem, reports[0]))

    # each horizon is its step (discretize) and its sample count (the map)
    horizons: list[str] = []
    discretize = handsoff.solver.discretize
    reachability_matrix = handsoff.solver.reachability_matrix

    def stepped(plant, h):
        horizons.append(repr(h))
        return discretize(plant, h)

    def mapped(ad, bd, n_steps):
        horizons[-1] += f" {n_steps}"
        return reachability_matrix(ad, bd, n_steps)

    handsoff.solver.discretize = stepped
    handsoff.solver.reachability_matrix = mapped
    for seed in MINTIME_SEEDS:
        for i, inp in enumerate(workloads.mintime_inputs(seed, here)):
            label = f"mintime_batch {seed}/{i}"
            del horizons[:]
            record(outputs, label, lambda: {"T*": repr(float(workloads.mintime_run(inp, here)))})
            outputs[f"{label}: horizons"] = "\n".join(horizons).encode()
    handsoff.solver.discretize = discretize
    handsoff.solver.reachability_matrix = reachability_matrix

    # each solve is its map's width and its outcome
    solves: list[str] = []
    solve = handsoff.solver.solve

    def solving(program, **kwargs):
        report = solve(program, **kwargs)
        solves.append(f"{program.phi.shape[1]} {report.status} {report.iterations} "
                      f"{report.j1!r} {report.j2!r} {report.duality_gap!r} "
                      f"{hashlib.sha256(report.costate.tobytes()).hexdigest()} "
                      f"{hashlib.sha256(report.u.u.tobytes()).hexdigest()}")
        return report

    def swept(inp):
        del solves[:]
        points, energy, states = workloads.sweep_run(inp, here)
        return {**{f"point {j}": repr(point) for j, point in enumerate(points)},
                "solves": "\n".join(solves),
                "energy control": lines(energy.u),
                "energy terminal state": lines(grid_states(states)[-1])}

    handsoff.solver.solve = solving
    for i, inp in enumerate(workloads.sweep_inputs(SWEEP_SEED, here)):
        record(outputs, f"tradeoff_long {SWEEP_SEED}/{i}", lambda: swept(inp))
    handsoff.solver.solve = solve
    (here / OUTPUTS).write_bytes(pickle.dumps(outputs))


def run_side(checkout: Path, workdir: Path) -> dict[str, bytes]:
    """``side()`` in a subprocess with the package of ``checkout``, then
    each of ``checkout``'s demos in a subprocess of its own."""
    shutil.copytree(ROOT / "demos" / "problems", workdir / "problems")
    path = [checkout / "src", TOOLS, ROOT / "tests", ROOT / "perfbench"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)),
               PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run([sys.executable, "-c", "import same_outputs; same_outputs.side()"],
                   cwd=workdir, env=env, check=True)
    outputs = pickle.loads((workdir / OUTPUTS).read_bytes())
    for script in sorted((checkout / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(script)], cwd=workdir, env=env,
                              capture_output=True)
        record(outputs, f"demo {script.name}", lambda: {
            "exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr})
    return outputs


def mintime_totals(outputs: dict[str, bytes], seed: int) -> str:
    keys = [key for key in outputs if key.startswith(f"mintime_batch {seed}/")]
    horizons = sum(len(outputs[key].splitlines()) for key in keys if key.endswith(": horizons"))
    refusals = sum(key.endswith(": raised") for key in keys)
    return f"{horizons} horizons, {refusals} refused"


def differences(old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """Readable lines for every output that differs, with a unified line diff."""
    found = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            found.append(f"{key}: only at {'the commit' if key in old else 'the working tree'}")
        elif old[key] != new[key]:
            diff = difflib.unified_diff(
                old[key].decode(errors="replace").splitlines(),
                new[key].decode(errors="replace").splitlines(),
                "commit", "working tree", lineterm="", n=0,
            )
            found.append(f"{key}:")
            found.extend(f"  {line}" for line in diff)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True, help="the commit to compare against")
    args = parser.parse_args(argv)

    commit = git("rev-parse", "--verify", f"{args.commit}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        check_out(commit, tmp / "checkout")
        old = run_side(tmp / "checkout", tmp / "old")
        new = run_side(ROOT, tmp / "new")
    print(f"{len(old)} outputs at {commit[:12]}, {len(new)} in the working tree")
    for seed in MINTIME_SEEDS:
        print(f"mintime_batch seed {seed}: {mintime_totals(old, seed)} at the commit, "
              f"{mintime_totals(new, seed)} in the working tree")
    found = differences(old, new)
    for line in found:
        print(line)
    print("differences found" if found else "no differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
