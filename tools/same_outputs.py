"""Check that the working tree gives the same outputs as a commit.

Usage (from the repository root):

    python3 tools/same_outputs.py --commit REV

Collects these outputs once with the package of ``REV`` and once with the
working tree's, each side in one subprocess with BLAS pinned to one thread:

- ``solve``, ``sweep`` (the README's ``--r-list "0.001 0.01 0.1 1"``),
  ``mintime`` and ``verify`` (on the trajectory ``solve`` wrote) on every
  problem file of ``demos/problems/``: exit codes, stdout, stderr and the
  files written;
- ``solve_problem``'s status, iterations, control and costate on the forty
  problems of each of the seeds 7, 8 and 9 of the battery B120 (``b120`` in
  ``tests/test_solver.py``) and on the 32 of ``status_battery()``;
- ``minimum_time``'s T* and each horizon it tried, in order, as the
  ``repr`` of its step and its sample count (its ``discretize`` and
  ``reachability_matrix`` calls), on the ``mintime_batch`` inputs of
  seeds 1-4 (``perfbench/workloads.py``);
- every ``sweep_tradeoff`` point of the ``tradeoff_long`` inputs of seed 1.

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


def side() -> None:
    """Every output of the ``handsoff`` on the path, pickled to ``OUTPUTS``.

    Runs in the side's working directory, which holds a copy of
    ``demos/problems/`` as ``problems/``.
    """
    import handsoff.analysis
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
    for path in sorted(here.rglob("*")):
        rel = path.relative_to(here)
        if path.is_file() and rel.parts[0] != "problems":
            outputs[f"file {rel.as_posix()}"] = path.read_bytes()

    def solved(problem):
        report = handsoff.solve_problem(problem)
        return {"status": report.status, "iterations": report.iterations,
                "control": lines(report.u.u), "costate": lines(report.costate)}

    drawn = [(f"B120 {seed}/{i}", p) for seed in B120_SEEDS
             for i, p in enumerate(test_solver.b120(seed))]
    drawn += [(f"status_battery {i}", p) for i, p in enumerate(test_solver.status_battery())]
    for label, problem in drawn:
        record(outputs, label, lambda: solved(problem))

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

    for i, inp in enumerate(workloads.sweep_inputs(SWEEP_SEED, here)):
        record(outputs, f"tradeoff_long {SWEEP_SEED}/{i}", lambda: {
            f"point {j}": repr(point) for j, point in
            enumerate(handsoff.analysis.sweep_tradeoff(inp.problem, workloads.SWEEP_R))
        })
    (here / OUTPUTS).write_bytes(pickle.dumps(outputs))


def run_side(src: Path, workdir: Path) -> dict[str, bytes]:
    """``side()`` in a subprocess with the package at ``src``."""
    shutil.copytree(ROOT / "demos" / "problems", workdir / "problems")
    path = [src, TOOLS, ROOT / "tests", ROOT / "perfbench"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)),
               PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run([sys.executable, "-c", "import same_outputs; same_outputs.side()"],
                   cwd=workdir, env=env, check=True)
    return pickle.loads((workdir / OUTPUTS).read_bytes())


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
        old = run_side(tmp / "checkout" / "src", tmp / "old")
        new = run_side(ROOT / "src", tmp / "new")
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
