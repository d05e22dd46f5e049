"""Compare the solver's outcomes on the seeded batteries with those of a commit.

Usage (from the repository root):

    python3 tools/b120_diff.py --commit REV

Runs ``solve_problem`` on the forty problems of each of the seeds 7, 8 and 9
of the battery B120 (``b120`` in ``tests/test_solver.py``) and on the 32 of
``status_battery()``, once with the package of ``REV`` and once with the
working tree's.  Both sides solve the same problems, drawn by the working
tree's ``tests/test_solver.py``, with BLAS pinned to one thread.  Prints
every case whose status, iteration count, or control or costate bytes
differ (an exception counts as the status, named with its message), and
exits 1 if any case differs, 0 if every one is the same.  ``REV`` is cloned
into a temporary directory (``bench_record.check_out``); the working tree is
used as it is, uncommitted changes included.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import ROOT, check_out, git  # noqa: E402

SEEDS = (7, 8, 9)


def cases() -> list[tuple[str, dict]]:
    """``(label, fields)`` of every problem, drawn by the working tree."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location(
        "test_solver", ROOT / "tests" / "test_solver.py"
    )
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    drawn = [(f"B120 {seed}/{i}", p) for seed in SEEDS for i, p in enumerate(module.b120(seed))]
    drawn += [(f"status_battery {i}", p) for i, p in enumerate(module.status_battery())]
    return [
        (label, dict(a=p.plant.a, b=p.plant.b, x0=p.x0, T=p.T, N=p.N, lam=p.lam, r=p.r,
                     mode=p.mode))
        for label, p in drawn
    ]


def solve_side(cases_path: Path, out_path: Path) -> None:
    """Solve every case with the ``handsoff`` on the path; pickle the outcomes."""
    from handsoff import ControlProblem, LtiPlant, solve_problem

    outcomes = {}
    for label, f in pickle.loads(cases_path.read_bytes()):
        problem = ControlProblem(
            plant=LtiPlant(a=f["a"], b=f["b"]), x0=f["x0"], T=f["T"], N=f["N"],
            lam=f["lam"], r=f["r"], mode=f["mode"],
        )
        try:
            report = solve_problem(problem)
        except Exception as exc:  # an exception is an outcome to compare
            outcomes[label] = (f"raised {type(exc).__name__}: {exc}", None, b"", b"")
            continue
        outcomes[label] = (
            report.status, report.iterations, report.u.u.tobytes(), report.costate.tobytes()
        )
    out_path.write_bytes(pickle.dumps(outcomes))


def run_side(src: Path, cases_path: Path, out_path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--side", str(cases_path),
         str(out_path)],
        env=env, check=True,
    )
    return pickle.loads(out_path.read_bytes())


def differences(old: dict, new: dict) -> list[str]:
    """One line per case whose status, iterations, control or costate differ."""
    lines = []
    for label in old:
        parts = []
        for name, before, after in zip(("status", "iterations"), old[label], new[label]):
            if before != after:
                parts.append(f"{name} {before} -> {after}")
        for name, before, after in zip(("control", "costate"), old[label][2:], new[label][2:]):
            if before != after:
                parts.append(f"{name} bytes differ")
        if parts:
            lines.append(f"{label}: {'; '.join(parts)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", help="the commit to compare against")
    # one side's solves, run by this script in a subprocess
    parser.add_argument("--side", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        solve_side(*args.side)
        return 0
    if not args.commit:
        parser.error("--commit is required")

    commit = git("rev-parse", "--verify", f"{args.commit}^{{commit}}")
    drawn = cases()
    with tempfile.TemporaryDirectory(prefix="b120_diff_") as tmp:
        tmp = Path(tmp)
        cases_path = tmp / "cases.pickle"
        cases_path.write_bytes(pickle.dumps(drawn))
        check_out(commit, tmp / "checkout")
        old = run_side(tmp / "checkout" / "src", cases_path, tmp / "old.pickle")
        new = run_side(ROOT / "src", cases_path, tmp / "new.pickle")
    found = differences(old, new)
    print(f"{len(drawn)} cases (B120 seeds {', '.join(map(str, SEEDS))}, status_battery), "
          f"{commit[:12]} against the working tree")
    for line in found:
        print(line)
    print(f"{len(found)} cases differ" if found else "no differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
