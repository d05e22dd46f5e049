"""Time the package import and one CLI solve, a commit against the working tree.

Usage (from the repository root):

    python3 tools/cli_time.py --commit REV --runs K

Clones ``REV`` into a temporary directory (``bench_record.check_out``) and,
``K`` times per side, alternating the side that goes first, times the wall
clock of two fresh processes with the package of that checkout on their
path: ``python -c "import handsoff"`` and ``python -m handsoff solve
demos/problems/fourth_order_l1.txt --out DIR`` (the working tree's problem
file on both sides, each run writing into its own temporary directory).
Before the timed runs each command runs once per side untimed, so that the
timed ones read compiled bytecode.  Prints each command's median and
quartiles per side, the change of the working tree's median relative to
the commit's, and the runs the working tree won (``paired_bench.summarize``,
lower is better), and then, for each side, the ``scipy`` modules that a
fresh ``python -c "import handsoff.cli"`` leaves in ``sys.modules``: their
count and the packages they belong to (``scipy_packages``), which name what
the import time pays for.  Exits 1 if a run fails.  Writes nothing under
``perfbench/``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
from bench_record import ROOT, check_out, git  # noqa: E402
from paired_bench import SIDES, summarize  # noqa: E402

PROBLEM = ROOT / "demos" / "problems" / "fourth_order_l1.txt"
COMMANDS = {
    "import handsoff": ["-c", "import handsoff"],
    "CLI solve": ["-m", "handsoff", "solve", str(PROBLEM), "--out", "{out}"],
}
SCIPY_MODULES = [
    "-c",
    "import sys, handsoff.cli;"
    " print(*sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))",
]


def timed(checkout: Path, args: list[str]) -> tuple[float, str]:
    """Wall seconds and stdout of one fresh ``python *args`` with
    ``checkout``'s package, in a temporary directory that ``{out}`` in
    ``args`` names."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory(prefix="cli_time_") as out:
        command = [sys.executable] + [arg.format(out=out) for arg in args]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=out, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} exited {proc.returncode}\n{proc.stderr}")
    return seconds, proc.stdout


def scipy_packages(modules: list[str]) -> str:
    """``modules``, the names of loaded scipy modules, as their count and
    the packages they belong to (``scipy`` and its first-level
    subpackages), or "none"."""
    if not modules:
        return "none"
    packages = sorted({".".join(name.split(".")[:2]) for name in modules})
    return f"{len(modules)} modules, in {', '.join(packages)}"


def report(times: dict[str, dict[str, list[float]]]) -> list[str]:
    """One line per command: each side's median [q1, q3] in seconds, the
    change of the medians and the runs won; ``times[side][command]`` holds a
    side's seconds in run order."""
    lines = [f"{'command':16s} {'commit median [q1, q3]':>26s}"
             f" {'working tree median [q1, q3]':>30s} {'change':>8s} {'won':>7s}"]
    for name in COMMANDS:
        summary = summarize(times[SIDES[0]][name], times[SIDES[1]][name], "lower")
        cells = [
            "{1:.3f} [{0:.3f}, {2:.3f}]".format(*summary["quartiles"][side]) for side in SIDES
        ]
        lines.append(f"{name:16s} {cells[0]:>26s} {cells[1]:>30s}"
                     f" {100.0 * summary['change']:+7.1f}% {summary['won']:>3d}/{summary['pairs']:<3d}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True, help="the commit to compare against")
    parser.add_argument("--runs", type=int, default=9, help="timed runs per side (9)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    commit = git("rev-parse", "--verify", f"{args.commit}^{{commit}}")
    times = {side: {name: [] for name in COMMANDS} for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="cli_time_") as tmp:
        checkout = Path(tmp) / "checkout"
        check_out(commit, checkout)
        checkouts = dict(zip(SIDES, (checkout, ROOT)))
        for side in SIDES:
            for command in COMMANDS.values():
                timed(checkouts[side], command)
        for run in range(args.runs):
            for side in SIDES if run % 2 == 0 else SIDES[::-1]:
                for name, command in COMMANDS.items():
                    times[side][name].append(timed(checkouts[side], command)[0])
        loaded = {side: timed(checkouts[side], SCIPY_MODULES)[1].split() for side in SIDES}

    print(f"{args.runs} fresh processes per command and side;"
          f" commit {commit[:12]} against the working tree")
    print("\n".join(report(times)))
    for side in SIDES:
        print(f"scipy modules after import handsoff.cli, {side}: {scipy_packages(loaded[side])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
