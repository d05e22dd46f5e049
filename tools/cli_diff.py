"""Compare the command line outputs of the working tree with those of a commit.

Usage (from the repository root):

    python3 tools/cli_diff.py --commit REV

Runs ``solve``, ``sweep`` (the README's ``--r-list "0.001 0.01 0.1 1"``),
``mintime`` and ``verify`` (on the trajectory ``solve`` wrote) on every
problem file in the working tree's ``demos/problems/``, once with the
package of ``REV`` and once with the working tree's.  Both sides read the
same problem files under the same relative paths, with BLAS pinned to one
thread.  Prints every exit code, stdout or stderr line and written file line
that differs, and exits 1 if anything differs, 0 if every output is byte for
byte the same.  ``REV`` is cloned into a temporary directory
(``bench_record.check_out``); the working tree is used as it is, uncommitted
changes included.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import ROOT, check_out, git  # noqa: E402

R_LIST = "0.001 0.01 0.1 1"


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


def run_side(src: Path, workdir: Path, problems: list[str]) -> dict[str, bytes]:
    """Every output of one package, keyed by label: exit codes, streams, files."""
    shutil.copytree(ROOT / "demos" / "problems", workdir / "problems")
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    outputs = {}
    for label, argv in commands(problems):
        proc = subprocess.run(
            [sys.executable, "-m", "handsoff", *argv], cwd=workdir, env=env, capture_output=True
        )
        outputs[f"{label}: exit code"] = str(proc.returncode).encode()
        outputs[f"{label}: stdout"] = proc.stdout
        outputs[f"{label}: stderr"] = proc.stderr
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir)
        if path.is_file() and rel.parts[0] != "problems":
            outputs[f"file {rel.as_posix()}"] = path.read_bytes()
    return outputs


def differences(old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """Readable lines for every output that differs, with a unified line diff."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            lines.append(f"{key}: only at {'the commit' if key in old else 'the working tree'}")
        elif old[key] != new[key]:
            diff = difflib.unified_diff(
                old[key].decode(errors="replace").splitlines(),
                new[key].decode(errors="replace").splitlines(),
                "commit", "working tree", lineterm="", n=0,
            )
            lines.append(f"{key}:")
            lines.extend(f"  {line}" for line in diff)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True, help="the commit to compare against")
    args = parser.parse_args(argv)

    commit = git("rev-parse", "--verify", f"{args.commit}^{{commit}}")
    problems = sorted(p.name for p in (ROOT / "demos" / "problems").glob("*.txt"))
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        checkout = Path(tmp) / "checkout"
        check_out(commit, checkout)
        old = run_side(checkout / "src", Path(tmp) / "old", problems)
        new = run_side(ROOT / "src", Path(tmp) / "new", problems)
    found = differences(old, new)
    print(f"{len(old)} outputs at {commit[:12]}, {len(new)} in the working tree, "
          f"from {len(commands(problems))} calls on {', '.join(problems)}")
    for line in found:
        print(line)
    print("differences found" if found else "no differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
