"""Record the benchmark of one change as ``BENCH_<pr>.json`` at the repository root.

Usage (from the repository root):

    python3 tools/bench_record.py --pr N
    python3 tools/bench_record.py --pr N --commit REV

For each workload of ``perfbench/run.py`` the benchmark runs twice, at seed
``SEED`` for ``SECONDS`` seconds: untraced for the end-to-end metrics and the
accuracy figures (gap to the oracle, terminal residual), and traced
(``--trace 1``) for the per-layer counters and times.  Every record is made
at these settings, so any two records are comparable.  The file holds, per
workload, those metrics, failed/attempted, whether every answer was
certified, and the host environment; a metric that is undefined for a
workload (say, a ratio over zero solves) is written as ``null``.

``source_sha256`` identifies the measured code: the hash of
``src/handsoff/*.py`` that ``perfbench/run.py`` reports, which stays the
same when a working tree is committed.  ``commit`` is the commit measured;
without ``--commit`` it is the working tree's ``HEAD`` and ``dirty`` says
whether the tree had uncommitted changes, so a record made before its change
is committed names only the change's parent.  With ``--commit`` that commit
is cloned into a temporary directory, which keeps its ``.git`` so that
``environment.git_commit`` is filled in, and measured with its own
benchmark code: that is how a record is backfilled for an older commit.
Timings are comparable only between records made on the same host (see
``environment``).
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("handsoff_l1", "tradeoff_long", "mintime_batch")
SEED = 1
SECONDS = 20.0


def git(*args: str) -> str:
    proc = subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    )
    return proc.stdout.strip()


def check_out(commit: str, dest: Path) -> None:
    """Clone the repository into ``dest`` with ``commit`` checked out (detached)."""
    subprocess.run(
        ["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(dest)],
        check=True, capture_output=True,
    )
    subprocess.run(
        ["git", "-c", "advice.detachedHead=false", "checkout", "--quiet", "--detach", commit],
        cwd=dest, check=True, capture_output=True,
    )


def finite_or_none(value):
    """``value`` with every NaN or infinite float replaced by None, for strict JSON."""
    if isinstance(value, dict):
        return {key: finite_or_none(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def run(checkout: Path, workload: str, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: its final JSON line and its full ``result.json``."""
    flag = str(int(trace))
    command = [
        sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", flag,
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"error: {' '.join(command[1:])} exited {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    record = checkout / ".bench_build" / "perfbench" / f"{workload}-seed{SEED}-trace{flag}"
    return final, json.loads((record / "result.json").read_text(encoding="utf-8"))


def record_workload(checkout: Path, workload: str) -> dict:
    final, plain = run(checkout, workload, trace=False)
    traced_final, traced = run(checkout, workload, trace=True)
    units = {name: entry["unit"] for name, entry in final["metrics"].items()}
    return {
        "correct": final["correct"] and traced_final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "end_to_end": {
            name: {"value": value, "unit": units.get(name, "1")}
            for name, value in plain["end_to_end"].items()
        },
        "per_layer": traced["per_layer"],
        "traced_run": {
            "attempted": traced_final["attempted"],
            "failed": traced_final["failed"],
            "correct": traced_final["correct"],
        },
        "environment": plain["environment"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--commit", help="measure this commit instead of the working tree")
    args = parser.parse_args(argv)

    out = ROOT / f"BENCH_{args.pr}.json"
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        if args.commit:
            commit, dirty = git("rev-parse", "--verify", f"{args.commit}^{{commit}}"), False
            checkout = Path(tmp) / "checkout"
            check_out(commit, checkout)
        else:
            commit, dirty = git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
            checkout = ROOT
        workloads = {}
        for workload in WORKLOADS:
            print(f"{workload} ...", file=sys.stderr, flush=True)
            workloads[workload] = record_workload(checkout, workload)
    sources = {entry["environment"]["source_sha256"] for entry in workloads.values()}
    if len(sources) != 1:
        raise SystemExit(f"error: the workloads measured different sources {sorted(sources)}")
    bench = {
        "pr": args.pr,
        "source_sha256": sources.pop(),
        "commit": commit,
        "dirty": dirty,
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": workloads,
    }
    text = json.dumps(finite_or_none(bench), indent=1, sort_keys=True, allow_nan=False)
    out.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
