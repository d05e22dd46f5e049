"""Compare a commit's benchmark with the working tree's in alternating pairs.

Usage (from the repository root):

    python3 tools/paired_bench.py --commit REV --workload W --pairs K --seconds S

Clones ``REV`` into a temporary directory (``bench_record.check_out``) and
runs ``perfbench/run.py --workload W --seed SEED --seconds S --trace 0``
(``bench_record.run``) in
that checkout and in the working tree, ``K`` times each, as ``K`` pairs: the
commit runs first in the odd-numbered pairs and second in the others, so
that a drift in the machine's load falls on both sides alike.  Each run uses
its own checkout's benchmark and package code; the working tree is used as
it is, uncommitted changes included.

Prints one line per run, then, for each end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles over its runs, the
change of the working tree's median relative to the commit's, and the pairs
in which the working tree read better (in the metric's ``better``
direction; a tie counts for neither side), then each side's failed and
attempted operations.  Exits 1 if a run fails.  Runs write their records
under each checkout's ``.bench_build/`` and nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
from bench_record import ROOT, WORKLOADS, check_out, git, run  # noqa: E402

SIDES = ("commit", "working tree")


def summarize(commit: list[float], tree: list[float], better: str) -> dict:
    """Medians and quartiles of each side's values of one metric, the
    relative change of the medians, and the pairs the working tree won:
    ``commit[i]`` and ``tree[i]`` are pair ``i``, and ``better`` is "lower"
    or "higher"."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (t - c) > 0.0 for c, t in zip(commit, tree))
    q = {
        side: np.percentile(values, [25.0, 50.0, 75.0]).tolist()
        for side, values in zip(SIDES, (commit, tree))
    }
    return {
        "quartiles": q,
        "change": q["working tree"][1] / q["commit"][1] - 1.0 if q["commit"][1] else None,
        "won": won,
        "pairs": len(commit),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs (10)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="operation time per run, seconds (20)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (1)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    commit = git("rev-parse", "--verify", f"{args.commit}^{{commit}}")
    finals = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="paired_bench_") as tmp:
        checkout = Path(tmp) / "checkout"
        check_out(commit, checkout)
        checkouts = dict(zip(SIDES, (checkout, ROOT)))
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                final, _ = run(checkouts[side], args.workload, False, args.seed, args.seconds)
                finals[side].append(final)
                values = " ".join(
                    f"{name}={entry['value']:.6g}" for name, entry in final["metrics"].items()
                )
                print(f"pair {pair + 1} {side}: {values}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g}-s runs;"
          f" commit {commit[:12]} against the working tree")
    print(f"{'metric':12s} {'unit':5s} {'commit median [q1, q3]':>34s}"
          f" {'working tree median [q1, q3]':>34s} {'change':>8s} {'won':>7s}")
    for name, direction in better.items():
        unit = finals["commit"][0]["metrics"][name]["unit"]
        commit_values, tree_values = (
            [final["metrics"][name]["value"] for final in finals[side]] for side in SIDES
        )
        summary = summarize(commit_values, tree_values, direction)
        cells = []
        for side in SIDES:
            q1, median, q3 = summary["quartiles"][side]
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
        change = "n/a" if summary["change"] is None else f"{100.0 * summary['change']:+.1f}%"
        print(f"{name:12s} {unit:5s} {cells[0]:>34s} {cells[1]:>34s} {change:>8s}"
              f" {summary['won']:>3d}/{summary['pairs']:<3d}")
    for side in SIDES:
        failed = sum(final["failed"] for final in finals[side])
        attempted = sum(final["attempted"] for final in finals[side])
        correct = all(final["correct"] for final in finals[side])
        print(f"{side}: {failed} of {attempted} operations failed;"
              f" every answer certified: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
