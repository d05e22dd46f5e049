"""Count the minor page faults of a benchmark workload's operations.

Usage (from the repository root):

    python3 tools/fault_count.py --workload W [--commit REV] [--seed S] [--passes K]

Runs the operations of ``perfbench/workloads.py``'s workload ``W`` in one
fresh process with BLAS pinned to one thread: its ``make_inputs`` at seed
``S`` (1), then whole passes of its ``run`` over the inputs in order, as the
benchmark's closed loop runs them, without the oracle's checks; 3 warm
passes, then ``K`` (5) measured ones.  An operation's count is the rise of
``getrusage(RUSAGE_SELF).ru_minflt`` across its ``run`` call, read in that
process.  Prints each input's median count over the measured passes (the
inputs whose median is 0 as their number), then the median over those
passes of their faults per operation (each pass's total over its
operations).  A minor fault is the kernel giving the process
a page it has not touched since it was mapped, about 2 us each on a 2-vCPU
VM; the benchmark's tracer counts none, so this is the evidence for a
change that keeps memory from going back to the system between operations.

With ``--commit`` the package and workloads of ``REV`` are measured, cloned
into a temporary directory (``bench_record.check_out``); without it, the
working tree's, uncommitted changes included.  An operation that raises
counts like any other (``mintime_batch`` refuses one input per pass), and
the measured operations that raised are counted.
Writes its operations' outputs under a temporary directory only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
from bench_record import ROOT, WORKLOADS, check_out, git  # noqa: E402

WARM_PASSES = 3
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def count(checkout: Path, workload: str, seed: int, passes: int) -> dict:
    """``{"faults", "raised"}``: each measured pass's per-operation fault
    counts, in input order, and the number of those operations that
    raised, from ``checkout``'s package and workloads in one fresh
    process."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", str(checkout),
        "--workload", workload, "--seed", str(seed), "--passes", str(passes),
    ]
    env = dict(os.environ, **BLAS_ENV)
    proc = subprocess.run(command, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(command[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child(checkout: Path, workload: str, seed: int, passes: int) -> None:
    """Run the passes in this process and print ``count``'s dict as one
    JSON line."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    spec = workloads.WORKLOADS[workload]
    counts, raised = [], 0
    with tempfile.TemporaryDirectory(prefix="fault_count_") as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inputs = spec.make_inputs(seed, Path(tmp))
        sink = io.StringIO()
        for pass_ in range(WARM_PASSES + passes):
            faults = []
            for slot, inp in enumerate(inputs):
                out = Path(tmp) / "out" / f"{slot:03d}"
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        spec.run(inp, out)
                    except Exception:  # a refused input is an operation too
                        raised += pass_ >= WARM_PASSES
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
                sink.seek(0)
                sink.truncate()
            counts.append(faults)
    print(json.dumps({"faults": counts[WARM_PASSES:], "raised": raised}))


def report(counts: list[list[int]]) -> list[str]:
    """The printed lines: each input's median over the passes ``counts``
    (one list of per-operation counts per pass), or, for the inputs whose
    median is 0, how many they are; then the median of each pass's faults
    per operation."""
    medians = [statistics.median(column) for column in zip(*counts)]
    lines = [f"input {slot:3d}: {median:g}" for slot, median in enumerate(medians) if median]
    lines.append(f"inputs with a median of 0: {medians.count(0)} of {len(medians)}")
    per_op = statistics.median(sum(faults) / len(faults) for faults in counts)
    lines.append(f"minor faults per operation: {per_op:.1f}"
                 f" (median of {len(counts)} passes after {WARM_PASSES} warm)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--commit", help="measure this commit instead of the working tree")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (1)")
    parser.add_argument("--passes", type=int, default=5, help="measured passes (5)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.child:
        child(Path(args.child), args.workload, args.seed, args.passes)
        return 0

    with tempfile.TemporaryDirectory(prefix="fault_count_") as tmp:
        if args.commit:
            label = git("rev-parse", "--verify", f"{args.commit}^{{commit}}")[:12]
            checkout = Path(tmp) / "checkout"
            check_out(label, checkout)
        else:
            label, checkout = "the working tree", ROOT
        counted = count(checkout, args.workload, args.seed, args.passes)
    operations = sum(map(len, counted["faults"]))
    print(f"{args.workload}, seed {args.seed}, {label}")
    print(f"operations measured: {operations}, of which raised: {counted['raised']}")
    print("\n".join(report(counted["faults"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
