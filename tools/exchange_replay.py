"""Time the exchange method on the calls of one benchmark pass, replayed at a
commit and in the working tree.

Usage (from the repository root):

    python3 tools/exchange_replay.py --workload W [--commit REV] [--seed S] [--repeats K]

Records every ``handsoff.solver._exchange`` call of one pass of
``perfbench/workloads.py``'s workload ``W``: in one fresh process with BLAS
pinned to one thread, the working tree's package runs the workload's
``make_inputs`` at seed ``S`` (1) and then its ``run`` on each input in
order, and the arguments of each call are kept.  The recorded calls are then
replayed in order, in one fresh process per replay and ``K`` (5) replays
per side: with ``--commit``, with the package of ``REV`` (cloned into a
temporary directory, ``bench_record.check_out``) and with the working
tree's, in alternating pairs (the commit first in the odd-numbered ones);
without it, with the working tree's alone.  A replay runs the calls once
untimed, then once more under ``time.perf_counter``.

Prints the number of calls and of loop passes (a call makes one pass more
than the steps it returns), each side's minimum and median time per replay,
and whether every returned field the two sides share is the same bit for
bit: the fields are compared by position, so a field one side returns and
the other does not is left out.  The fields compared are those of each
side's first replay.  Writes only under a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
from bench_record import ROOT, WORKLOADS, check_out, git  # noqa: E402

BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SIDES = ("commit", "working tree")


def child_run(*args: str) -> dict:
    """This script with ``args`` in a fresh process, BLAS on one thread; the
    JSON dict its last line of output holds."""
    command = [sys.executable, str(Path(__file__).resolve()), *args]
    proc = subprocess.run(command, env=dict(os.environ, **BLAS_ENV), capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(command[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload: str, seed: int, calls: Path) -> None:
    """Pickle the arguments of every ``_exchange`` call of one pass to
    ``calls``, with the working tree's package and workloads."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import handsoff.solver
    import workloads

    spec = workloads.WORKLOADS[workload]
    exchange, recorded = handsoff.solver._exchange, []

    def kept(*args, **kwargs):
        recorded.append((args, kwargs))
        return exchange(*args, **kwargs)

    with tempfile.TemporaryDirectory(prefix="exchange_replay_") as tmp, \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inputs = spec.make_inputs(seed, Path(tmp))
        handsoff.solver._exchange = kept
        sink = io.StringIO()
        for slot, inp in enumerate(inputs):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    spec.run(inp, Path(tmp) / "out" / f"{slot:03d}")
                except Exception:  # a refused input has made its calls too
                    pass
        handsoff.solver._exchange = exchange
    calls.write_bytes(pickle.dumps(recorded))
    print(json.dumps({"calls": len(recorded)}))


def digest(value) -> str:
    """The sha256 of ``value``'s exact contents: an array's shape, type and
    bytes in C order, a float's hex form, else its ``repr``."""
    import numpy as np

    if isinstance(value, np.ndarray):
        body = f"{value.dtype.str} {value.shape} ".encode() + np.ascontiguousarray(value).tobytes()
    elif isinstance(value, float):
        body = float(value).hex().encode()
    else:
        body = repr(value).encode()
    return hashlib.sha256(body).hexdigest()


def replay(checkout: Path, calls: Path) -> None:
    """Replay the recorded calls with ``checkout``'s package, untimed and
    then timed; print the time, the loop passes and each call's field
    digests as one JSON line."""
    sys.path.insert(0, str(checkout / "src"))
    import handsoff.solver

    recorded = pickle.loads(calls.read_bytes())
    exchange = handsoff.solver._exchange
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for args, kwargs in recorded:
            exchange(*args, **kwargs)
        results = []
        start = time.perf_counter()
        for args, kwargs in recorded:
            results.append(exchange(*args, **kwargs))
        seconds = time.perf_counter() - start
    print(json.dumps({
        "seconds": seconds,
        "passes": sum(result[4] + 1 for result in results),
        "fields": [[digest(field) for field in result] for result in results],
    }))


def mismatches(old: list[list[str]], new: list[list[str]]) -> list[tuple[int, int]]:
    """``(call, field)`` of every shared field whose digests differ."""
    return [
        (call, field)
        for call, (a, b) in enumerate(zip(old, new))
        for field, (x, y) in enumerate(zip(a, b))
        if x != y
    ]


def report(calls: int, passes: int, times: dict[str, list[float]], differ) -> list[str]:
    """The printed lines: the calls and loop passes, each side's minimum and
    median seconds per replay (``times``, by side), the change of the
    median where both sides ran, and the shared fields' verdict: ``differ``
    is None without a commit, else the ``(call, field)`` pairs that
    differ."""
    lines = [f"calls: {calls}, loop passes: {passes}"]
    for side, values in times.items():
        lines.append(f"{side}: min {1e3 * min(values):.1f} ms, median "
                     f"{1e3 * statistics.median(values):.1f} ms ({len(values)} replays)")
    if differ is None:
        lines.append("returned fields: no commit to compare with")
        return lines
    change = statistics.median(times["working tree"]) / statistics.median(times["commit"]) - 1.0
    lines.append(f"change of the median: {100.0 * change:+.1f}%")
    if differ:
        call, field = differ[0]
        lines.append(f"shared returned fields: {len(differ)} differ, in "
                     f"{len({c for c, _ in differ})} of {calls} calls "
                     f"(first: call {call}, field {field})")
    else:
        lines.append("shared returned fields: the same bit for bit")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--commit", help="replay with this commit's package too")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (1)")
    parser.add_argument("--repeats", type=int, default=5, help="replays per side (5)")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--replay", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.record:
        record(args.workload, args.seed, Path(args.record))
        return 0
    if args.replay:
        replay(Path(args.replay[0]), Path(args.replay[1]))
        return 0

    with tempfile.TemporaryDirectory(prefix="exchange_replay_") as tmp:
        calls = Path(tmp) / "calls.pickle"
        child_run("--workload", args.workload, "--seed", str(args.seed), "--record", str(calls))
        checkouts = {"working tree": ROOT}
        if args.commit:
            label = git("rev-parse", "--verify", f"{args.commit}^{{commit}}")[:12]
            checkouts = {"commit": Path(tmp) / "checkout", "working tree": ROOT}
            check_out(label, checkouts["commit"])
        runs = {side: [] for side in checkouts}
        for pair in range(args.repeats):
            order = list(checkouts) if pair % 2 == 0 else list(reversed(checkouts))
            for side in order:
                runs[side].append(child_run("--workload", args.workload, "--replay",
                                            str(checkouts[side]), str(calls)))
    tree = runs["working tree"][0]
    differ = mismatches(runs["commit"][0]["fields"], tree["fields"]) if args.commit else None
    print(f"{args.workload}, seed {args.seed}, "
          + (f"{label} against the working tree" if args.commit else "the working tree"))
    times = {side: [run["seconds"] for run in side_runs] for side, side_runs in runs.items()}
    print("\n".join(report(len(tree["fields"]), tree["passes"], times, differ)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
