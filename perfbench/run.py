"""Oracle-checked benchmark for handsoff.

Usage (from the repository root):

    python3 perfbench/run.py --workload handsoff_l1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One run sets up the workload several times in fresh processes (for
``setup_s``), sets it up once more in this process, then runs whole passes
over the workload's problems in a closed loop until ``--seconds`` of
operation time have been measured.  Operation times are reported at the
reference speed of ``hostspeed.py``, which discounts the shared machine's
changing load; set-up time is wall time.  Every
operation's output is checked against ``oracle.py`` outside its timing.  With
``--trace 1`` the layer spans of ``tracing.py`` are installed for the loop and
the per-layer metrics are printed instead of the end-to-end ones; a fresh
process then repeats one traced pass to check that the layer counters repeat.

Human-readable lines go to standard output first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` is
false when the oracle could not certify an answer or when the layer counters
of one seed did not repeat; an operation whose output the oracle rejects is
counted in ``failed``.  A full record (environment, every operation, spans)
is written under ``.bench_build/perfbench/``.  Workloads and metrics are
described in ``README.md``.
"""

from __future__ import annotations

import os

# fixed before numpy loads, so every run uses the same BLAS thread count
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
# a guard for the shared machine: an operation that needs more fails instead
ADDRESS_SPACE_LIMIT = 4 << 30

WORKLOAD_NAMES = ("handsoff_l1", "tradeoff_long", "mintime_batch")

# name -> unit of the metrics in the final JSON line of an untraced run.  The
# accuracy metrics below can be exactly 0 or constant, which that line's
# relative bounds cannot hold, so they are printed and recorded and reach the
# line only through ``failed`` and ``attempted``.
END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
ACCURACY = {
    "failed_share": "1",
    "max_rel_error": "1",
    "max_eq_residual": "1",
}
# per-layer metrics in the final JSON line of a traced run: the counters, and
# the times of layers every workload reaches
PER_LAYER_JSON = {
    "solver.iterations": "count",
    "solver.transcribe_calls": "count",
    "solver.bvls_calls": "count",
    "plant.expm_calls": "count",
    "plant.discretize_calls": "count",
    "analysis.lp_rows": "count",
    "solver.self_s": "s",
    "plant.self_s": "s",
    "plant.discretize_s": "s",
    "plant.reachability_s": "s",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
}

class OpTimeout(Exception):
    """An operation ran past its workload's limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def workload_why(name: str) -> str:
    """The workload's reason to exist, as ``BENCHMARK.json`` records it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(w["why"] for w in spec["workloads"] if w["name"] == name)


def import_program():
    """Import handsoff from this checkout's ``src``; exit 1 if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import handsoff
    except ImportError as exc:
        raise SystemExit(f"error: cannot import handsoff from {SRC}: {exc}")
    if Path(handsoff.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: handsoff was imported from {handsoff.__file__}, not {SRC}")
    return handsoff


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "handsoff").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up


@contextlib.contextmanager
def quiet(sink: io.StringIO):
    """Capture the program's printing; keep what it wrote for failure reasons."""
    sink.seek(0)
    sink.truncate()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


def set_up(name: str, seed: int, workdir: Path):
    """Import, generate the inputs and warm up; returns (workload, inputs, times)."""
    t0 = time.perf_counter()
    import_program()
    t1 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(seed, workdir)
    t2 = time.perf_counter()
    with warnings.catch_warnings(), quiet(io.StringIO()):
        warnings.simplefilter("ignore")
        workload.run(workload.tiny(workdir), workdir / "tiny_out")
    t3 = time.perf_counter()
    times = {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2}
    return workload, inputs, times


def setup_probe(name: str, seed: int, workdir: Path) -> int:
    _, _, times = set_up(name, seed, workdir)
    print(json.dumps(times))
    return 0


def count_probe(name: str, seed: int, workdir: Path) -> int:
    """One traced pass after a fresh set-up; prints its per-problem counters."""
    import tracing

    workload, inputs, _ = set_up(name, seed, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = run_loop(workload, inputs, workdir, 0.0, tracer, check=False)
    finally:
        tracer.remove()
    print(json.dumps(problem_counts(tracer, records)))
    return 0


def _probe(kind: str, name: str, seed: int, workdir: Path) -> tuple[float, str]:
    """Run this script with a hidden probe flag in a fresh process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), kind,
        "--workload", name, "--seed", str(seed), "--workdir", str(workdir),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    wall = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {kind} failed:\n{proc.stderr}")
    return wall, proc.stdout.strip().splitlines()[-1]


def measure_setup(name: str, seed: int, base: Path) -> dict:
    """Median wall time of fresh processes that set the workload up.

    Not scaled by ``hostspeed``: set-up is mostly loading modules, which the
    machine's load slows unlike the kernel's arithmetic.
    """
    walls, parts = [], []
    for i in range(SETUP_REPEATS):
        wall, line = _probe("--setup-probe", name, seed, base / f"setup{i}")
        walls.append(wall)
        parts.append(json.loads(line))
    return {
        "setup_s": statistics.median(walls),
        "setup.import_s": statistics.median(p["import_s"] for p in parts),
        "setup.inputs_s": statistics.median(p["inputs_s"] for p in parts),
        "setup.warmup_s": statistics.median(p["warmup_s"] for p in parts),
    }


# ---------------------------------------------------------------------------
# operations


def run_op(workload, inp, out: Path, sink: io.StringIO, tracer=None, op_id=0):
    """One timed operation: ``(seconds, result, error)``."""
    if tracer is not None:
        tracer.op = op_id
    span = tracer.span("bench.op") if tracer is not None else contextlib.nullcontext()
    error = None
    result = None
    with quiet(sink), span:
        signal.setitimer(signal.ITIMER_REAL, workload.op_limit_s)
        t0 = time.perf_counter()
        try:
            result = workload.run(inp, out)
        except OpTimeout:
            error = f"timed out after {workload.op_limit_s:g} s"
        except Exception as exc:  # every failure of the program is counted
            error = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    return seconds, result, error


def run_loop(
    workload, inputs, workdir: Path, seconds: float, tracer=None, check: bool = True
) -> list[dict]:
    """Whole passes over ``inputs`` in a closed loop until ``seconds`` of operation time.

    At least one pass runs.  Ending on a whole pass keeps the mix of problems
    the same in every run, so that a run on a faster machine measures more of
    the same mix rather than a different one.  With ``check`` false the
    outputs are not compared with the oracle (the pass only repeats
    operations that a checked loop has checked).  Each record holds the
    operation's wall time, ``seconds``, and that time at the reference speed
    of ``hostspeed``, ``scaled``.
    """
    import hostspeed
    import oracle

    host = hostspeed.HostSpeed()

    sink = io.StringIO()
    records: list[dict] = []
    verdicts: dict[int, object] = {}
    measured = 0.0
    i = 0
    while measured < seconds or i % len(inputs) or i < len(inputs):
        slot = i % len(inputs)
        out = workdir / "out" / f"{slot:03d}"
        sample = host.due()
        dt, result, error = run_op(workload, inputs[slot], out, sink, tracer, i)
        measured += dt
        record = {"op": i, "input": slot, "seconds": dt, "host_sample": sample}
        if error is not None:
            tail = sink.getvalue().strip().splitlines()[-1:] or [""]
            record.update(
                ok=False, reason=error, program_said=tail[0], timed_out=error.startswith("timed out")
            )
        elif not check:
            record.update(ok=True)
        else:
            # outputs are deterministic, so one check per input suffices
            if slot not in verdicts:
                try:
                    verdicts[slot] = workload.check(inputs[slot], result, out)
                except oracle.OracleError as exc:
                    verdicts[slot] = exc
            verdict = verdicts[slot]
            if isinstance(verdict, oracle.OracleError):
                record.update(ok=False, reason=f"oracle: {verdict}", uncertified=True)
            else:
                record.update(
                    ok=verdict.ok,
                    reason=verdict.reason,
                    rel_error=verdict.rel_error,
                    eq_residual=verdict.eq_residual,
                )
        records.append(record)
        i += 1
    host.sample()
    for record in records:
        record["scaled"] = record["seconds"] * host.factor(record["host_sample"])
    return records


def percentile(values: list[float], level: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(level * len(ordered)) - 1]


def problem_times(records: list[dict], key: str = "scaled") -> list[float]:
    """Each problem's median time over its passes."""
    by_problem: dict[int, list[float]] = {}
    for r in records:
        by_problem.setdefault(r["input"], []).append(r[key])
    return [statistics.median(t) for t in by_problem.values()]


def end_to_end(records: list[dict], setup: dict) -> tuple[dict, dict]:
    """The end-to-end metrics of one run, and notes printed beside them.

    Times are at the reference speed of ``hostspeed``; the notes give the
    wall-clock figures.  Runs are whole passes over a fixed set of problems,
    so every problem weighs the same in the median over operations.  The
    tail is taken over problems, each timed by the median over its passes:
    a fixed level then picks the same problem whatever the number of passes.
    """
    times = [r["scaled"] for r in records]
    wall_times = [r["seconds"] for r in records]
    typical = problem_times(records)
    wall = problem_times(records, "seconds")
    failed = sum(1 for r in records if not r["ok"])
    rel = [r["rel_error"] for r in records if math.isfinite(r.get("rel_error", math.nan))]
    eq = [r["eq_residual"] for r in records if math.isfinite(r.get("eq_residual", math.nan))]
    metrics = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": percentile(typical, 0.9),
        "ops_per_s": len(times) / sum(times),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": failed / len(records),
        "max_rel_error": max(rel) if rel else math.nan,
        "max_eq_residual": max(eq) if eq else math.nan,
    }
    passes = len(times) / len(typical)
    notes = {
        "op_p50_s": f"median over {len(typical)} problems x {passes:g} passes; "
        f"wall {statistics.median(wall_times):.4g} s",
        "op_tail_s": f"p90 over {len(typical)} problems; wall {percentile(wall, 0.9):.4g} s",
        "ops_per_s": f"wall {len(wall_times) / sum(wall_times):.4g}/s",
        "setup_s": f"wall, median of {SETUP_REPEATS} processes",
    }
    return metrics, notes


def per_layer(tracer, records, setup, counts: dict, overhead: float) -> dict:
    """Per-layer metrics; times are seconds per operation at the reference speed."""
    import tracing

    ops = [r["op"] for r in records]
    n = len(ops)
    scale = {r["op"]: r["scaled"] / r["seconds"] for r in records}
    s = tracing.summarize(tracer.spans, ops, scale)
    inc, self_t = s["inclusive"], s["self"]
    solve_s = inc.get("solver.solve", 0.0)
    metrics = {
        "solver.iterations": counts["solver.iterations"],
        "solver.s_per_iter": solve_s / s["iterations"] if s["iterations"] else math.nan,
        "solver.solve_s": solve_s / n,
        "solver.converged_ratio": s["converged"] / s["solves"] if s["solves"] else math.nan,
        "solver.transcribe_calls": counts["solver.transcribe_calls"],
        "solver.transcribe_s": inc.get("solver.transcribe", 0.0) / n,
        "plant.expm_calls": counts["plant.expm_calls"],
        "plant.min_energy_s": inc.get("plant.min_energy", 0.0) / n,
        "plant.simulate_s": inc.get("plant.simulate", 0.0) / n,
        "analysis.costate_s": inc.get("analysis.costate", 0.0) / n,
        "analysis.lp_s": inc.get("analysis.lp", 0.0) / n,
        "analysis.lp_rows": counts["analysis.lp_rows"],
        "analysis.metrics_s": inc.get("analysis.metrics", 0.0) / n,
        "solver.minimum_time_s": inc.get("solver.minimum_time", 0.0) / n,
        "solver.bvls_s": inc.get("solver.bvls", 0.0) / n,
        "solver.bvls_calls": counts["solver.bvls_calls"],
        "plant.discretize_calls": counts["plant.discretize_calls"],
        "plant.discretize_s": inc.get("plant.discretize", 0.0) / n,
        "plant.reachability_s": inc.get("plant.reachability", 0.0) / n,
        "plant.gramian_s": inc.get("plant.gramian", 0.0) / n,
        "cli.parse_s": inc.get("cli.parse", 0.0) / n,
        "cli.csv_write_s": inc.get("cli.csv_write", 0.0) / n,
        "cli.csv_read_s": inc.get("cli.csv_read", 0.0) / n,
        "setup.import_s": setup["setup.import_s"],
        "setup.inputs_s": setup["setup.inputs_s"],
        "trace.overhead_s": overhead,
    }
    for layer in ("bench", "cli", "solver", "plant", "analysis"):
        metrics[f"{layer}.self_s"] = self_t.get(layer, 0.0) / n
    return metrics


def count_metrics(tracer, ops) -> dict:
    import tracing

    s = tracing.summarize(tracer.spans, ops)
    calls = s["calls"]
    return {
        "solver.iterations": s["iterations"],
        "solver.transcribe_calls": calls.get("solver.transcribe", 0),
        "solver.bvls_calls": calls.get("solver.bvls", 0),
        "plant.expm_calls": calls.get("plant.expm", 0),
        "plant.discretize_calls": calls.get("plant.discretize", 0),
        "analysis.lp_rows": s["lp_rows"],
    }


def problem_counts(tracer, records: list[dict]) -> dict[str, dict]:
    """Counters of each problem's first operation, keyed by the problem's index.

    An operation stopped by its time limit did an amount of work that depends
    on the machine's speed, so it has no entry.
    """
    counts = {}
    for r in records:
        key = str(r["input"])
        if key not in counts and not r.get("timed_out"):
            counts[key] = count_metrics(tracer, [r["op"]])
    return counts


def counter_mismatch(counts: dict[str, dict], repeat: dict[str, dict]) -> str:
    """Empty when every problem both runs completed has the same counters."""
    both = counts.keys() & repeat.keys()
    differ = sorted((k for k in both if counts[k] != repeat[k]), key=int)
    if not differ:
        return ""
    k = differ[0]
    return (
        f"layer counters did not repeat on {len(differ)} problems, "
        f"e.g. problem {k}: {counts[k]} vs {repeat[k]}"
    )


def sum_counts(counts: dict[str, dict]) -> dict:
    total = dict.fromkeys(count_metrics(_NoSpans, []), 0)
    for per_problem in counts.values():
        for name, value in per_problem.items():
            total[name] += value
    return total


class _NoSpans:
    spans: list = []


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    base = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    workdir = base / "work"
    setup = measure_setup(name, seed, base)
    workload, inputs, own_setup = set_up(name, seed, workdir)

    import tracing

    correct = True
    problems: list[str] = []
    counts, overhead, tracer = {}, math.nan, None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                records = run_loop(workload, inputs, workdir, seconds, tracer)
            finally:
                tracer.remove()
            # the tracing overhead: the loop's first pass against one untraced
            # pass, over the problems neither stopped at the time limit
            plain = run_loop(workload, inputs, workdir, 0.0, check=False)
            first = records[: len(inputs)]
            pairs = [
                (a["scaled"], b["scaled"])
                for a, b in zip(first, plain)
                if not (a.get("timed_out") or b.get("timed_out"))
            ]
            overhead = statistics.median(a for a, _ in pairs) - statistics.median(b for _, b in pairs)
            # self-check: a fresh process repeats the first pass, traced
            per_problem = problem_counts(tracer, first)
            _, line = _probe("--count-probe", name, seed, base / "repeat")
            mismatch = counter_mismatch(per_problem, json.loads(line))
            if mismatch:
                correct = False
                problems.append(mismatch)
            counts = sum_counts(per_problem)
        else:
            records = run_loop(workload, inputs, workdir, seconds)

    uncertified = sum(1 for r in records if r.get("uncertified"))
    if uncertified:
        correct = False
        problems.append(f"the oracle could not certify {uncertified} operations")
    metrics, notes = end_to_end(records, setup)
    result = {
        "workload": name,
        "why": workload_why(name),
        "environment": environment(seed),
        "seconds": seconds,
        "trace": trace,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "correct": correct,
        "problems": problems,
        "end_to_end": metrics,
        "notes": notes,
        "setup": setup,
        "own_setup": own_setup,
        "operations": records,
    }
    if trace:
        result["per_layer"] = per_layer(tracer, records, setup, counts, overhead)
        tracer.dump(base / "spans.csv")
    (base / "result.json").write_text(json.dumps(result, indent=1, default=str))
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def report(result: dict) -> None:
    env = result["environment"]
    print("env " + " ".join(f"{k}={str(v).replace(' ', '_')}" for k, v in env.items()))
    print(
        f"workload {result['workload']} ({result['why']}): "
        f"{result['attempted']} ops, {result['failed']} failed"
    )
    units = {**END_TO_END, **ACCURACY}
    for name, value in result["end_to_end"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:22s} {value:<14.6g} {units[name]:5s} {note}")
    for r in result["operations"]:
        if not r["ok"]:
            print(f"  failed op {r['op']} (input {r['input']}): {r['reason']}")
            break
    for layer_metric, value in result.get("per_layer", {}).items():
        unit = "count" if layer_metric.endswith(("_calls", "iterations", "_rows")) else (
            "1" if layer_metric.endswith("_ratio") else "s"
        )
        print(f"  {layer_metric:26s} {value:<14.6g} {unit}")
    for problem in result["problems"]:
        print(f"  SELF-CHECK FAILED: {problem}")


def final_line(results: list[dict], trace: bool) -> dict:
    wanted = PER_LAYER_JSON if trace else END_TO_END
    metrics = {}
    for result in results:
        source = result["per_layer"] if trace else result["end_to_end"]
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for name, unit in wanted.items():
            metrics[prefix + name] = {"value": source[name], "unit": unit}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--count-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, resource.RLIM_INFINITY))
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.workdir)
    if args.count_probe:
        return count_probe(args.workload, args.seed, args.workdir)

    import_program()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(result)
        results.append(result)
    print(json.dumps(final_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
