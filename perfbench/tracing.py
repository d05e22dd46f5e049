"""Spans around the calls between handsoff's layers, for the traced run.

A span wraps the module attribute a caller looks a function up through (for
example ``handsoff.solver.transcribe``, which ``solve_problem`` calls), so the
program itself is unchanged: ``Tracer.install`` swaps the attributes for
timing wrappers and ``Tracer.remove`` puts the originals back.  Each span
records its name, start, end, parent span and operation id; spans stay in
memory until the run ends.  The layer of a span is the part of its name
before the first dot: ``cli``, ``solver``, ``plant``, ``analysis``, or
``bench`` for the benchmark's own root span around one operation.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  Several attributes can share a span name
# when they are the same function reached from different callers.
TARGETS = (
    ("handsoff.cli", "main", "cli.main"),
    ("handsoff.cli", "parse_problem_file", "cli.parse"),
    ("handsoff.cli", "write_trajectory_csv", "cli.csv_write"),
    ("handsoff.cli", "read_trajectory_csv", "cli.csv_read"),
    ("handsoff.cli", "_write_report", "cli.report"),
    ("handsoff.cli", "solve_problem", "solver.solve_problem"),
    ("handsoff.cli", "simulate", "plant.simulate"),
    ("handsoff.cli", "compute_metrics", "analysis.metrics"),
    ("handsoff.cli", "bangoffbang_score", "analysis.metrics"),
    ("handsoff.cli", "costate_consistency", "analysis.costate"),
    ("handsoff.solver", "transcribe", "solver.transcribe"),
    ("handsoff.solver", "solve", "solver.solve"),
    ("handsoff.solver", "minimum_time", "solver.minimum_time"),
    ("handsoff.solver", "lsq_linear", "solver.bvls"),
    ("handsoff.solver", "discretize", "plant.discretize"),
    ("handsoff.solver", "reachability_matrix", "plant.reachability"),
    ("handsoff.solver", "controllability_gramian", "plant.gramian"),
    ("handsoff.plant", "expm", "plant.expm"),
    ("handsoff.plant", "discretize", "plant.discretize"),
    ("handsoff.plant", "controllability_gramian", "plant.gramian"),
    ("handsoff.plant", "simulate", "plant.simulate"),
    ("handsoff.plant", "min_energy_closed_form", "plant.min_energy"),
    ("handsoff.analysis", "sweep_tradeoff", "analysis.sweep"),
    ("handsoff.analysis", "solve_problem", "solver.solve_problem"),
    ("handsoff.analysis", "derivative_supnorm", "analysis.metrics"),
    ("handsoff.analysis", "_union_support_seconds", "analysis.metrics"),
    ("handsoff.analysis", "expm", "plant.expm"),
    ("handsoff.analysis", "linprog", "analysis.lp"),
)


def _solve_info(args, kwargs, result):
    return (result.iterations, result.status == "converged")


def _lp_info(args, kwargs, result):
    return kwargs["A_ub"].shape[0]


# extra data a span keeps from its call
INFO = {"solver.solve": _solve_info, "analysis.lp": _lp_info}


class Tracer:
    """Collects spans; ``op`` is the id stamped on spans opened from now on."""

    def __init__(self) -> None:
        # [name, start, end, parent index, op id, info]
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    record[5] = info(args, kwargs, result)
                return result
            finally:
                self._close(record)

        return wrapper

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def dump(self, path) -> None:
        """Write the spans as CSV: name,start,end,parent,op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def summarize(spans: list[list], ops, scale: dict | None = None) -> dict:
    """Totals over the spans of the operations in ``ops``.

    Returns ``{"inclusive": {name: s}, "self": {layer: s}, "calls": {name: n},
    "iterations", "solves", "converged", "lp_rows"}``.  Self time is a span's
    duration minus the time its direct children cover.  ``scale`` maps an
    operation id to the factor its span times are multiplied by.
    """
    ops = set(ops)
    scale = scale or {}
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, op, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    iterations = solves = converged = lp_rows = 0
    for index, (name, start, end, parent, op, info) in enumerate(spans):
        if op not in ops:
            continue
        factor = scale.get(op, 1.0)
        duration = end - start
        inclusive[name] += factor * duration
        self_time[name.split(".", 1)[0]] += factor * (duration - child_time[index])
        calls[name] += 1
        if name == "solver.solve" and info is not None:
            iterations += info[0]
            solves += 1
            converged += info[1]
        elif name == "analysis.lp" and info is not None:
            lp_rows += info
    return {
        "inclusive": inclusive,
        "self": self_time,
        "calls": calls,
        "iterations": iterations,
        "solves": solves,
        "converged": converged,
        "lp_rows": lp_rows,
    }
