"""Tests of the benchmark itself: seeded inputs, metric names, oracle verdicts.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import handsoff  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _flatten(value):
    """Comparable plain data for a generated input."""
    if is_dataclass(value):
        return {f.name: _flatten(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _inputs(name: str, seed: int, workdir: Path):
    inputs = workloads.WORKLOADS[name].make_inputs(seed, workdir)
    flat = [_flatten(inp) for inp in inputs]
    for entry, inp in zip(flat, inputs):
        path = entry.pop("path", None)
        if path is not None:
            entry["text"] = Path(path).read_text(encoding="utf-8")
    return flat


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_identical_inputs_and_another_seed_does_not(name, tmp_path):
    first = _inputs(name, 11, tmp_path / "a")
    again = _inputs(name, 11, tmp_path / "b")
    other = _inputs(name, 12, tmp_path / "c")
    assert first == again
    assert first != other


def test_every_metric_name_is_well_formed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(run.END_TO_END) + list(run.ACCURACY) + list(run.PER_LAYER_JSON)
    layer = run.per_layer(
        _EmptyTracer(),
        [{"op": 0, "seconds": 1.0, "scaled": 1.0}],
        {"setup.import_s": 0.5, "setup.inputs_s": 0.1},
        run.count_metrics(_EmptyTracer(), []),
        0.0,
    )
    names += list(layer)
    assert all(NAME.fullmatch(name) for name in names), names
    assert set(run.PER_LAYER_JSON) <= set(layer)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_JSON)
    assert tuple(names[: len(run.WORKLOAD_NAMES)]) == run.WORKLOAD_NAMES
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


class _EmptyTracer:
    spans: list = []


def test_oracle_accepts_a_solved_control_and_flags_it_scaled_by_0_9():
    plant = handsoff.LtiPlant(a=workloads.CHAIN_A, b=workloads.CHAIN_B)
    x0 = np.ones(4)
    problem = handsoff.ControlProblem(plant=plant, x0=x0, T=10.0, N=500, lam=1.0)
    report = handsoff.solve_problem(problem)
    args = (workloads.CHAIN_A, workloads.CHAIN_B, x0, 10.0, 500, 1.0)
    good = oracle.check_l1(*args, report.j1, report.u.u)
    assert good.ok, good.reason
    scaled = oracle.check_l1(*args, 0.9 * report.j1, 0.9 * report.u.u)
    assert not scaled.ok
    assert scaled.rel_error > 0.05


def test_oracle_accepts_t_star_and_flags_it_shortened_by_two_tolerances():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    x0 = np.array([1.0, 0.0])
    tol, density = 0.01, 100.0
    t_star = handsoff.minimum_time(handsoff.LtiPlant(a=a, b=b), x0, density, tol)
    good = oracle.check_min_time(a, b, x0, t_star, tol, density)
    assert good.ok, good.reason
    short = oracle.check_min_time(a, b, x0, t_star - 2 * tol, tol, density)
    assert not short.ok


def test_l1_check_fails_a_solve_that_exits_nonzero_without_outputs(tmp_path):
    inp = workloads.l1_inputs(1, tmp_path, pool=1)[0]
    out = tmp_path / "out"
    out.mkdir()
    verdict = workloads.l1_check(inp, (1, 1), out)
    assert not verdict.ok
    assert "exit 1" in verdict.reason


def test_sweep_horizons_are_the_oracle_minimum_times():
    for (_, a, b, x0, horizon), stored in zip(
        workloads.sweep_design(), workloads.SWEEP_MIN_TIMES
    ):
        assert oracle.min_time(a, b, x0) == stored
        assert horizon == workloads.SWEEP_T_FACTOR * stored


def test_self_check_flags_a_counter_that_did_not_repeat():
    counts = {"0": {"solver.iterations": 17466, "plant.expm_calls": 3}, "1": {"solver.iterations": 5}}
    assert run.counter_mismatch(counts, json.loads(json.dumps(counts))) == ""
    # a problem stopped at the time limit in one run is left out of the comparison
    assert run.counter_mismatch(counts, {"0": counts["0"]}) == ""
    changed = {"0": {"solver.iterations": 17467, "plant.expm_calls": 3}, "1": counts["1"]}
    assert "problem 0" in run.counter_mismatch(counts, changed)


def test_oracle_dual_matches_the_energy_optimum_for_large_r():
    """With a large quadratic weight and no saturation the L1L2 dual optimum
    approaches the minimum-energy one."""
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    phi, target, _ = oracle.reach_map(a, b, [0.1, 0.0], 10.0, 400)
    u_mixed, _, _ = oracle.mixed_optimum(phi, target, 1e-6, 1.0)
    u_energy = oracle.energy_optimum(phi, target)
    assert np.max(np.abs(u_mixed - u_energy)) < 1e-4 * np.max(np.abs(u_energy)) + 1e-6


def test_mintime_batch_keeps_one_input_outside_the_reachable_region_per_block(tmp_path):
    inputs = workloads.mintime_inputs(3, tmp_path, pool=2 * workloads.MINTIME_BLOCK)
    ratios = [inp.nc_ratio for inp in inputs if inp.kind == "unstable"]
    block = workloads.MINTIME_BLOCK // 3
    for start in range(0, len(ratios), block):
        chunk = ratios[start : start + block]
        assert sum(r >= 1.0 for r in chunk) == 1
        assert chunk[-1] >= 1.0
