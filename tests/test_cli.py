"""End-to-end tests of the command-line interface and its file formats."""

import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import handsoff.analysis
import handsoff.solver
from handsoff import ControlTrajectory, LtiPlant, compute_metrics, simulate
from handsoff.cli import main, read_trajectory_csv, write_trajectory_csv
from test_solver import b120, problem_text, status_battery

DOUBLE_INTEGRATOR = """\
# double integrator, brake-then-thrust test plant
n = 2
m = 1
A = 0 1; 0 0
B = 0; 1
x0 = 1 0
T = 4
N = 200
lambda = 1
r = 1
mode = L1
"""


def write_problem(tmp_path, text=DOUBLE_INTEGRATOR, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_report(path):
    values = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        values[key] = value
    return values


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_trajectory_and_report(tmp_path):
    problem = write_problem(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 0

    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,u_1,x_1,x_2"
    assert len(lines) == 1 + 201
    # zero-order-hold convention: the terminal row carries no control
    assert lines[-1].split(",")[1] == ""

    report = read_report(out / "report.txt")
    assert report["status"] == "converged"
    assert report["mode"] == "L1"
    assert float(report["terminal_state_norm"]) <= 1e-4
    assert abs(float(report["duality_gap"])) <= 1e-6 * float(report["J1"])
    assert float(report["bangoffbang_score"]) >= 0.98


def test_csv_roundtrip_reproduces_metrics(tmp_path):
    problem = write_problem(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 0

    t, u, x = read_trajectory_csv(out / "trajectory.csv")
    assert t.shape == (201,)
    assert u.shape == (200, 1)
    assert x.shape == (201, 2)

    metrics = compute_metrics(ControlTrajectory(h=4.0 / 200, u=u))
    report = read_report(out / "report.txt")
    assert metrics.l0_seconds == pytest.approx(float(report["l0_seconds"]), abs=1e-9)
    assert metrics.handsoff_fraction == pytest.approx(
        float(report["handsoff_fraction"]), abs=1e-9
    )
    assert metrics.bangoffbang_score == pytest.approx(
        float(report["bangoffbang_score"]), abs=1e-9
    )
    assert metrics.derivative_supnorm == pytest.approx(
        float(report["derivative_supnorm"]), abs=1e-9
    )
    stored_switches = [float(v) for v in report["switching_times"].split()]
    np.testing.assert_allclose(metrics.switching_times, stored_switches, atol=1e-9)


def reference_trajectory_csv(control, states):
    """The trajectory CSV text, one ``format(v, ".15g")`` call per cell."""
    n_steps, m = control.u.shape
    n = states.shape[1]
    header = ["t"] + [f"u_{i + 1}" for i in range(m)] + [f"x_{j + 1}" for j in range(n)]
    lines = [",".join(header)]
    for k in range(n_steps + 1):
        cells = [format(k * control.h, ".15g")]
        cells += [format(float(v), ".15g") for v in control.u[k]] if k < n_steps else [""] * m
        cells += [format(float(v), ".15g") for v in states[k]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_steps", [1, 2, 1023, 1024, 1025, 3000])
def test_trajectory_csv_matches_per_cell_formatting(tmp_path, n_steps):
    rng = np.random.default_rng(n_steps)
    for m, n in ((1, 2), (2, 4)):
        u = rng.uniform(-1.0, 1.0, (n_steps, m)) * 10.0 ** rng.integers(-20, 3, (n_steps, m))
        u[::3] = rng.choice([-0.0, 0.0, -1.0, 1.0], (len(u[::3]), m))
        states = rng.standard_normal((n_steps + 1, n)) * 1e6
        control = ControlTrajectory(h=float(rng.uniform(1e-4, 0.1)), u=u)
        path = tmp_path / f"t{m}.csv"
        write_trajectory_csv(path, control, states)
        assert path.read_text() == reference_trajectory_csv(control, states)


@pytest.mark.parametrize("n_steps", [1, 3000])
def test_trajectory_csv_reads_back_every_cell_exactly(tmp_path, n_steps):
    rng = np.random.default_rng(n_steps)
    u = rng.uniform(-1.0, 1.0, (n_steps, 2)) * 10.0 ** rng.integers(-20, 3, (n_steps, 2))
    u[::3] = rng.choice([-0.0, 0.0, -1.0, 1.0], (len(u[::3]), 2))
    control = ControlTrajectory(h=float(rng.uniform(1e-4, 0.1)), u=u)
    states = rng.standard_normal((n_steps + 1, 3)) * 1e6
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, control, states)
    # the reference: one float() call per cell
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    t, u_read, x = read_trajectory_csv(path)
    assert t.tobytes() == np.array([float(r[0]) for r in rows]).tobytes()
    assert u_read.tobytes() == np.array([[float(c) for c in r[1:3]] for r in rows[:-1]]).tobytes()
    assert x.tobytes() == np.array([[float(c) for c in r[3:]] for r in rows]).tobytes()


def test_trajectory_csv_errors_name_the_row(tmp_path):
    control = ControlTrajectory(h=0.1, u=np.zeros((8, 1)))
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, control, np.zeros((9, 2)))
    lines = path.read_text().splitlines()

    def message(broken):
        path.write_text("\n".join(broken) + "\n")
        with pytest.raises(ValueError) as info:
            read_trajectory_csv(path)
        return str(info.value)

    for row, col in ((4, 1), (9, 2), (10, 0), (10, 2)):
        broken = lines.copy()
        cells = broken[row - 1].split(",")
        cells[col] = "1.0x"
        broken[row - 1] = ",".join(cells)
        assert f"row {row} has a non-numeric cell" in message(broken)
    broken = lines.copy()
    broken[6] = broken[6].replace(",", ",,", 1)
    assert "row 7 has 5 cells, expected 4" in message(broken)
    # a blank line is skipped but still counts: rows are named by file line
    broken = lines[:2] + [""] + lines[2:]
    cells = broken[6].split(",")
    cells[1] = "1.0x"
    broken[6] = ",".join(cells)
    assert "row 7 has a non-numeric cell" in message(broken)
    broken = lines[:2] + [" "] + lines[2:]
    broken[6] = broken[6].replace(",", ",,", 1)
    assert "row 7 has 5 cells, expected 4" in message(broken)
    assert "at least two data rows" in message(lines[:2])
    assert "header must be" in message(["t,x_1"] + lines[1:])
    broken = lines.copy()
    broken[-1] = broken[-1].replace(",,", ",1,", 1)
    assert "final row must leave the control blank" in message(broken)


def test_trajectory_csv_refuses_rows_all_of_one_wrong_width(tmp_path):
    # every row parses, so only the width of the parsed table gives it away
    control = ControlTrajectory(h=0.1, u=np.zeros((8, 1)))
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, control, np.zeros((9, 2)))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + [line + ",0" for line in lines[1:]]) + "\n")
    with pytest.raises(ValueError, match="row 2 has 5 cells, expected 4"):
        read_trajectory_csv(path)


def test_solve_zero_initial_state(tmp_path):
    problem = write_problem(tmp_path, DOUBLE_INTEGRATOR.replace("x0 = 1 0", "x0 = 0 0"))
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    _, u, _ = read_trajectory_csv(out / "trajectory.csv")
    np.testing.assert_array_equal(u, 0.0)


def test_solve_takes_the_mode_from_the_file(tmp_path):
    problem = write_problem(tmp_path, DOUBLE_INTEGRATOR.replace("mode = L1", "mode = L2"))
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    report = read_report(out / "report.txt")
    assert report["mode"] == "L2"
    assert float(report["J1"]) == 0.0
    assert float(report["J2"]) > 0.0


def test_solve_has_no_mode_option(tmp_path, capsys):
    # a second source of the mode let verify, which reads the file's, reject
    # the output of solve
    problem = write_problem(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(problem), "--mode", "L2", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode L2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


DEMO_PROBLEMS = sorted((Path(__file__).resolve().parents[1] / "demos/problems").glob("*.txt"))


@pytest.mark.parametrize("mode", ["L1", "L1L2", "L2"])
@pytest.mark.parametrize("demo", DEMO_PROBLEMS, ids=lambda path: path.stem)
def test_verify_accepts_solve_output_on_the_demos_in_every_mode(tmp_path, capsys, demo, mode):
    text = "".join(
        f"mode = {mode}\n" if line.startswith("mode =") else line
        for line in demo.read_text().splitlines(keepends=True)
    )
    if "\nr = " not in text:
        text += "r = 0.1\n"
    problem = write_problem(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    assert read_report(out / "report.txt")["mode"] == mode
    assert main(["verify", str(problem), str(out / "trajectory.csv")]) == 0
    assert "verified: " in capsys.readouterr().out


def test_solve_exit_2_below_minimum_time(tmp_path, capsys):
    problem = write_problem(tmp_path, DOUBLE_INTEGRATOR.replace("T = 4", "T = 1"))
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 2
    assert "did not converge" in capsys.readouterr().err
    # the report still records the failed status
    assert read_report(out / "report.txt")["status"] == "infeasible_suspected"


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda s: s + "bogus = 1\n", "unknown key 'bogus'"),
        (lambda s: s.replace("T = 4\n", ""), "missing required key 'T'"),
        (lambda s: s.replace("A = 0 1; 0 0", "A = 0 1; 0"), "must be 2x2"),
        (lambda s: s.replace("mode = L1", "mode = L3"), "mode must be one of"),
        (lambda s: s + "N = 7\n", "duplicate key 'N'"),
        (lambda s: s.replace("T = 4", "T = four"), "needs a float"),
        (lambda s: s.replace("T = 4", "T = inf"), "T must be positive and finite, got inf"),
        (lambda s: s.replace("x0 = 1 0", "x0 ="), "empty value"),
        (lambda s: s + "just some words\n", "expected 'key = value'"),
        (lambda s: s + "rho = 1\n", "unknown key 'rho'"),
        (lambda s: s + "tol_eq = 1e-8\n", "unknown key 'tol_eq'"),
        (lambda s: s.replace("A = 0 1; 0 0", "A = 0 one; 0 0"),
         "key 'A' has a non-numeric entry in row '0 one'"),
        (lambda s: s.replace("n = 2", "n = 0"), "n and m must be positive integers"),
    ],
)
def test_solve_rejects_malformed_files(tmp_path, capsys, mutation, fragment):
    problem = write_problem(tmp_path, mutation(DOUBLE_INTEGRATOR))
    assert main(["solve", str(problem), "--out", str(tmp_path / "out")]) == 1
    assert fragment in capsys.readouterr().err


def test_solve_missing_file_exits_1(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]) == 1
    assert "cannot read problem file" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["0.7", "-1"])
@pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
def test_bad_eps_exits_1_before_any_work(tmp_path, capsys, command, eps):
    # the off band is the constant analysis.DEFAULT_EPS and --eps is gone, so
    # argparse refuses any --eps as a usage error (exit 2) before reading a file
    problem = write_problem(tmp_path)
    out = tmp_path / "out"
    if command == "verify":
        argv = ["verify", str(problem), str(tmp_path / "trajectory.csv")]
    elif command == "sweep":
        argv = ["sweep", str(problem), "--r-list", "0.1", "--out", str(out)]
    else:
        argv = ["solve", str(problem), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--eps", eps])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --eps {eps}" in capsys.readouterr().err
    assert not out.exists()


def test_report_j0_follows_eps(tmp_path):
    # one input and lambda = 1: J0_seconds and l0_seconds are the same
    # measure, and both count the samples outside the one off band
    problem = Path(__file__).resolve().parents[1] / "demos/problems/double_integrator_l1l2.txt"
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    report = read_report(out / "report.txt")
    _, u, _ = read_trajectory_csv(out / "trajectory.csv")
    control = ControlTrajectory(h=4.0 / 400, u=u)
    active = 4.0 / 400 * np.count_nonzero(np.abs(u) > handsoff.analysis.DEFAULT_EPS)
    assert 0.0 < active < 4.0
    assert float(report["J0_seconds"]) == pytest.approx(active, rel=1e-14)
    assert float(report["l0_seconds"]) == pytest.approx(active, rel=1e-14)
    assert compute_metrics(control).l0_seconds == pytest.approx(active, rel=1e-14)


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_out_naming_a_file_exits_1(tmp_path, capsys, command):
    # mkdir on an existing file raised FileExistsError out of main
    problem = write_problem(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    rest = ["--r-list", "0.1"] if command == "sweep" else []
    assert main([command, str(problem), *rest, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err and str(taken) in err
    assert taken.read_text() == "not a directory\n"


def test_mode_needing_an_absent_weight_exits_1(tmp_path, capsys):
    text = DOUBLE_INTEGRATOR.replace("r = 1\n", "").replace("mode = L1", "mode = L1L2")
    problem = write_problem(tmp_path, text)
    assert main(["solve", str(problem), "--out", str(tmp_path / "out")]) == 1
    assert "mode L1L2 requires r > 0 on every channel" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_tradeoff_csv(tmp_path):
    problem = write_problem(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", str(problem), "--r-list", "0.01,1", "--out", str(out)]) == 0
    lines = (out / "tradeoff.csv").read_text().splitlines()
    assert lines[0] == "r,l0_seconds,derivative_supnorm,status,iterations"
    assert len(lines) == 3
    first = lines[1].split(",")
    last = lines[2].split(",")
    assert float(first[0]) == 0.01 and float(last[0]) == 1.0
    assert first[3] == "converged" and last[3] == "converged"
    assert int(first[4]) >= 0 and int(last[4]) > 0
    # heavier quadratic weight: more support, less slope
    assert float(last[1]) >= float(first[1])
    assert float(last[2]) <= float(first[2])


def test_sweep_empty_and_malformed_r_list(tmp_path, capsys):
    problem = write_problem(tmp_path)
    assert main(["sweep", str(problem), "--r-list", "", "--out", str(tmp_path)]) == 1
    assert "empty" in capsys.readouterr().err
    assert main(["sweep", str(problem), "--r-list", "a,b", "--out", str(tmp_path)]) == 1
    assert "non-numeric" in capsys.readouterr().err
    assert main(["sweep", str(problem), "--r-list", "-1", "--out", str(tmp_path)]) == 1


def test_sweep_all_points_failing_exits_2(tmp_path, capsys):
    problem = write_problem(tmp_path, DOUBLE_INTEGRATOR.replace("T = 4", "T = 1"))
    out = tmp_path / "out"
    assert main(["sweep", str(problem), "--r-list", "0.5", "--out", str(out)]) == 2
    assert "no sweep point converged" in capsys.readouterr().err
    row = (out / "tradeoff.csv").read_text().splitlines()[1].split(",")
    assert row[3] == "infeasible_suspected"
    assert row[1] == "nan"


def test_sweep_some_points_failing_exits_0_and_counts_them(tmp_path, capsys, monkeypatch):
    # which r fails on a real plant follows rounding, so one point is made to fail
    sweep = handsoff.analysis.sweep_tradeoff

    def first_fails(*args, **kwargs):
        points = sweep(*args, **kwargs)
        failed = replace(points[0], l0_seconds=math.nan, derivative_supnorm=math.nan,
                         status="stalled")
        return [failed] + points[1:]

    monkeypatch.setattr(handsoff.analysis, "sweep_tradeoff", first_fails)
    problem = write_problem(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", str(problem), "--r-list", "0.01,1", "--out", str(out)]) == 0
    assert "1 of 2 sweep points failed" in capsys.readouterr().err
    rows = [line.split(",") for line in (out / "tradeoff.csv").read_text().splitlines()[1:]]
    assert [row[3] for row in rows] == ["stalled", "converged"]


def test_sweep_and_solve_agree_on_a_one_sample_grid(tmp_path):
    # one sample has no adjacent pair, so both commands report no slope;
    # sweep used to exit 1 here
    problem = write_problem(tmp_path, "n = 1\nm = 1\nA = -1\nB = 1\nx0 = 0.1\nT = 1\n"
                            "N = 1\nlambda = 1\nr = 0.5\nmode = L1L2\n")
    assert main(["solve", str(problem), "--out", str(tmp_path / "solve")]) == 0
    report = read_report(tmp_path / "solve" / "report.txt")
    assert report["derivative_supnorm"] == report["max_jump"] == "0"
    out = tmp_path / "sweep"
    assert main(["sweep", str(problem), "--r-list", "0.5", "--out", str(out)]) == 0
    row = (out / "tradeoff.csv").read_text().splitlines()[1].split(",")
    assert row[:4] == ["0.5", report["l0_seconds"], "0", "converged"]


# ---------------------------------------------------------------------------
# mintime


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["verify", "mintime"])
def test_bad_tol_exits_1_before_any_work(tmp_path, capsys, command, tol):
    problem = write_problem(tmp_path)
    if command == "verify":
        # verify's terminal bound is fixed and --tol is gone: argparse refuses
        # any --tol as a usage error (exit 2) before reading the trajectory
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(problem), str(tmp_path / "trajectory.csv"), "--tol", tol])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --tol {tol}" in capsys.readouterr().err
        return
    assert main([command, str(problem), "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert "--tol must be positive and finite" in captured.err
    assert captured.out == ""


def test_mintime_double_integrator(tmp_path, capsys):
    problem = write_problem(tmp_path)
    assert main(["mintime", str(problem), "--tol", "0.01"]) == 0
    output = capsys.readouterr().out
    values = dict(line.split(" = ") for line in output.strip().splitlines())
    assert abs(float(values["T_star"]) - 2.0) <= 0.05
    assert float(values["grid_density"]) == pytest.approx(200 / 4.0)


def test_mintime_on_a_coarse_grid(tmp_path, capsys):
    # demos/problems/fourth_order_l1.txt at N = 10: one sample per second, so
    # the first horizons searched have fewer samples than states; 6.62 is
    # the answer of the doubling-and-bisection search this one replaced
    text = (
        "n = 4\nm = 1\nA = 0 -1 0 0; 1 0 0 0; 0 1 0 0; 0 0 1 0\nB = 2; 0; 0; 0\n"
        "x0 = 1 1 1 1\nT = 10\nN = 10\nlambda = 1\nmode = L1\n"
    )
    problem = write_problem(tmp_path, text)
    assert main(["mintime", str(problem)]) == 0
    values = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert abs(float(values["T_star"]) - 6.62) <= 0.01
    assert float(values["grid_density"]) == pytest.approx(1.0)


def test_mintime_with_a_tolerance_past_the_minimum_time(tmp_path, capsys):
    # with no reachable horizon known, clamping the next one to lo + tol / 2
    # overrode the Newton step's cap of 2 lo: --tol 1e7 searched past 1e6
    # seconds and exited 2, and --tol 1e5 printed T_star = 50001
    problem = Path(__file__).resolve().parents[1] / "demos/problems/double_integrator_l1l2.txt"
    for tol in ("1e7", "1e5"):
        assert main(["mintime", str(problem), "--tol", tol]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "T_star = 2"


def test_mintime_zero_state(tmp_path, capsys):
    problem = write_problem(tmp_path, DOUBLE_INTEGRATOR.replace("x0 = 1 0", "x0 = 0 0"))
    assert main(["mintime", str(problem)]) == 0
    t_star = float(capsys.readouterr().out.splitlines()[0].split(" = ")[1])
    assert t_star <= 0.01


def test_mintime_from_a_state_inside_the_reach_floor(tmp_path, capsys):
    # exited 2 ("minimum time undecided") when the gauge was s = 0
    problem = write_problem(tmp_path, DOUBLE_INTEGRATOR.replace("x0 = 1 0", "x0 = 1e-20 0"))
    assert main(["mintime", str(problem)]) == 0
    captured = capsys.readouterr()
    assert float(captured.out.splitlines()[0].split(" = ")[1]) <= 0.01
    assert captured.err == ""


def test_mintime_without_finite_horizon_exits_2(tmp_path, capsys):
    # x' = x + u from x0 = 1.5: |u| <= 1 holds x back only from |x0| < 1
    text = (
        "n = 1\nm = 1\nA = 1\nB = 1\nx0 = 1.5\nT = 1\nN = 1\n"
        "lambda = 1\nmode = L1\n"
    )
    problem = write_problem(tmp_path, text)
    assert main(["mintime", str(problem)]) == 2
    assert "no finite minimum time" in capsys.readouterr().err


def test_mintime_with_an_infinite_grid_density_exits_1(tmp_path, capsys):
    # N / T overflows to an infinite density, which math.ceil raised on
    text = DOUBLE_INTEGRATOR.replace("T = 4", "T = 5e-324").replace("N = 200", "N = 1")
    problem = write_problem(tmp_path, text)
    assert main(["mintime", str(problem)]) == 1
    assert "error: grid_density must be positive and finite, got inf" in capsys.readouterr().err


def test_solve_uncontrollable_plant_exits_1(tmp_path, capsys):
    problem = write_problem(
        tmp_path, DOUBLE_INTEGRATOR.replace("A = 0 1; 0 0", "A = -1 0; 0 -1").replace(
            "B = 0; 1", "B = 1; 1"
        )
    )
    assert main(["solve", str(problem), "--out", str(tmp_path / "out")]) == 1
    assert "eigenvalue mu = -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mintime_uncontrollable_plant_exits_1(tmp_path, capsys):
    problem = write_problem(tmp_path, DOUBLE_INTEGRATOR.replace("B = 0; 1", "B = 0; 0"))
    assert main(["mintime", str(problem)]) == 1
    assert "singular" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


@pytest.fixture()
def solved(tmp_path):
    problem = write_problem(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    return problem, out / "trajectory.csv"


def test_verify_accepts_solver_output(solved):
    problem, trajectory = solved
    assert main(["verify", str(problem), str(trajectory)]) == 0


@pytest.mark.parametrize("mode", ["L1L2", "L2"])
def test_verify_accepts_solver_output_without_l1_checks(tmp_path, capsys, mode):
    text = DOUBLE_INTEGRATOR.replace("mode = L1", f"mode = {mode}")
    problem = write_problem(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    assert main(["verify", str(problem), str(out / "trajectory.csv")]) == 0
    assert "verified: 200 samples" in capsys.readouterr().out


def test_verify_reads_the_costate_off_solver_output(solved, capsys, monkeypatch):
    problem, trajectory = solved

    def no_solve(*args, **kwargs):
        raise AssertionError("verify solved the program")

    monkeypatch.setattr(handsoff.solver, "solve", no_solve)
    capsys.readouterr()
    assert main(["verify", str(problem), str(trajectory)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("verified: 200 samples, terminal norm ")
    gap, bound = line.split("relative duality gap ")[1].split(" <= ")
    assert 0.0 <= float(gap) <= float(bound) == 1e-6


def test_verify_catches_tampered_bang_sample(solved, capsys, tmp_path):
    problem, trajectory = solved
    _, u, _ = read_trajectory_csv(trajectory)
    col = u[:, 0]
    # pick a sample strictly inside a saturated stretch and flatten it
    inside = [
        k
        for k in range(1, len(col) - 1)
        if abs(abs(col[k]) - 1.0) < 1e-6
        and abs(abs(col[k - 1]) - 1.0) < 1e-6
        and abs(abs(col[k + 1]) - 1.0) < 1e-6
    ]
    k = inside[len(inside) // 2]
    lines = trajectory.read_text().splitlines()
    cells = lines[1 + k].split(",")
    cells[1] = "0.5"
    lines[1 + k] = ",".join(cells)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text("\n".join(lines) + "\n")

    assert main(["verify", str(problem), str(tampered)]) == 2
    assert "bang-off-bang" in capsys.readouterr().err


def test_verify_rejects_an_off_sample_moved_by_1e_3(solved, capsys, tmp_path):
    problem, trajectory = solved
    _, u, _ = read_trajectory_csv(trajectory)
    # the middle of the longest off stretch; 1e-3 is inside the quantization
    # band around 0, so only the duality gap sees the move
    off = np.flatnonzero(u[:, 0] == 0.0)
    runs = np.split(off, np.flatnonzero(np.diff(off) > 1) + 1)
    longest = max(runs, key=len)
    u[longest[len(longest) // 2], 0] = 1e-3
    plant = LtiPlant(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]])
    control = ControlTrajectory(h=4.0 / 200, u=u)
    moved = tmp_path / "moved.csv"
    write_trajectory_csv(moved, control, simulate(plant, [1.0, 0.0], control))

    capsys.readouterr()
    assert main(["verify", str(problem), str(moved)]) == 2
    err = capsys.readouterr().err
    assert "duality gap" in err
    assert err.count("check failed") == 1


def test_verify_certifies_full_thrust_on_every_sample(tmp_path, capsys):
    # u = +1 on every sample is the only control that reaches its terminal
    # response, from x0 = [200, -20] of the double integrator at T = 20; the
    # read-off costate needs n samples inside the bound and there are none,
    # so the certificate is the solve's optimal vertex
    text = DOUBLE_INTEGRATOR.replace("x0 = 1 0", "x0 = 200 -20").replace(
        "T = 4", "T = 20"
    )
    problem = write_problem(tmp_path, text)
    plant = LtiPlant(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]])
    control = ControlTrajectory(h=0.1, u=np.ones((200, 1)))
    trajectory = tmp_path / "thrust.csv"
    write_trajectory_csv(trajectory, control, simulate(plant, [200.0, -20.0], control))
    capsys.readouterr()
    assert main(["verify", str(problem), str(trajectory)]) == 0
    assert capsys.readouterr().out.startswith("verified: 200 samples")


@pytest.mark.parametrize("n_steps", [30, 50, 100, 200])
def test_verify_accepts_solve_output_on_coarse_grids(tmp_path, capsys, n_steps):
    # the L1 optimum ties n = 4 samples between levels on every grid: a
    # share of 0.98 on the levels rejected it below 200 samples
    demo = Path(__file__).resolve().parent.parent / "demos" / "problems" / "fourth_order_l1.txt"
    problem = write_problem(tmp_path, demo.read_text().replace("N = 1000", f"N = {n_steps}"))
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(problem), str(out / "trajectory.csv")]) == 0
    assert capsys.readouterr().out.startswith(f"verified: {n_steps} samples")


@pytest.mark.parametrize("ramps", [2, 3])
def test_verify_bounds_the_samples_off_the_levels_by_n(tmp_path, capsys, ramps):
    # a vertex ties at most n samples off the levels {-1, 0, +1}; the
    # double integrator (n = 2) allows two of them
    problem = write_problem(tmp_path)
    u = np.repeat([-1.0, -0.5, 0.0, 0.5, 1.0, 0.0], [40, 1, 60, 1, 40, 58])[:, None]
    if ramps == 3:
        u[142, 0] = 0.5
    plant = LtiPlant(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]])
    control = ControlTrajectory(h=4.0 / 200, u=u)
    trajectory = tmp_path / "ramps.csv"
    write_trajectory_csv(trajectory, control, simulate(plant, [1.0, 0.0], control))
    capsys.readouterr()
    assert main(["verify", str(problem), str(trajectory)]) == 2
    err = capsys.readouterr().err
    if ramps == 2:
        assert "bang-off-bang" not in err
    else:
        assert "structure check failed: 3 samples off the levels, more than n = 2" in err


def test_verify_accepts_every_certified_l1_optimum_of_the_batteries(tmp_path, capsys):
    # an optimal vertex puts its <= n off-level samples wherever |c| crosses
    # lambda, such as at the last sample (B120 8/20) or inside an interval
    # at 0 (8/21)
    gap_line = re.compile(
        r"check failed: duality gap \S+ of the control's cost exceeds "
        + re.escape(f"{handsoff.solver._TOL_DUAL:.3g}")
        + ": no costate certifies it optimal for its terminal response\n"
    )
    drawn = [(f"{seed}/{i}", p) for seed in (7, 8, 9) for i, p in enumerate(b120(seed))]
    drawn += [(f"status {i}", p) for i, p in enumerate(status_battery())]
    path, trajectory = tmp_path / "problem.txt", tmp_path / "trajectory.csv"
    optima = 0
    for label, problem in drawn:
        report = handsoff.solve_problem(problem)
        if problem.mode != "L1" or report.status != "converged":
            continue
        optima += 1
        path.write_text(problem_text(problem))
        states = simulate(problem.plant, problem.x0, report.u)
        write_trajectory_csv(trajectory, report.u, states)
        capsys.readouterr()
        code = main(["verify", str(path), str(trajectory)])
        err = capsys.readouterr().err
        if label in ("8/3", "8/6"):
            # the duality gap of a tiny cost, and no other check, fails
            assert code == 2 and gap_line.fullmatch(err), (label, err)
        else:
            assert code == 0 and err == "", (label, err)
    assert optima == 59


@pytest.mark.parametrize("case", [20, 21])
def test_solve_then_verify_accepts_an_off_level_sample_a_vertex_puts_anywhere(
    tmp_path, capsys, case
):
    # 8/20 ties a sample at the grid's last cell, 8/21 a pulse shorter
    # than one cell inside an interval at 0
    problem = write_problem(tmp_path, problem_text(b120(8)[case]))
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(problem), str(out / "trajectory.csv")]) == 0
    assert capsys.readouterr().out.startswith("verified: ")


def test_verify_catches_a_sample_past_the_amplitude_bound(solved, capsys, tmp_path):
    problem, trajectory = solved
    _, u, _ = read_trajectory_csv(trajectory)
    u[0, 0] = -1.5
    plant = LtiPlant(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]])
    control = ControlTrajectory(h=4.0 / 200, u=u)
    pushed = tmp_path / "pushed.csv"
    write_trajectory_csv(pushed, control, simulate(plant, [1.0, 0.0], control))
    capsys.readouterr()
    assert main(["verify", str(problem), str(pushed)]) == 2
    assert "check failed: amplitude bound violated: max |u| = 1.5" in capsys.readouterr().err


def test_verify_unreadable_or_empty_trajectory_exits_1(solved, capsys, tmp_path):
    problem, _ = solved
    capsys.readouterr()
    assert main(["verify", str(problem), str(tmp_path / "absent.csv")]) == 1
    assert "absent.csv: cannot read trajectory" in capsys.readouterr().err
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["verify", str(problem), str(empty)]) == 1
    assert "empty.csv: empty trajectory file" in capsys.readouterr().err


def test_verify_wrong_dimension_csv_exits_1(solved, capsys, tmp_path):
    problem, trajectory = solved
    other = write_problem(
        tmp_path,
        DOUBLE_INTEGRATOR.replace("N = 200", "N = 100"),
        name="other.txt",
    )
    assert main(["verify", str(other), str(trajectory)]) == 1
    assert "do not match" in capsys.readouterr().err


def test_verify_rejects_malformed_csv(solved, capsys, tmp_path):
    problem, trajectory = solved
    lines = trajectory.read_text().splitlines()

    missing_cell = tmp_path / "short_row.csv"
    broken = lines.copy()
    broken[5] = ",".join(broken[5].split(",")[:-1])
    missing_cell.write_text("\n".join(broken) + "\n")
    assert main(["verify", str(problem), str(missing_cell)]) == 1
    assert "cells" in capsys.readouterr().err

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("\n".join(["time,u_1,x_1,x_2"] + lines[1:]) + "\n")
    assert main(["verify", str(problem), str(bad_header)]) == 1

    bad_grid = tmp_path / "bad_grid.csv"
    broken = lines.copy()
    cells = broken[10].split(",")
    cells[0] = "3.9"
    broken[10] = ",".join(cells)
    bad_grid.write_text("\n".join(broken) + "\n")
    assert main(["verify", str(problem), str(bad_grid)]) == 1
    capsys.readouterr()

    final_control = tmp_path / "final_control.csv"
    broken = lines.copy()
    cells = broken[-1].split(",")
    cells[1] = "1.0"
    broken[-1] = ",".join(cells)
    final_control.write_text("\n".join(broken) + "\n")
    assert main(["verify", str(problem), str(final_control)]) == 1
    assert "blank" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, col, cell",
    [(7, 2, "nan"), (7, 3, "inf"), (7, 0, "nan"), (202, 2, "nan")],
    ids=["state_nan", "state_inf", "time_nan", "final_state_nan"],
)
def test_verify_rejects_non_finite_cells(solved, capsys, tmp_path, row, col, cell):
    # nan > bound and inf > inf are both False, so a check could not catch them
    problem, trajectory = solved
    lines = trajectory.read_text().splitlines()
    cells = lines[row - 1].split(",")
    cells[col] = cell
    lines[row - 1] = ",".join(cells)
    edited = tmp_path / "edited.csv"
    edited.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(problem), str(edited)]) == 1
    assert f"row {row} has a non-finite cell" in capsys.readouterr().err


def test_verify_catches_violated_terminal_state(solved, capsys, tmp_path):
    problem, trajectory = solved
    lines = trajectory.read_text().splitlines()
    # zero out the last quarter of the control: dynamics stay consistent with
    # nothing, so only the recomputed terminal state gives it away
    _, u, _ = read_trajectory_csv(trajectory)
    u[150:] = 0.0
    import handsoff

    plant = handsoff.LtiPlant(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]])
    control = handsoff.ControlTrajectory(h=4.0 / 200, u=u)
    states = handsoff.simulate(plant, [1.0, 0.0], control)

    drifted = tmp_path / "drifted.csv"
    write_trajectory_csv(drifted, control, states)
    assert main(["verify", str(problem), str(drifted)]) == 2
    assert "terminal state norm" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# entry point


def run_python(*args):
    """``python *args`` in a fresh process that imports the package from ``src``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_module_entry_point_help():
    result = run_python("-m", "handsoff", "--help")
    assert result.returncode == 0
    for token in ("solve", "sweep", "mintime", "verify"):
        assert token in result.stdout


def test_the_cli_import_leaves_scipy_optimize_unloaded():
    # the benchmark's tracer hooks linprog and lsq_linear, which nothing
    # calls; they resolve on first lookup, so the CLI does not pay for
    # importing scipy.optimize
    result = run_python(
        "-c",
        "import sys, handsoff.cli; print('scipy.optimize' in sys.modules);"
        " import handsoff.analysis as a, handsoff.solver as s;"
        " print(callable(a.linprog), callable(s.lsq_linear))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True", "True"]


def test_main_builds_its_parser_once_and_parses_alike(tmp_path, capsys, monkeypatch):
    import handsoff.cli

    built = []
    build = handsoff.cli.build_parser
    monkeypatch.setattr(handsoff.cli, "build_parser", lambda: built.append(1) or build())
    handsoff.cli._parser.cache_clear()
    try:
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["mintime"])
            outputs.append((exc.value.code, capsys.readouterr().err))
            assert main(["mintime", str(write_problem(tmp_path))]) == 0
            outputs.append(capsys.readouterr().out)
    finally:
        handsoff.cli._parser.cache_clear()
    assert built == [1]
    assert outputs[:2] == outputs[2:]
    assert outputs[0][0] == 2 and "the following arguments are required" in outputs[0][1]
