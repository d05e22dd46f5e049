"""End-to-end tests of the command-line interface and its file formats."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from handsoff import ControlTrajectory, compute_metrics
from handsoff.cli import main, read_trajectory_csv

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


def test_solve_zero_initial_state(tmp_path):
    problem = write_problem(tmp_path, DOUBLE_INTEGRATOR.replace("x0 = 1 0", "x0 = 0 0"))
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    _, u, _ = read_trajectory_csv(out / "trajectory.csv")
    np.testing.assert_array_equal(u, 0.0)


def test_solve_mode_override(tmp_path):
    problem = write_problem(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--mode", "L2", "--out", str(out)]) == 0
    report = read_report(out / "report.txt")
    assert report["mode"] == "L2"
    assert float(report["J1"]) == 0.0
    assert float(report["J2"]) > 0.0


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
        (lambda s: s.replace("x0 = 1 0", "x0 ="), "empty value"),
        (lambda s: s + "just some words\n", "expected 'key = value'"),
        (lambda s: s + "rho = 1\n", "unknown key 'rho'"),
        (lambda s: s + "tol_eq = 1e-8\n", "unknown key 'tol_eq'"),
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
    # mode L2: verify has no quantized check there to trip over a bad eps
    text = DOUBLE_INTEGRATOR.replace("mode = L1", "mode = L2")
    problem = write_problem(tmp_path, text)
    out = tmp_path / "out"
    if command == "verify":
        given = tmp_path / "given"
        assert main(["solve", str(problem), "--out", str(given)]) == 0
        argv = ["verify", str(problem), str(given / "trajectory.csv")]
    elif command == "sweep":
        argv = ["sweep", str(problem), "--r-list", "0.1", "--out", str(out)]
    else:
        argv = ["solve", str(problem), "--out", str(out)]
    capsys.readouterr()
    assert main(argv + ["--eps", eps]) == 1
    assert "epsilon must lie in (0, 0.5)" in capsys.readouterr().err
    for name in ("trajectory.csv", "report.txt", "tradeoff.csv"):
        assert not (out / name).exists()


def test_mode_override_needing_absent_weight_exits_1(tmp_path, capsys):
    text = DOUBLE_INTEGRATOR.replace("r = 1\n", "")
    problem = write_problem(tmp_path, text)
    assert main(["solve", str(problem), "--mode", "L1L2",
                 "--out", str(tmp_path / "out")]) == 1
    assert "error" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# mintime


def test_mintime_double_integrator(tmp_path, capsys):
    problem = write_problem(tmp_path)
    assert main(["mintime", str(problem), "--tol", "0.01"]) == 0
    output = capsys.readouterr().out
    values = dict(line.split(" = ") for line in output.strip().splitlines())
    assert abs(float(values["T_star"]) - 2.0) <= 0.05
    assert float(values["grid_density"]) == pytest.approx(200 / 4.0)


def test_mintime_zero_state(tmp_path, capsys):
    problem = write_problem(tmp_path, DOUBLE_INTEGRATOR.replace("x0 = 1 0", "x0 = 0 0"))
    assert main(["mintime", str(problem)]) == 0
    t_star = float(capsys.readouterr().out.splitlines()[0].split(" = ")[1])
    assert t_star <= 0.01


def test_mintime_without_finite_horizon_exits_2(tmp_path, capsys):
    # x' = x + u from x0 = 1.5: |u| <= 1 holds x back only from |x0| < 1
    text = (
        "n = 1\nm = 1\nA = 1\nB = 1\nx0 = 1.5\nT = 1\nN = 1\n"
        "lambda = 1\nmode = L1\n"
    )
    problem = write_problem(tmp_path, text)
    assert main(["mintime", str(problem)]) == 2
    assert "no finite minimum time" in capsys.readouterr().err


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["verify", "mintime"])
def test_bad_tol_exits_1_before_any_work(solved, capsys, command, tol):
    problem, trajectory = solved
    argv = [command, str(problem)] + ([str(trajectory)] if command == "verify" else [])
    capsys.readouterr()
    assert main(argv + ["--tol", tol]) == 1
    captured = capsys.readouterr()
    assert "--tol must be positive and finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["L1L2", "L2"])
def test_verify_accepts_solver_output_without_l1_checks(tmp_path, capsys, mode):
    text = DOUBLE_INTEGRATOR.replace("mode = L1", f"mode = {mode}")
    problem = write_problem(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    assert main(["verify", str(problem), str(out / "trajectory.csv")]) == 0
    assert "verified: 200 samples" in capsys.readouterr().out


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
    states = handsoff.simulate(plant, [1.0, 0.0], control).states
    from handsoff.cli import write_trajectory_csv

    drifted = tmp_path / "drifted.csv"
    write_trajectory_csv(drifted, control, states)
    assert main(["verify", str(problem), str(drifted)]) == 2
    assert "terminal state norm" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# entry point


def test_module_entry_point_help():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-m", "handsoff", "--help"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    for token in ("solve", "sweep", "mintime", "verify"):
        assert token in result.stdout
