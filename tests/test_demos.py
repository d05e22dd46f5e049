"""Smoke test: every narrated demo script runs to completion, and the demo
that solves a problem file prints what the CLI reports on that file."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from handsoff.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_all_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(script, tmp_path):
    result = run_demo(script, tmp_path)
    assert result.returncode == 0, result.stderr


def test_maximum_handsoff_prints_the_report_of_cli_solve(tmp_path):
    result = run_demo(ROOT / "demos" / "maximum_handsoff.py", tmp_path)
    assert result.returncode == 0, result.stderr
    printed = {}
    for line in result.stdout.splitlines():
        key, _, value = line.partition(" = ")
        printed[key.rstrip()] = value

    problem = ROOT / "demos" / "problems" / "fourth_order_l1.txt"
    assert main(["solve", str(problem), "--out", str(tmp_path / "run")]) == 0
    lines = (tmp_path / "run" / "report.txt").read_text().splitlines()
    report = dict(line.split(" = ", 1) for line in lines)

    assert printed["support measure"] == f"{float(report['l0_seconds']):.4f} s of 10 s"
    assert printed["L1 cost"] == f"{float(report['J1']):.6f}"
    times = [float(t) for t in report["switching_times"].split()]
    assert printed["switching times"] == " ".join(f"{t:.2f}" for t in times)
