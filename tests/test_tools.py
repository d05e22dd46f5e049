"""The tools' pure parts, on hand-made inputs.

``tools/same_outputs.py`` compares every output of the working tree with
those of a commit, and ``tools/paired_bench.py`` the benchmark's metrics in
alternating pairs of runs; these tests load them (read only, without
writing bytecode next to them) and check ``differences``, which decides
what the first reports, and ``summarize``, which the second prints, with
the other tools' pure parts: ``tools/bench_record.py``'s ``is_dirty`` and
``tools/cli_time.py``'s, ``tools/fault_count.py``'s and
``tools/exchange_replay.py``'s ``report``; and runs ``tools/fault_count.py``
and ``tools/exchange_replay.py`` once each on a short count.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    """``tools/<name>.py`` as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def same_outputs():
    return load_tool("same_outputs")


def test_equal_maps_have_no_differences(same_outputs):
    outputs = {"solve x: stdout": b"", "B120 7/0: status": b"converged"}
    assert same_outputs.differences(outputs, dict(outputs)) == []


def test_a_key_on_one_side_is_named_with_its_side(same_outputs):
    old = {"shared": b"1", "gone": b"2"}
    new = {"shared": b"1", "added": b"3"}
    assert same_outputs.differences(old, new) == [
        "added: only at the working tree",
        "gone: only at the commit",
    ]


def test_differing_bytes_give_the_key_and_a_unified_diff(same_outputs):
    old = {"mintime_batch 1/0: T*": b"1.0\n2.0\n3.0"}
    new = {"mintime_batch 1/0: T*": b"1.0\n2.5\n3.0"}
    assert same_outputs.differences(old, new) == [
        "mintime_batch 1/0: T*:",
        "  --- commit",
        "  +++ working tree",
        "  @@ -2 +2 @@",
        "  -2.0",
        "  +2.5",
    ]


def test_a_moved_horizon_differs_at_the_same_totals(same_outputs):
    old = {
        "mintime_batch 1/0: T*": b"1.5",
        "mintime_batch 1/0: horizons": b"0.01 100\n0.0125 120",
        "mintime_batch 1/1: raised": b"RuntimeError: no finite minimum time",
        "mintime_batch 1/1: horizons": b"",
    }
    new = dict(old)
    new["mintime_batch 1/0: horizons"] = b"0.01 100\n0.0126 120"
    assert same_outputs.mintime_totals(old, 1) == "2 horizons, 1 refused"
    assert same_outputs.mintime_totals(new, 1) == "2 horizons, 1 refused"
    assert same_outputs.differences(old, new)[0] == "mintime_batch 1/0: horizons:"


def test_paired_summary_counts_pairs_won_in_the_better_direction():
    summarize = load_tool("paired_bench").summarize
    commit, tree = [10.0, 12.0, 11.0, 9.0], [9.0, 12.0, 10.0, 9.5]
    # pair 2 ties and counts for neither side
    lower = summarize(commit, tree, "lower")
    assert (lower["won"], lower["pairs"]) == (2, 4)
    assert lower["quartiles"]["commit"] == [9.75, 10.5, 11.25]
    assert lower["quartiles"]["working tree"] == [9.375, 9.75, 10.5]
    assert lower["change"] == 9.75 / 10.5 - 1.0
    assert summarize(commit, tree, "higher")["won"] == 1


def test_a_record_is_dirty_only_for_changes_to_what_it_measures():
    is_dirty = load_tool("bench_record").is_dirty
    assert not is_dirty("")
    # untracked notes and folders outside the measured code
    assert not is_dirty("?? notes.txt\n?? scratch/\n?? src.txt\n?? \"my notes.md\"")
    # an untracked module or folder under src/ or perfbench/
    assert is_dirty("?? notes.txt\n?? src/handsoff/extra.py")
    assert is_dirty("?? perfbench/new/")
    assert is_dirty('?? "src/handsoff/a b.py"')
    # any change to a tracked file, wherever it is ("git" strips the first
    # line's leading blank)
    for line in ("M README.md", " M README.md", "D  tests/test_cli.py", "R  a.py -> src/b.py",
                 "A  BENCH_32.json", "MM src/handsoff/solver.py", "UU ROADMAP.md"):
        assert is_dirty(f"?? notes.txt\n{line}"), line
        assert is_dirty(line), line


def test_cli_time_report_gives_each_command_its_medians_and_runs_won():
    cli_time = load_tool("cli_time")
    times = {
        "commit": {"import handsoff": [0.6, 0.5, 0.7], "CLI solve": [0.55, 0.57, 0.56]},
        "working tree": {"import handsoff": [0.4, 0.5, 0.3], "CLI solve": [0.38, 0.6, 0.37]},
    }
    header, imported, solved = cli_time.report(times)
    assert header.split()[0] == "command"
    # the median and quartiles of each side, the change, then the runs won
    # (lower is better; the tie at 0.5 counts for neither side)
    assert imported.split() == [
        "import", "handsoff", "0.600", "[0.550,", "0.650]", "0.400", "[0.350,", "0.450]",
        "-33.3%", "2/3",
    ]
    assert solved.split()[-2:] == ["-32.1%", "2/3"]


def test_fault_count_report_gives_nonzero_inputs_and_the_median_per_operation():
    report = load_tool("fault_count").report
    # three passes of three operations: 2, 4 and 30 faults per operation
    counts = [[0, 6, 0], [3, 9, 0], [0, 90, 0]]
    assert report(counts) == [
        "input   1: 9",
        "inputs with a median of 0: 2 of 3",
        "minor faults per operation: 4.0 (median of 3 passes after 3 warm)",
    ]


def test_fault_count_runs_a_workload_in_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "fault_count.py"), "--workload", "tradeoff_long",
         "--passes", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "tradeoff_long, seed 1, the working tree"
    assert lines[1] == "operations measured: 7, of which raised: 0"
    assert lines[-1].startswith("minor faults per operation: ")
    assert lines[-1].endswith(" (median of 1 passes after 3 warm)")
    assert float(lines[-1].split()[4]) >= 0.0


def test_exchange_replay_report_gives_each_side_and_the_fields_that_differ():
    tool = load_tool("exchange_replay")
    times = {"commit": [0.170, 0.168, 0.179], "working tree": [0.150, 0.160, 0.155]}
    lines = tool.report(914, 3269, times, [])
    assert lines == [
        "calls: 914, loop passes: 3269",
        "commit: min 168.0 ms, median 170.0 ms (3 replays)",
        "working tree: min 150.0 ms, median 155.0 ms (3 replays)",
        "change of the median: -8.8%",
        "shared returned fields: the same bit for bit",
    ]
    # fields are compared by position, up to the shorter result
    old = [["a", "b", "c"], ["d", "e", "f"], ["g", "h", "i"]]
    new = [["a", "b", "c", "x"], ["d", "E", "F", "y"], ["g", "h", "I", "z"]]
    differ = tool.mismatches(old, new)
    assert differ == [(1, 1), (1, 2), (2, 2)]
    assert tool.report(3, 5, times, differ)[-1] == (
        "shared returned fields: 3 differ, in 2 of 3 calls (first: call 1, field 1)"
    )
    alone = tool.report(3, 5, {"working tree": [0.002]}, None)
    assert alone[1:] == [
        "working tree: min 2.0 ms, median 2.0 ms (1 replays)",
        "returned fields: no commit to compare with",
    ]


def test_exchange_digest_tells_apart_what_equality_would_not():
    digest = load_tool("exchange_replay").digest
    import numpy as np

    assert digest(0.0) != digest(-0.0)
    assert digest(np.zeros(2)) != digest(np.zeros(3))
    assert digest(np.zeros(2)) != digest(-np.zeros(2))
    assert digest(np.eye(2)) == digest(np.asfortranarray(np.eye(2)))
    assert digest([3, 1]) != digest([1, 3])


def test_exchange_replay_runs_a_workload_in_fresh_processes():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "exchange_replay.py"), "--workload", "mintime_batch",
         "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "mintime_batch, seed 1, the working tree"
    calls, passes = (int(part.split(": ")[1]) for part in lines[1].split(", "))
    # one gauge per horizon, each at least one loop pass
    assert 0 < calls <= passes
    assert lines[2].startswith("working tree: min ") and lines[2].endswith(" (1 replays)")
    assert lines[3] == "returned fields: no commit to compare with"
