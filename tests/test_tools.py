"""The tools' pure parts, on hand-made inputs.

``tools/same_outputs.py`` compares every output of the working tree with
those of a commit, and ``tools/paired_bench.py`` the benchmark's metrics in
alternating pairs of runs; these tests load them (read only, without
writing bytecode next to them) and check ``differences``, which decides
what the first reports, and ``summarize``, which the second prints.
"""

import importlib.util
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
