"""The same-outputs check's comparison, on hand-made output maps.

``tools/same_outputs.py`` compares every output of the working tree with
those of a commit; this test loads it (read only, without writing bytecode
next to it) and checks ``differences``, which decides what it reports.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SAME_OUTPUTS = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", SAME_OUTPUTS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


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
