"""The benchmark's traced run hooks these module attributes; they must resolve.

``perfbench/tracing.py`` wraps named functions of the package in timing spans
and puts them back afterwards.  A rename or removal in the package breaks the
traced run, so this test loads the tracer (read only, without writing
bytecode next to it) and checks every hook and the restore.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_trace_target_resolves(tracing):
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_tracer_install_then_remove_restores_the_originals(tracing):
    originals = [
        (module, attr, getattr(importlib.import_module(module), attr))
        for module, attr, _ in tracing.TARGETS
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, attr, original in originals:
            assert getattr(importlib.import_module(module), attr) is not original
    finally:
        tracer.remove()
    for module, attr, original in originals:
        assert getattr(importlib.import_module(module), attr) is original
