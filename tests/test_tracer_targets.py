"""The names ``perfbench/tracer.py`` patches all exist in ``src/``.

The tracer looks every traced layer up by name, so a renamed or deleted
function otherwise shows only as a traceback inside the 600 s smoke run of
``test_perfbench_smoke.py``. These checks name the missing symbol in under a
second. The tracer is loaded from its file, read-only, without writing
bytecode next to it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from reuseloop.planner import MockPlanner

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


TRACER = _load_tracer()
_FUNCTIONS = [(module, name) for module, name, _ in TRACER.FUNCTIONS]
_METHODS = [(cls, name) for _, cls, names in TRACER.METHODS for name in names]


@pytest.mark.parametrize(
    "module, name", _FUNCTIONS, ids=[f"{m.__name__}.{n}" for m, n in _FUNCTIONS]
)
def test_traced_function_exists(module, name):
    assert callable(getattr(module, name, None)), f"{module.__name__}.{name} is missing"


@pytest.mark.parametrize(
    "cls, name", _METHODS, ids=[f"{c.__qualname__}.{n}" for c, n in _METHODS]
)
def test_traced_method_is_defined_on_its_class(cls, name):
    # The tracer reads cls.__dict__, so an inherited method is not enough.
    assert name in cls.__dict__, f"{cls.__qualname__}.{name} is missing"


def test_mock_planner_replan_is_kept_only_for_the_tracer():
    # The engine asks every plan through plan(task, feedback), and
    # no planner protocol has replan. MockPlanner.replan stays because the
    # tracer wraps it by name; once the tracer skips a missing name (ROADMAP
    # item 1), this fails as a reminder to delete it (ROADMAP item 3).
    assert (MockPlanner, "replan") in _METHODS
