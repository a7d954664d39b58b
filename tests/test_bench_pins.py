"""The benchmark tracer (bench/tracer.py) wraps package names by string; a
rename in the package would only fail a traced benchmark run.  These tests
read the tracer's source without importing it as a module (nothing is
written next to it) and check that every name it wraps still resolves."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer() -> types.ModuleType:
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


TARGETS = _tracer().TARGETS


@pytest.mark.parametrize(
    "module_name, path", [(module_name, path) for module_name, path, _, _ in TARGETS]
)
def test_tracer_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    if "." in path:
        cls_name, method = path.split(".")
        # the tracer replaces the method in the class's own namespace
        assert callable(vars(getattr(owner, cls_name)).get(method)), path
    else:
        assert callable(getattr(owner, path, None)), path


def test_sgd_hook_binds_rows_and_epochs():
    """The SGD-step counter binds averaged_sgd_train's X and epochs."""
    from semannot.learners import linear

    params = inspect.signature(linear.averaged_sgd_train).parameters
    assert {"X", "epochs"} <= set(params)
