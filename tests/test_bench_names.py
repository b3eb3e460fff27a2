"""The traced benchmark wraps projderiv functions by name (bench/tracing.py
``LAYERS``).  A rename would only show up there, and the test suite does not
collect bench/, so this checks that every wrapped name still resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "module_name,name",
    [(module_name, fn) for module_name, fns in _layers().values() for fn in fns],
)
def test_traced_name_resolves(module_name, name):
    owner = importlib.import_module(module_name)
    if "." in name:
        cls_name, name = name.split(".")
        owner = getattr(owner, cls_name)
        assert name in vars(owner), f"{cls_name}.{name} is not defined on the class itself"
    assert callable(getattr(owner, name))
