"""The benchmark tracer's named spans exist in the package it traces."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "crowdbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("crowdbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name", sorted({*tracing.PEAKS, *tracing.COUNTS}))
def test_traced_name_is_a_public_function(name):
    # the tracer wraps exactly the public functions each module defines;
    # a name it reads that no longer exists leaves its metric without spans
    short, function = name.split(".")
    assert short in tracing.MODULES
    module = importlib.import_module(f"crowdbwa.{short}")
    fn = getattr(module, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
