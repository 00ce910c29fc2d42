"""The benchmark's span table names attributes that exist in the package.

``bench/spans.py`` wraps package functions by module and attribute name, so
a rename or a removed import would silently drop a layer from traced
benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module, attribute", [(mod, attr) for mod, attr, _ in spans.FUNCTION_SPANS]
)
def test_function_span_resolves(module, attribute):
    home = importlib.import_module(f"uniformizer.{module}")
    assert callable(getattr(home, attribute, None)), f"uniformizer.{module}.{attribute}"


@pytest.mark.parametrize("method", [name for name, _ in spans.METHOD_SPANS])
def test_method_span_resolves(method):
    cls = importlib.import_module("uniformizer.graphspace").GraphSpace
    assert callable(cls.__dict__.get(method)), f"GraphSpace.{method}"
