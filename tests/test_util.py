"""Atomic file writes and the canonical JSON writer."""

from __future__ import annotations

import json
import math
import os
import stat

import numpy as np
import pytest

from uniformizer.util import atomic_write_text, canonical_json, jsonable


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_atomic_write_text_respects_umask(tmp_path, umask, mode):
    path = tmp_path / "out.json"
    old = os.umask(umask)
    try:
        atomic_write_text(str(path), "{}\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode
    assert path.read_text() == "{}\n"
    assert os.listdir(tmp_path) == ["out.json"]


def _reference(obj):
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "column",
    [
        [0.0, -0.0] * 20,  # repeated floats: 0.0 and -0.0 keep their own text
        [0.25] * 30 + [1e-320, 0.1 + 0.2],
        [[1.0, -0.0]] * 12 + [[0.5, 2.0]],  # coordinate pairs
        [[1.0, 2.0], [3.0]],  # lengths differ
        [[1.0, 2], [3.0, 4.0]],  # an int among the items
        [[1.0, math.nan], [3.0, 4.0]],
        [[], []],
    ],
    ids=["signed-zeros", "repeats", "coords", "ragged", "int-item", "nan-item", "empty-lists"],
)
def test_column_kinds_write_json_dumps_bytes(column):
    assert canonical_json(column) == _reference(column)


def test_canonical_json_edge_cases_exact_text():
    """numpy scalars become plain values, non-finite floats (numpy or
    Python, in arrays too) become strings, -0.0 keeps its sign, tuples
    become lists and dict keys become strings."""
    obj = {
        "f32": np.float32(0.1),
        "i64": np.int64(-7),
        "b": np.bool_(True),
        "pyb": False,
        "nan": math.nan,
        "f64nan": np.float64("nan"),
        "inf": np.float64("inf"),
        "ninf": -math.inf,
        "nz": -0.0,
        "arr": np.array([[1.5, np.nan], [-np.inf, -0.0]]),
        "empty": np.array([]),
        "nested": [(), [[]], {}],
        "tup": (1, np.float32(2.5), "s"),
        3: "int key",
    }
    expected = """{
  "3": "int key",
  "arr": [
    [
      1.5,
      "nan"
    ],
    [
      "-inf",
      -0.0
    ]
  ],
  "b": true,
  "empty": [],
  "f32": 0.10000000149011612,
  "f64nan": "nan",
  "i64": -7,
  "inf": "inf",
  "nan": "nan",
  "nested": [
    [],
    [
      []
    ],
    {}
  ],
  "ninf": "-inf",
  "nz": -0.0,
  "pyb": false,
  "tup": [
    1,
    2.5,
    "s"
  ]
}
"""
    assert canonical_json(obj) == expected
