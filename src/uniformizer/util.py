"""Shared plumbing: deterministic JSON and atomic file writes.

Everything here is deliberately boring.  Reports must be byte-identical across
runs with the same inputs, so JSON serialization is centralized and file
writes go through a temp-file-plus-rename so readers never observe partial
output.

``canonical_json`` writes exactly the text of
``json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\\n"``, in one pass
and without that expression's two costs: the recursive ``jsonable`` copy of a
payload that is usually plain already, and CPython's pure-Python encoder,
which ``json`` uses whenever ``indent`` is set (3.11 has no indenting C
encoder).  The writer applies ``jsonable``'s value rules as it goes:

- numpy bools, integers and floats are written as the plain Python values;
  numpy arrays as lists (of their ``tolist()`` items);
- nan, inf and -inf are written as the strings ``"nan"``, ``"inf"`` and
  ``"-inf"``;
- dict keys are turned into strings (``str(k)``) before sorting, so keys
  that collide as strings keep the last value, as in a dict comprehension;
- tuples are lists; any other value that is not a string or None is an
  error, as it is for ``json``.

Strings go through ``json``'s own C escaper (ASCII output) and finite floats
through ``float.__repr__``, which is what ``json`` emits, so the bytes are
the same.  A flat list of finite floats, strings or bools is joined in one
call; finite floats that repeat a lot (a lattice's lengths, measures and
coordinates) are written once per distinct value.

Tables are written from columns.  A ``Table`` (keys plus one column per
key, the form in which a domain hands over its vertex and edge lists) is
written as its list of records: each column is rendered in one pass, and
every record is filled into one template of its sorted keys.  A column is
a flat column, as above, or the ``coords`` kind: lists of finite floats
that all have one length, whose items fill one nested template with no
call per entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Sequence

import numpy as np

_INDENT = "  "


class Table:
    """A list of records held column by column.

    ``keys`` are strings, and ``columns`` holds one sequence of values per
    key, all of one length.  Record i is
    ``dict(zip(keys, (col[i] for col in columns)))``; ``canonical_json``
    writes a table exactly as that list of dicts, which ``rows()`` builds.
    """

    def __init__(self, keys: Sequence[str], columns: Sequence):
        self.keys = tuple(keys)
        self.columns = tuple(columns)

    def rows(self) -> list[dict]:
        return [dict(zip(self.keys, vals)) for vals in zip(*self.columns)]


def jsonable(obj: Any) -> Any:
    """Convert numpy scalars/arrays and non-finite floats into plain JSON values.

    ``config_hash`` hashes this form; ``canonical_json`` applies the same
    rules while it writes.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Table):
        return jsonable(obj.rows())
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if np.isnan(f):
            return "nan"
        if np.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return obj


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys, two-space indentation and a trailing
    newline; stable across runs (see the module docstring)."""
    return _encode(obj, "\n") + "\n"


def _float(f: float) -> str:
    if f - f == 0.0:  # finite: nan and +-inf give nan here
        return float.__repr__(f)
    if f != f:
        return '"nan"'
    return '"inf"' if f > 0 else '"-inf"'


def _encode(obj: Any, nl: str) -> str:
    """JSON text of `obj` whose closing line starts with `nl` (newline plus
    the current indentation)."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is float:
        return _float(obj)
    if t is dict:
        return _dict(obj, nl)
    if t is list or t is tuple:
        return _list(obj, nl)
    if t is bool:
        return "true" if obj else "false"
    if t is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if t is Table:
        return _table(obj.keys, obj.columns, nl)
    # subclasses and numpy types, in jsonable's order
    if isinstance(obj, dict):
        return _dict(obj, nl)
    if isinstance(obj, (list, tuple)):
        return _list(obj, nl)
    if isinstance(obj, np.ndarray):
        return _list(list(obj.tolist()), nl)
    if isinstance(obj, (np.bool_, bool)):
        return "true" if obj else "false"
    if isinstance(obj, (np.integer, int)):
        return int.__repr__(int(obj))
    if isinstance(obj, (np.floating, float)):
        return _float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dict(obj: dict, nl: str) -> str:
    if not obj:
        return "{}"
    if set(map(type, obj)) != {str}:
        obj = {str(k): v for k, v in obj.items()}
    inner = nl + _INDENT
    items = [encode_basestring_ascii(k) + ": " + _encode(obj[k], inner) for k in sorted(obj)]
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def _list(obj: list | tuple, nl: str) -> str:
    if not obj:
        return "[]"
    return _lines(_column(obj, set(map(type, obj)), nl + _INDENT), nl)


def _lines(items: Iterable[str], nl: str) -> str:
    """A JSON array of the item texts, its closing line starting with `nl`."""
    inner = nl + _INDENT
    return "[" + inner + ("," + inner).join(items) + nl + "]"


_BOOL_TEXT = {True: "true", False: "false"}


def _column(values: Sequence, types: set, nl: str) -> Iterable[str]:
    """Texts of `values`, whose types are `types`, each written at `nl`.
    Values all of one plain type take one C call each."""
    if types == {float} and math.isfinite(sum(values)):  # no nan or +-inf
        return _finite_floats(values)
    if types == {str}:
        return map(encode_basestring_ascii, values)
    if types == {bool}:
        return map(_BOOL_TEXT.__getitem__, values)
    return [_encode(v, nl) for v in values]


def _finite_floats(values: Sequence[float]) -> Iterable[str]:
    """Texts of finite floats.  When fewer than a quarter of them are
    distinct (the lengths, measures and coordinates of a lattice domain),
    each distinct bit pattern is written once, so 0.0 and -0.0 stay apart."""
    if 4 * len(set(values)) >= len(values):
        return map(float.__repr__, values)
    bits, which = np.unique(np.array(values, dtype=float).view(np.int64), return_inverse=True)
    texts = list(map(float.__repr__, bits.view(float).tolist()))
    return map(texts.__getitem__, which.tolist())


def _cells(col: Sequence, nl: str) -> tuple[str, list[Iterable[str]]]:
    """One table column written at `nl`: the template of one cell and the
    text streams that fill its ``%s`` slots, row after row.

    A column of lists of finite floats that all have one length k > 0 is one
    stream of float texts that fills k slots of a nested template.
    """
    types = set(map(type, col))
    if types <= {list, tuple}:
        k = len(col[0])
        if k and set(map(len, col)) == {k}:
            flat = list(chain.from_iterable(col))
            if set(map(type, flat)) == {float} and math.isfinite(sum(flat)):
                inner = nl + _INDENT
                nested = "[" + inner + ("," + inner).join(["%s"] * k) + nl + "]"
                return nested, [iter(_finite_floats(flat))] * k
    return "%s", [_column(col, types, nl)]


def _table(keys: Sequence[str], columns: Sequence, nl: str) -> str:
    """Text of the records of a table given as string `keys` and one column
    per key, the array's closing line starting with `nl`.

    Each record is filled into one template of the sorted keys; the columns'
    text streams stay lazy until that fill.
    """
    if not len(columns[0]):
        return "[]"
    inner = nl + _INDENT
    field_nl = inner + _INDENT
    fields, streams = [], []
    for k in sorted(range(len(keys)), key=keys.__getitem__):
        cell, texts = _cells(columns[k], field_nl)
        fields.append(encode_basestring_ascii(keys[k]).replace("%", "%%") + ": " + cell)
        streams += texts
    template = "{" + field_nl + ("," + field_nl).join(fields) + inner + "}"
    return _lines(map(template.__mod__, zip(*streams)), nl)


def config_hash(config: dict) -> str:
    """Short stable hash of a configuration mapping, for report traceability."""
    payload = json.dumps(jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def atomic_write_text(path: str, text: str) -> None:
    """Write text to `path` via a same-directory temp file and atomic rename.

    The file gets the mode a plain open() would give it (0o666 less the
    umask); mkstemp alone would leave it at 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
