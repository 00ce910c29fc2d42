"""Shared plumbing: deterministic JSON and atomic file writes.

Everything here is deliberately boring.  Reports must be byte-identical across
runs with the same inputs, so JSON serialization is centralized and file
writes go through a temp-file-plus-rename so readers never observe partial
output.

``canonical_json`` is ``json.dumps`` with sorted keys and two-space
indentation on the ``jsonable`` form of a value: numpy scalars and arrays
become plain values and lists, nan and +-inf become the strings ``"nan"``,
``"inf"`` and ``"-inf"``, and dict keys become strings.  Domain files are
written by ``graphspace.dump_domain``, compactly and in column form.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from typing import Any

import numpy as np


def jsonable(obj: Any) -> Any:
    """Convert numpy scalars/arrays and non-finite floats into plain JSON values.

    Dict keys are turned into strings (``str(k)``); keys that collide as
    strings keep the last value.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys, two-space indentation and a trailing
    newline; stable across runs."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


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
