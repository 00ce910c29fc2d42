"""Every name a package module imports is used in that module.

``__init__.py`` is skipped: it imports only to re-export.  The one allowed
exception is ``solver``'s ``minimize`` and ``spsolve``: nothing in the
package calls them, but ``bench/spans.py`` wraps them by name as the
solver module sees them, so they stay imported there.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "uniformizer"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
UNUSED_ON_PURPOSE = {"solver": {"minimize", "spsolve"}}


def unused_imports(source: str) -> set[str]:
    """Names bound by import statements that no Name node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_unused_imports_are_found():
    source = "import numpy as np\nfrom .solver import Condenser, capacity\ncapacity(np)\n"
    assert unused_imports(source) == {"Condenser"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == UNUSED_ON_PURPOSE.get(path.stem, set())
