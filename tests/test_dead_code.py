"""Every name a package module imports is used in that module, and every
module-level private name is read somewhere in the package.

The import check skips ``__init__.py``: it imports only to re-export.
The one allowed exception is ``solver``'s ``minimize`` and ``spsolve``:
nothing in the package calls them, but ``bench/spans.py`` wraps them by
name as the solver module sees them, so they stay imported there.
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


def unread_private_names(sources: dict[str, str]) -> set[str]:
    """``module._name`` for each module-level private name (one leading
    underscore, bound by an assignment, def or class) that no Name node and
    no attribute of any of `sources` (module name -> text) reads."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined |= {(module, n) for n in names if n.startswith("_") and not n.startswith("__")}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return {f"{module}.{name}" for module, name in defined if name not in read}


def test_unread_private_names_are_found():
    sources = {"a": "_A = 1\n_B: int = 2\ndef _f():\n    return _A\nclass _C:\n    pass\n", "b": "x = 1\n"}
    assert unread_private_names(sources) == {"a._B", "a._f", "a._C"}


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == set()
