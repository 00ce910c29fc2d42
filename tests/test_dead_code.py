"""Every name a package module imports is used in that module, every
module-level private name is read somewhere in the package, and every
defaulted parameter of a package function is passed by some call.

The import check skips ``__init__.py``: it imports only to re-export.
The one allowed exception is ``solver``'s ``minimize`` and ``spsolve``:
nothing in the package calls them, but ``bench/spans.py`` wraps them by
name as the solver module sees them, so they stay imported there.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uniformizer"
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


def unpassed_defaults(definitions: dict[str, str], callers: list[str]) -> set[str]:
    """``name(param)`` for each defaulted parameter of a ``def`` in
    `definitions` (module name -> text) that no call in `callers` (texts)
    passes, by keyword or by position.

    Calls are matched by their bare or attribute name, with import aliases
    resolved; a class name matches its ``__init__``, and a method's
    positions skip its first parameter.  A call with ``*args`` passes every
    position, one with ``**kwargs`` every keyword.  ``name`` is
    ``Class.method`` for a method.  Dataclass fields have no ``def`` and are
    not covered.
    """
    defaults = set()  # (call name, label, param, call position or None)
    for source in definitions.values():
        tree = ast.parse(source)
        owner = {
            item: node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = owner.get(node)
            label = node.name if cls is None else f"{cls}.{node.name}"
            call_name = cls if node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            offset = first - (1 if cls is not None else 0)
            for k, arg in enumerate(positional[first:], start=offset):
                defaults.add((call_name, label, arg.arg, k))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    defaults.add((call_name, label, arg.arg, None))
    passed = set()  # (call name, param or position); "*" / "**" pass all
    for source in callers:
        tree = ast.parse(source)
        alias = {
            a.asname: a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names
            if a.asname
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            name = alias.get(name, name)
            if any(isinstance(a, ast.Starred) for a in node.args):
                passed.add((name, "*"))
            passed |= {(name, k) for k in range(len(node.args))}
            passed |= {(name, kw.arg or "**") for kw in node.keywords}
    return {
        f"{label}({param})"
        for name, label, param, pos in defaults
        if not {(name, param), (name, pos), (name, "**")} & passed
        and not (pos is not None and (name, "*") in passed)
    }


def test_unpassed_defaults_are_found():
    definitions = {
        "a": (
            "def f(x, y=1, *, z=2):\n    pass\n"
            "class C:\n"
            "    def __init__(self, n=0):\n        pass\n"
            "    def m(self, k=1, j=2):\n        pass\n"
        )
    }
    callers = ["from a import f as g\ng(1, 2)\nC(n=3)\nC().m(5)\n"]
    assert unpassed_defaults(definitions, callers) == {"f(z)", "C.m(j)"}


def test_every_defaulted_parameter_is_passed():
    definitions = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    callers = [p.read_text() for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")]
    assert unpassed_defaults(definitions, callers) == set()
