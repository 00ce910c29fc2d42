"""Every name a package module imports is used in that module, every
module-level private name is read somewhere in the package, every
defaulted parameter of a package function is passed by some call, every
public name and public method has a caller outside the unit tests, and
every command-line option is passed by a test, a bench script or the README.

The import check skips ``__init__.py``: it imports only to re-export.
The one allowed exception is ``solver``'s ``spsolve``: nothing in the
package calls it, but ``bench/spans.py`` wraps it by name as the solver
module sees it, so it stays imported there.  ``bench/spans.py`` wraps
``solver.minimize`` the same way; that name resolves through the module's
``__getattr__``, which imports ``scipy.optimize`` only when it is asked for,
so ``minimize`` is no unused import.
"""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

import pytest

import uniformizer
from uniformizer.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uniformizer"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
UNUSED_ON_PURPOSE = {"solver": {"spsolve"}}


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


def uncalled_public_names(
    exported: list[str], definitions: dict[str, str], callers: list[str], readme: str
) -> set[str]:
    """Each name of `exported`, and ``Class.method`` for each public method
    of a class in `definitions` (module name -> text), that no Name load and
    no attribute in `callers` (texts) reads and that `readme` does not hold
    as a word.

    Names are matched bare, so any local or attribute of the same name
    counts as a read.  That hides some dead names: locals named ``bands`` and
    ``total`` would hide a module function ``bands()`` and a method
    ``BoundaryMeasure.total``.
    """
    methods = {
        (f"{node.name}.{item.name}", item.name)
        for source in definitions.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }
    read = set(re.findall(r"\w+", readme))
    for source in callers:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return {label for label, name in {(e, e) for e in exported} | methods if name not in read}


def test_uncalled_public_names_are_found():
    definitions = {
        "a": (
            "def f():\n    pass\ndef g():\n    pass\n"
            "class C:\n"
            "    def m(self):\n        pass\n    def n(self):\n        pass\n"
            "    def o(self):\n        pass\n    def _p(self):\n        pass\n"
        )
    }
    callers = ["f()\nx = C()\nx.m()\n"]
    readme = "Call `C.n` or `h`."
    assert uncalled_public_names(["f", "g", "C", "h"], definitions, callers, readme) == {"g", "C.o"}


def test_every_public_name_has_a_caller():
    """A caller is a package module other than ``__init__.py``, a bench
    script, the acceptance tests or the README; unit tests do not count."""
    definitions = {p.stem: p.read_text() for p in MODULES}
    callers = [p.read_text() for p in [*MODULES, *(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]]
    readme = (ROOT / "README.md").read_text()
    assert uncalled_public_names(uniformizer.__all__, definitions, callers, readme) == set()


def unpassed_options(parser, callers: list[str], readme: str) -> set[str]:
    """``subcommand option`` for each option string of each subcommand of
    `parser`, ``-h``/``--help`` aside, that no text of `callers` holds in
    quotes and `readme` does not hold as a word."""
    subparsers = next(a for a in parser._actions if a.choices and a.dest == "command")
    options = {
        (name, opt)
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }
    quoted = set(re.findall(r"""["'](-[\w-]+)["']""", "\n".join(callers)))
    words = set(re.findall(r"(?<![\w-])(--?[\w][\w-]*)", readme))
    return {f"{name} {opt}" for name, opt in options if opt not in quoted | words}


def test_unpassed_options_are_found():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    a = sub.add_parser("a")
    for opt in ("--quoted", "--in-readme", "--nowhere", "--in-readme-too"):
        a.add_argument(opt)
    sub.add_parser("b").add_argument("--also-nowhere")
    callers = ["run(['a', '--quoted'])\nx = '--quoted-not' + \"--nowhere-else\""]
    readme = "uniformizer a --in-readme x, and `--in-readme-tool`"
    assert unpassed_options(parser, callers, readme) == {"a --nowhere", "a --in-readme-too", "b --also-nowhere"}


def test_every_cli_option_is_passed():
    callers = [p.read_text() for d in ("tests", "bench") for p in (ROOT / d).glob("*.py")]
    assert unpassed_options(build_parser(), callers, (ROOT / "README.md").read_text()) == set()
