"""The README's Python blocks run as written (the file-format snippet and
the Python API block), and its table of verify checks is the CLI's."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from uniformizer import domains
from uniformizer.cli import CHECKS
from uniformizer.graphspace import dump_domain, from_payload

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_file_format_snippet_reads_and_writes_a_column(tmp_path, monkeypatch):
    blocks = [b for b in _python_blocks() if "b64decode" in b]
    assert len(blocks) == 1 and len(blocks[0].splitlines()) == 4
    space = domains.half_strip(0.5, 8).space
    dump_domain(space, str(tmp_path / "strip.json"))
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    np.testing.assert_array_equal(scope["length"], space.edge_length)
    np.testing.assert_array_equal(from_payload(scope["domain"]).edge_length, 2 * space.edge_length)


def test_readme_python_block_runs(capsys):
    blocks = [b for b in _python_blocks() if "b64decode" not in b]
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].split()[0] == "Parabolic"


def test_readme_check_table_is_the_verify_table():
    """The README's table of verify checks says what ``cli.CHECKS`` says."""
    rows = re.findall(r"^\| `(\w+)` \| *(\w*) *\| *(\w*) *\| `([^`]*)` \|$", README.read_text(), flags=re.M)
    readme = {name: (phi, nu, tuple(opt[2:].replace("-", "_") for opt in opts.split())) for name, phi, nu, opts in rows}
    assert readme == {name: (c.phi, "required" if c.nu else "", c.reads) for name, c in CHECKS.items()}
