"""Atomic file writes."""

from __future__ import annotations

import os
import stat

import pytest

from uniformizer.util import atomic_write_text


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
