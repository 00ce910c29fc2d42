"""``import uniformizer.cli`` loads no scipy module that a common path does
not run: the line search is the package's own Brent port, and the one
quadrature imports ``scipy.integrate`` where it runs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import uniformizer.cli
loaded = [m for m in ("scipy.optimize", "scipy.integrate", "scipy.special") if m in sys.modules]
assert not loaded, loaded
from uniformizer.dampening import log_power, tail_integral
value = tail_integral(log_power(2.0), 3.0)
assert value > 0, value
assert "scipy.integrate" in sys.modules
"""


def test_cli_import_leaves_optimize_integrate_and_special_out():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
