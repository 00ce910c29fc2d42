"""Shared fixtures plus the acceptance-verdict summary section."""

from __future__ import annotations

import pytest

from uniformizer import domains

ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def strip_small():
    """Half strip at h = 1/4 truncated at height 16 (585 vertices)."""
    return domains.half_strip(0.25, 16.0)


@pytest.fixture(scope="session")
def cone_small():
    """Slit cone at h = 1/2 truncated at height 16 (1,221 vertices)."""
    return domains.slit_cone(0.5, 16.0)


def fine_ladder(data: dict) -> list[float]:
    """A fine reference eps ladder for boundary data ``data``: the data
    range times 0.3**k for k = 0..20, down to about 3.5e-11 of the range."""
    values = [float(v) for v in data.values()]
    rng = max(values) - min(values)
    return [rng * 0.3**k for k in range(21)]

