"""Shared fixtures and domain-file helpers, plus the acceptance-verdict
summary section."""

from __future__ import annotations

import base64

import numpy as np
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


# The dtype of each base64 column of a "format": 3 domain file, as the README
# documents them; ``id`` is a JSON list.
DOMAIN_DTYPES = {"measure": "<f8", "boundary": "u1", "coords": "<f8", "u": "<i4", "v": "<i4", "length": "<f8"}


def column(payload: dict, table: str, key: str) -> np.ndarray:
    """A writable copy of a base64 column of a domain file's table; the
    ``coords`` block comes as one row per vertex."""
    values = np.frombuffer(base64.b64decode(payload[table][key]), DOMAIN_DTYPES[key]).copy()
    return values.reshape(len(payload["vertices"]["id"]), -1) if key == "coords" else values


def put_column(payload: dict, table: str, key: str, values) -> None:
    """Store ``values`` as base64 column ``key`` of a domain file's table."""
    data = np.ascontiguousarray(values, dtype=DOMAIN_DTYPES[key])
    payload[table][key] = base64.b64encode(data).decode("ascii")


def set_entry(payload: dict, table: str, k: int, **fields) -> None:
    """Set entry k of some columns of a domain file's table: an ``id`` in its
    JSON list, any other column decoded, edited and encoded again (a
    ``coords`` entry is a row)."""
    for key, value in fields.items():
        if key == "id":
            payload[table][key][k] = value
        else:
            values = column(payload, table, key)
            values[k] = value
            put_column(payload, table, key, values)


def hex_columns(space) -> dict:
    """Every column of a space in construction order, each float spelled by
    ``float.hex`` (so -0.0 and every last bit count); coords by vertex id."""
    def hexes(values):
        return [float(x).hex() for x in values]

    return {
        "id": list(space.ids),
        "measure": hexes(space.measure),
        "boundary": space.boundary_mask.tolist(),
        "u": space.edge_u.tolist(),
        "v": space.edge_v.tolist(),
        "length": hexes(space.edge_length),
        "coords": None if space.coords is None else {vid: hexes(c) for vid, c in space.coords.items()},
    }
