"""Shared fixtures and small oracles for the test suite."""

from __future__ import annotations

import pytest

from qgrpsim.config import parse_config
from qgrpsim.dcf import CollisionTable


def make_config(extra: str = ""):
    """Parse a config document consisting of defaults plus the given overrides."""
    return parse_config(extra)


def reference_format_log(event_log) -> str:
    """What format_log must render: each row's reprs joined by commas, one row a line."""
    return "".join(",".join(map(repr, row)) + "\n" for row in event_log) or "\n"


def constant_table(p_c: float) -> CollisionTable:
    """A one-cell collision table pinning every lookup to p_c."""
    return CollisionTable((1.0,), (1.0,), ((p_c,),))


@pytest.fixture
def zero_table() -> CollisionTable:
    return constant_table(0.0)
