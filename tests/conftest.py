"""Shared test fixtures."""

import pytest
from hypothesis import settings

from wwlab._util import clear_memo

# every tier-1 run draws the same Hypothesis examples, however long each takes
settings.register_profile("wwlab", derandomize=True, deadline=None)
settings.load_profile("wwlab")


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Start every test with an empty evaluation memo, so tests do not depend on their order."""
    clear_memo()
    yield
