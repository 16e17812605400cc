"""Shared test fixtures."""

import pytest

from wwlab._util import clear_memo


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Start every test with an empty evaluation memo, so tests do not depend on their order."""
    clear_memo()
    yield
