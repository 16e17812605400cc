"""Timings of the supremum grid kernel, on the installed pytest-benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Run from the
repository root and keep the results under ``.benchmarks/``:

    PYTHONPATH=src python -m pytest benchmarks --benchmark-autosave

Compare two saved runs with ``pytest-benchmark compare``.
"""
import numpy as np
import pytest

from wwlab.supbrackets import _grid_sup_rows


@pytest.mark.parametrize("rows, N", [(8192, 1024), (1, 32)])
def test_grid_sup_rows(benchmark, rows, N):
    # random unimodular rows, the shape of a strong average's sequences
    U = np.exp(2j * np.pi * np.random.default_rng(0).random((rows, N)))
    rounds = 3 if rows > 1 else 2000
    lower, upper, _ = benchmark.pedantic(_grid_sup_rows, args=(U, 16), rounds=rounds, warmup_rounds=1)
    assert np.all(lower <= upper)
