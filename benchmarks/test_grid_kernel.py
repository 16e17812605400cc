"""Timings of the supremum grid kernel, on the installed pytest-benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Run from the
repository root and keep the results under ``.benchmarks/``:

    PYTHONPATH=src python -m pytest benchmarks --benchmark-autosave

Compare two saved runs with ``pytest-benchmark compare``.  Each case also
records the N-point transforms the kernel ran per row in ``extra_info``.
"""
import numpy as np
import pytest

from wwlab.averages import _POINT_CHUNK_BUDGET
from wwlab.supbrackets import _SCREEN_MIN_N, _grid_sup_rows
from wwlab.systems import random_mean_zero, random_permutation


def _unimodular(rows, N):
    """Random unimodular rows, the shape of a strong average's sequences."""
    return np.exp(2j * np.pi * np.random.default_rng(0).random((rows, N)))


def _quadratic_search(N):
    """The rows of a degree-2 reference search at oversample 64: u twisted
    by each of the 64 N^2 values of t_2."""
    rng = np.random.default_rng(7)
    u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    K2 = 64 * N * N
    n = np.arange(1, N + 1)
    return u[None, :] * np.exp(2j * np.pi * np.outer(np.arange(K2) / K2, n * n % K2))


def _strong_chunk(N):
    """One point chunk of a k = 1 strong average, gathered C-ordered as the kernel receives it."""
    system = random_permutation(8192, 1)
    values = random_mean_zero(system, 1).values
    points = np.arange(_POINT_CHUNK_BUDGET // N)[:, None]
    return values[system.orbit_indices(points, 1, np.arange(1, N + 1))]


def _transforms_per_row(U, oversample):
    rows = []
    ifft = np.fft.ifft

    def counting_ifft(a, *args, **kwargs):
        rows.append(a.size // a.shape[-1])
        return ifft(a, *args, **kwargs)

    np.fft.ifft = counting_ifft
    try:
        _grid_sup_rows(U, oversample)
    finally:
        np.fft.ifft = ifft
    return sum(rows) / U.shape[0]


@pytest.mark.parametrize("case, oversample", [
    ("8192x1024 unimodular", 16),
    ("1x32 unimodular", 16),
    ("3136x7 quadratic search", 16),
    ("3136x7 quadratic search", 64),
    # full point chunks at the three row lengths strong-avg runs
    *((f"{_POINT_CHUNK_BUDGET // N}x{N} strong chunk", 16) for N in (1024, 256, 64)),
    # a row length either side of the sixth-order screen's cut-over
    *((f"{_POINT_CHUNK_BUDGET // N}x{N} unimodular", 16) for N in (3 * _SCREEN_MIN_N // 4, _SCREEN_MIN_N)),
])
def test_grid_sup_rows(benchmark, case, oversample):
    shape, kind = case.split(" ", 1)
    rows, N = map(int, shape.split("x"))
    if kind == "unimodular":
        U = _unimodular(rows, N)
    elif kind == "quadratic search":
        U = _quadratic_search(N)
    else:
        U = _strong_chunk(N)
    assert U.shape == (rows, N) and U.flags.c_contiguous
    benchmark.extra_info["transforms_per_row"] = _transforms_per_row(U, oversample)
    rounds = 2000 if rows == 1 else 20 if rows * N <= 1 << 18 else 3
    lower, upper, _ = benchmark.pedantic(_grid_sup_rows, args=(U, oversample), rounds=rounds, warmup_rounds=1)
    assert np.all(lower <= upper)
