"""Timings of the uniform-recurrence kernel fill, on the installed pytest-benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Run from the
repository root and keep the results under ``.benchmarks/``:

    PYTHONPATH=src python -m pytest benchmarks/test_ascent.py --benchmark-autosave

Compare two saved runs with ``pytest-benchmark compare``.  A k = 1 fill
gathers its orbits block by block, so its time includes that set-up; a
k >= 2 fill pair (l = 0, 1) reads tables gathered once beforehand, as every
cycle of the ascent does.  Each case also records the ``tracemalloc`` peak
of one run, set-up and kernel included, in ``extra_info``.
"""
import tracemalloc

import numpy as np
import pytest

from wwlab.recurrence import _fill_kernel, _kernel_rows
from wwlab.systems import cyclic_shift, random_mean_zero


def _fill_all(K, system, f, k, N, gs, rows=None):
    rows = rows or _kernel_rows(system, f, k, N)
    for l in range(k):
        _fill_kernel(K, rows, gs, l, N)


@pytest.mark.parametrize("M, k, N", [(521, 1, 512), (521, 2, 64), (521, 2, 1024)])
def test_fill_kernel(benchmark, M, k, N):
    system = cyclic_shift(M)
    f = random_mean_zero(system, 2)
    rng = np.random.default_rng(0)
    gs = [np.exp(2j * np.pi * rng.random(M)) for _ in range(k)]
    system.orbit_indices(0, 1, 1)  # cycle coordinates, built once per system
    tracemalloc.start()
    try:
        K = np.empty((M, M), dtype=np.complex128, order="F")
        _fill_all(K, system, f, k, N, gs)
        benchmark.extra_info["tracemalloc_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    rows = None if k == 1 else _kernel_rows(system, f, k, N)
    benchmark.pedantic(_fill_all, args=(K, system, f, k, N, gs, rows), rounds=20, warmup_rounds=1)
    assert np.isfinite(K).all()
