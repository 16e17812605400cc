"""Timings of the uniform-recurrence kernel fill and one sweep, on the installed pytest-benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Run from the
repository root and keep the results under ``.benchmarks/``:

    PYTHONPATH=src python -m pytest benchmarks/test_ascent.py --benchmark-autosave

Compare two saved runs with ``pytest-benchmark compare``.  One round fills
the slabs of every companion l in turn, builds their Gram rows and sweeps
once, as one cycle of the ascent does.  A k = 1 fill gathers its orbits
slab by slab, so its time includes that set-up; a k >= 2 fill reads slab
layouts gathered once beforehand, as every cycle of the ascent does.  The
cyclic cases have labels along the orbits, so a slab holds (l + 1) N + 15
rows; the random permutation's slabs hold up to 16 N rows and are nearly
full height at N = 64.  Each case records its slab fill fraction (stored
entries over M², per l) and the ``tracemalloc`` peak of one round, set-up
included, in ``extra_info``.
"""
import tracemalloc

import numpy as np
import pytest

from wwlab.recurrence import _block_grams, _fill_slabs, _kernel_apply, _slab_layout, _sweep
from wwlab.systems import cyclic_shift, random_mean_zero, random_permutation


def _cycle(system, f, k, N, gs, A, layouts=None):
    slabs = None
    for l in range(k):
        layout = layouts[l] if layouts else _slab_layout(system, k, l, N)
        slabs = _fill_slabs(layout, f, gs, l, N)
        _sweep(slabs, _block_grams(slabs), gs[l], A, False)
    return slabs


@pytest.mark.parametrize("system, k, N", [
    (cyclic_shift(521), 1, 8),
    (cyclic_shift(521), 1, 64),
    (cyclic_shift(521), 1, 256),
    (cyclic_shift(521), 1, 512),
    (cyclic_shift(521), 2, 64),
    (random_permutation(521, 0), 1, 64),
], ids=["cyclic-k1-N8", "cyclic-k1-N64", "cyclic-k1-N256", "cyclic-k1-N512", "cyclic-k2-N64",
        "random-k1-N64"])
def test_fill_and_sweep(benchmark, system, k, N):
    M = system.size
    f = random_mean_zero(system, 2)
    rng = np.random.default_rng(0)
    gs = [np.exp(2j * np.pi * rng.random(M)) for _ in range(k)]
    system.orbit_indices(0, 1, 1)  # cycle coordinates, built once per system
    A = _kernel_apply(_fill_slabs(_slab_layout(system, k, 0, N), f, gs, 0, N), gs[0])
    tracemalloc.start()
    try:
        _cycle(system, f, k, N, [g.copy() for g in gs], A.copy())
        benchmark.extra_info["tracemalloc_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    layouts = [list(_slab_layout(system, k, l, N)) for l in range(k)] if k > 1 else None
    benchmark.extra_info["slab_fill_fraction"] = [
        sum(rows.size * len(bins) // N for rows, _, bins, _ in _slab_layout(system, k, l, N)) / M**2 for l in range(k)]
    slabs = benchmark.pedantic(_cycle, args=(system, f, k, N, gs, A, layouts), rounds=20, warmup_rounds=1)
    assert all(np.isfinite(S).all() for _, _, S in slabs)
