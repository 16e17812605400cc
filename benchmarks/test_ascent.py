"""Timings of the uniform-recurrence kernel fill, one sweep and the power phase, on the installed pytest-benchmark.

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

The power-phase cases time the k = 1 power phase of the ascent's three
starts on `cyclic_shift(521)`, from the filled slabs to where every start
stops; each records its ``tracemalloc`` peak, the phase alone.
"""
import tracemalloc

import numpy as np
import pytest

from wwlab.recurrence import (
    _SLAB,
    _block_grams,
    _fill_slabs,
    _kernel_apply,
    _power_phase,
    _slab_layout,
    _slab_rows,
    _stack_slabs,
    _sweep,
)
from wwlab.systems import cyclic_shift, random_mean_zero, random_permutation


def _filled(system, f, k, l, N, gs, layout=None):
    rows = _slab_rows(system, l, N)
    data, slabs = _stack_slabs(system, rows)
    _fill_slabs(slabs, layout if layout is not None else _slab_layout(system, k, l, N, rows), f, gs, l, N)
    return data, rows, slabs


def _cycle(system, f, k, N, gs, A, layouts=None):
    slabs = None
    for l in range(k):
        _, _, slabs = _filled(system, f, k, l, N, gs, layouts[l] if layouts else None)
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
    A = _kernel_apply(_filled(system, f, k, 0, N, gs)[2], gs[0])
    tracemalloc.start()
    try:
        _cycle(system, f, k, N, [g.copy() for g in gs], A.copy())
        benchmark.extra_info["tracemalloc_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    layouts = [list(_slab_layout(system, k, l, N, _slab_rows(system, l, N))) for l in range(k)] if k > 1 else None
    benchmark.extra_info["slab_fill_fraction"] = [sum(rows.size * min(_SLAB, M - s) for s, rows in
                                                      zip(range(0, M, _SLAB), _slab_rows(system, l, N))) / M**2
                                                  for l in range(k)]
    slabs = benchmark.pedantic(_cycle, args=(system, f, k, N, gs, A, layouts), rounds=20, warmup_rounds=1)
    assert all(np.isfinite(S).all() for _, _, S in slabs)


@pytest.mark.parametrize("N", [8, 64], ids=["cyclic-k1-N8", "cyclic-k1-N64"])
def test_power_phase(benchmark, N):
    system = cyclic_shift(521)
    f = random_mean_zero(system, 2)
    rng = np.random.default_rng(2)
    starts = [np.ones(521, dtype=np.complex128)] + [np.exp(2j * np.pi * rng.random(521)) for _ in range(2)]
    data, rows, _ = _filled(system, f, 1, 0, N, starts[:1])
    G0 = np.stack(starts, axis=1)

    def run():
        G = G0.copy()
        _power_phase(data, rows, system.weights, G)
        return G

    tracemalloc.start()
    try:
        run()
        benchmark.extra_info["tracemalloc_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    G = benchmark.pedantic(run, rounds=10, warmup_rounds=1)
    assert np.allclose(np.abs(G), 1.0)
