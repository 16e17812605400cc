"""Timings of the uniform-recurrence kernel fill, the power phase and one sweep, on the installed pytest-benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Run from the
repository root and keep the results under ``.benchmarks/``:

    PYTHONPATH=src python -m pytest benchmarks/test_ascent.py --benchmark-autosave

Compare two saved runs with ``pytest-benchmark compare``.  A k = 1 round of
``test_fill_and_sweep`` does what a first-order ascent with complex
companions does: it stacks the kernel, streams its slab groups' layouts
into the fill, and runs the power phase of the ascent's three starts (the
all-ones start and two seeded ones) until every start stops; it builds no
Gram rows and runs no sweep, and it records the steps each start took.  A
k >= 2 round refills every companion l in turn, from kernels stacked once
and group layouts kept once beforehand, builds their Gram rows and sweeps
once, as one cycle of the ascent does.  The cyclic cases have labels along
the orbits, so a slab holds (l + 1) N + 15 rows; the random permutation's
slabs hold up to 16 N rows and are nearly full height at N = 64.  Each case
records its slab fill fraction (stored entries over M², per l) and the
``tracemalloc`` peak of one round, set-up included, in ``extra_info``.

The power-phase cases time the k = 1 power phase of the ascent's three
starts alone, from the filled slabs to where every start stops, on
`cyclic_shift(521)` and on the tall slabs (up to 128 rows) of
`random_permutation(2048, 1)` at N = 8; each records its ``tracemalloc``
peak and the steps each start took.
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


def _filled(system, f, k, l, N, gs):
    rows = _slab_rows(system, l, N)
    data, slabs = _stack_slabs(system, rows)
    _fill_slabs(data, slabs, _slab_layout(system, k, l, N, rows), f, gs, l, N)
    return data, rows, slabs


def _kept(system, k, N):
    """Per companion l: its stacked slabs and its group layouts, as an ascent at k >= 2 keeps them."""
    kept = []
    for l in range(k):
        rows = _slab_rows(system, l, N)
        kept.append((*_stack_slabs(system, rows), list(_slab_layout(system, k, l, N, rows))))
    return kept


def _cycle(system, f, k, N, gs, A, kept):
    slabs = None
    for l in range(k):
        slabs = _fill_slabs(*kept[l], f, gs, l, N)
        _sweep(slabs, _block_grams(slabs), gs[l], A, False)
    return slabs


def _first_order(system, f, N, G0):
    """The kernel work of one k = 1 ascent: stack and fill the slabs, then the power phase of every start."""
    data, rows, _ = _filled(system, f, 1, 0, N, [G0[0]])
    G = G0.copy()
    return G, _power_phase(data, rows, system.weights, G)


def _starts(M, rng):
    """The all-ones start and two seeded ones, as the ascent draws them."""
    return np.stack([np.ones(M, dtype=np.complex128)] + [np.exp(2j * np.pi * rng.random(M)) for _ in range(2)])


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
    system.orbit_indices(0, 1, 1)  # cycle coordinates, built once per system
    if k == 1:
        run, args = _first_order, (system, f, N, _starts(M, rng))
    else:
        gs = [np.exp(2j * np.pi * rng.random(M)) for _ in range(k)]
        A = _kernel_apply(_filled(system, f, k, 0, N, gs)[2], gs[0])
        # the timed rounds go on from the companions the previous round left
        run, args = _cycle, (system, f, k, N, gs, A, _kept(system, k, N))
    tracemalloc.start()
    try:
        if k == 1:
            run(*args)
        else:  # on copies, with the kept kernels and layouts made inside
            run(system, f, k, N, [g.copy() for g in gs], A.copy(), _kept(system, k, N))
        benchmark.extra_info["tracemalloc_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    benchmark.extra_info["slab_fill_fraction"] = [sum(rows.size * min(_SLAB, M - s) for s, rows in
                                                      zip(range(0, M, _SLAB), _slab_rows(system, l, N))) / M**2
                                                  for l in range(k)]
    out = benchmark.pedantic(run, args=args, rounds=20, warmup_rounds=1)
    if k == 1:
        G, steps = out
        benchmark.extra_info["steps_per_start"] = steps.tolist()
        assert np.allclose(np.abs(G), 1.0)
    else:
        assert all(np.isfinite(S).all() for _, _, S in out)


@pytest.mark.parametrize("system, N", [
    (cyclic_shift(521), 8),
    (cyclic_shift(521), 64),
    (random_permutation(2048, 1), 8),
], ids=["cyclic-k1-N8", "cyclic-k1-N64", "random-k1-N8"])
def test_power_phase(benchmark, system, N):
    M = system.size
    f = random_mean_zero(system, 2)
    G0 = _starts(M, np.random.default_rng(2))
    data, rows, _ = _filled(system, f, 1, 0, N, [G0[0]])

    def run():
        G = G0.copy()
        return G, _power_phase(data, rows, system.weights, G)

    tracemalloc.start()
    try:
        run()
        benchmark.extra_info["tracemalloc_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    G, steps = benchmark.pedantic(run, rounds=10, warmup_rounds=1)
    benchmark.extra_info["steps_per_start"] = steps.tolist()
    assert np.allclose(np.abs(G), 1.0)
