"""Timings of the cycle-coordinate orbit primitive, on the installed pytest-benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Run from the
repository root and keep the results under ``.benchmarks/``:

    PYTHONPATH=src python -m pytest benchmarks --benchmark-autosave

Compare two saved runs with ``pytest-benchmark compare``.
"""
import numpy as np

from wwlab.averages import _POINT_CHUNK_BUDGET, _row_chunks
from wwlab.systems import identity_system, random_permutation


def test_power_indices_fresh_identity(benchmark):
    # each round gets a new system, so its cycle decomposition is timed too;
    # building the system itself is not
    def fresh():
        return (identity_system(20000),), {}

    idx = benchmark.pedantic(lambda system: system.power_indices(3), setup=fresh, rounds=50, warmup_rounds=1)
    assert np.array_equal(idx, np.arange(20000))


def test_strong_kernel_chunk_gather(benchmark):
    # one pass of the strong kernel's orbit reads on the strong-avg k = 1 system
    system = random_permutation(8192, 1)
    values = np.exp(2j * np.pi * np.random.default_rng(0).random(system.size))
    N = 1024
    points, n = np.arange(system.size)[:, None], np.arange(1, N + 1)

    def gather_all():
        for x, seq in _row_chunks(system.size, N, _POINT_CHUNK_BUDGET):
            np.take(values, system.orbit_indices(points[x], 1, n), out=seq, mode="clip")
        return seq

    seq = benchmark.pedantic(gather_all, rounds=10, warmup_rounds=1)
    assert seq.shape == (_POINT_CHUNK_BUDGET // N, N) and seq.flags.c_contiguous
