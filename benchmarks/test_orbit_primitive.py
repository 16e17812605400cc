"""Timings of the cycle-coordinate orbit primitive, on the installed pytest-benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Run from the
repository root and keep the results under ``.benchmarks/``:

    PYTHONPATH=src python -m pytest benchmarks --benchmark-autosave

Compare two saved runs with ``pytest-benchmark compare``.
"""
import numpy as np

from wwlab.averages import _POINT_CHUNK_BUDGET, _row_chunks
from wwlab.recurrence import ExponentVector, multiple_recurrence_average
from wwlab.systems import identity_system, random_mean_zero, random_permutation


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
            system.orbit_product([(values, 1)], points[x], n, out=seq)
        return seq

    seq = benchmark.pedantic(gather_all, rounds=10, warmup_rounds=1)
    assert seq.shape == (_POINT_CHUNK_BUDGET // N, N) and seq.flags.c_contiguous


def test_multiple_recurrence_average_streamed(benchmark):
    # two observables at N = 1024, gathered and summed one chunk of counts at a time
    system = random_permutation(8192, 1)
    fs = [random_mean_zero(system, 1), random_mean_zero(system, 2)]
    value = benchmark.pedantic(multiple_recurrence_average, args=(system, fs, ExponentVector((1, 2)), 1024),
                               rounds=5, warmup_rounds=1)
    assert 0.0 < value < 1.0
