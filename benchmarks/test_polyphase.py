"""Timings of the polynomial-phase supremum search, on the installed pytest-benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Run from the
repository root and keep the results under ``.benchmarks/``:

    PYTHONPATH=src python -m pytest benchmarks --benchmark-autosave

Compare two saved runs with ``pytest-benchmark compare``.
"""
import numpy as np

from wwlab.recurrence import ExponentVector, polyphase_mrec_sup
from wwlab.supbrackets import sup_polyphase
from wwlab.systems import random_mean_zero, random_permutation


def test_polyphase_mrec_sup_degree_two(benchmark):
    # every point's quadratic-phase search: 576 twisted rows of 6 per point
    system = random_permutation(512, 3)
    fs = [random_mean_zero(system, 1), random_mean_zero(system, 2)]
    br = benchmark.pedantic(polyphase_mrec_sup, args=(system, fs, ExponentVector((1, 2)), 2, 6),
                            rounds=5, warmup_rounds=1)
    assert br.lower <= br.upper


def test_sup_polyphase_degree_three(benchmark):
    # the uncertified search over 36 x 108 outer grid points at oversample 4
    rng = np.random.default_rng(5)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    br = benchmark.pedantic(sup_polyphase, args=(u, 3, 4), rounds=50, warmup_rounds=1)
    assert not br.certified and br.lower <= br.upper
