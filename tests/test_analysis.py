"""Decay fitting, domination witnesses, the check registry, and Hilbert sums."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwlab.analysis import (
    CheckRow,
    InequalityCheck,
    PhaseWeights,
    ReturnTimesWeights,
    SeriesReport,
    available_checks,
    decay_fit,
    hilbert_criterion,
    hilbert_partial_sums,
    precsim_fit,
    run_named_check,
)
from wwlab.recurrence import ExponentVector
from wwlab.systems import constant_observable, cyclic_shift, identity_system, random_mean_zero, random_permutation


# -- series containers --------------------------------------------------------


def test_series_report_validation():
    SeriesReport("ok", [(8, 1.0), (16, 0.5)])
    with pytest.raises(ValueError):
        SeriesReport("bad", [(16, 1.0), (8, 0.5)])
    with pytest.raises(ValueError):
        SeriesReport("bad", [(8, -1.0)])


def test_series_report_window():
    s = SeriesReport("s", [(8, 1.0), (16, 0.5), (32, 0.25)])
    w = s.window(10, 32)
    assert list(w.lengths) == [16, 32]
    assert w.label == "s"


# -- power-law fitting --------------------------------------------------------


def test_decay_fit_recovers_planted_power_law():
    entries = [(N, 10.0 * N**-0.5) for N in (16, 32, 64, 128, 256)]
    fit = decay_fit(entries)
    assert fit.alpha_hat == pytest.approx(0.5, abs=1e-6)
    assert fit.C_hat == pytest.approx(10.0, abs=1e-4)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_flat_series():
    fit = decay_fit([(N, 3.0) for N in (8, 16, 32, 64)])
    assert fit.alpha_hat == pytest.approx(0.0, abs=1e-9)


def test_decay_fit_zero_sentinel():
    fit = decay_fit([(8, 1.0), (16, 0.5), (32, 0.0), (64, 0.1)])
    assert fit.alpha_hat == math.inf


def test_decay_fit_window_and_minimum_points():
    entries = [(N, 1.0 / N) for N in (8, 16, 32, 64, 128)]
    fit = decay_fit(entries, window=(16, 128))
    assert fit.window == (16, 128)
    with pytest.raises(ValueError):
        decay_fit(entries, window=(100, 128))


# -- domination witnesses -----------------------------------------------------


def test_precsim_reflexivity():
    series = [(N, N**-0.5) for N in (16, 32, 64, 128)]
    full = [(n, n**-0.5) for n in range(1, 129)]
    wit = precsim_fit(series, full)
    assert wit is not None
    # x <= 1 * (N^-alpha + x) always holds, so the minimized C is at most 1
    assert wit.C <= 1.0 + 1e-12
    assert wit.residual <= 1e-12


def test_precsim_dominated_by_zero():
    f = [(N, N**-0.5) for N in (16, 32, 64, 128)]
    zero = [(N, 0.0) for N in range(1, 129)]
    wit = precsim_fit(f, zero)
    assert wit is not None
    assert wit.C <= 1.0 + 1e-12


def test_precsim_rejects_constant_against_decaying():
    f = [(N, 1.0) for N in (16, 32, 64, 128, 256)]
    g = [(n, 1.0 / n) for n in range(1, 257)]
    assert precsim_fit(f, g) is None


def test_precsim_coverage_gap_is_named():
    f = [(N, N**-0.5) for N in (16, 32, 64)]
    g = [(n, 0.0) for n in range(2, 65, 2)]  # odd lengths missing
    with pytest.raises(ValueError, match="comparison series at N"):
        precsim_fit(f, g)


# -- named checks -------------------------------------------------------------


def test_vdc_frozen_unit_sequence():
    # ones of length 4, H = 1: lhs = 1, rhs = 5/32*4 + 10/64*3 = 1.09375
    chk = run_named_check("vdc", sequence=np.ones(4), H_values=[1])
    assert chk.verdict
    row = chk.rows[0]
    assert row.lhs == 1.0
    assert row.rhs_core == 1.09375
    assert row.slack == 0.09375
    assert row.slack == row.slack_outer


def test_vdc_rejects_window_beyond_length():
    with pytest.raises(ValueError):
        run_named_check("vdc", sequence=np.ones(4), H_values=[5])


def test_every_registered_check_passes_defaults():
    for name in available_checks():
        chk = run_named_check(name)
        assert chk.verdict, f"{name} failed on its default scenario: {chk.notes}"
        assert chk.c_max < math.inf
        assert chk.rows


def test_unknown_check_name_lists_registry():
    with pytest.raises(KeyError, match="vdc"):
        run_named_check("does_not_exist")


def test_inequality_check_stability_reading():
    def row(N, c):
        return CheckRow(N, c, 1.0, c, 1.0 - c, 1.0 - c)

    falling = InequalityCheck("x", [row(8, 0.9), row(16, 0.5)], 0.9, True, "exact")
    rising = InequalityCheck("x", [row(8, 0.5), row(16, 0.9)], 0.9, True, "exact")
    assert falling.stable()
    assert not rising.stable()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 64), st.sampled_from([0.5, 0.9, 1.0]))
def test_hilbert_cauchy_random_sequences(seed, length, sigma):
    rng = np.random.default_rng(seed)
    seq = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    chk = run_named_check("hilbert_cauchy", sequence=seq, sigma=sigma)
    assert chk.verdict
    assert min(r.slack for r in chk.rows) >= -1e-9


# -- Hilbert transforms along orbits ------------------------------------------


def test_phase_weights_alternating_signs():
    w = PhaseWeights((0.5,)).sequence(6)
    assert np.allclose(w, [(-1.0) ** n for n in range(1, 7)], atol=1e-12)


def test_alternating_harmonic_sum():
    # sum (-1)^n / n -> -ln 2
    system = identity_system(1)
    sums = hilbert_partial_sums(
        system, 0, [constant_observable(system)], ExponentVector((1,)),
        1.0, 1024, weights=PhaseWeights((0.5,)),
    )
    assert abs(sums.final.real + math.log(2)) < 1e-3
    assert abs(sums.final.imag) < 1e-9
    assert sums.lengths[-1] == 1024


def test_unit_return_times_weights_match_unweighted():
    base = cyclic_shift(13)
    companion = cyclic_shift(7)
    from wwlab.systems import random_mean_zero

    f = random_mean_zero(base, 4)
    rt = ReturnTimesWeights(companion, 0, (constant_observable(companion),), (1,))
    weighted = hilbert_partial_sums(base, 3, [f], ExponentVector((1,)), 0.9, 128, weights=rt)
    plain = hilbert_partial_sums(base, 3, [f], ExponentVector((1,)), 0.9, 128)
    assert np.array_equal(weighted.values, plain.values)


def test_hilbert_criterion_accepts_decaying_averages():
    L = 512
    avgs = [(N, N**-0.5) for N in range(1, L + 1)]
    verdict = hilbert_criterion(avgs, 0.9, window=(16, L))
    assert verdict.accept
    assert verdict.tail_sum < math.inf


def test_hilbert_criterion_rejects_constant_averages():
    L = 512
    avgs = [(N, 1.0) for N in range(1, L + 1)]
    verdict = hilbert_criterion(avgs, 1.0, window=(16, L))
    assert not verdict.accept


def test_hilbert_criterion_validation():
    avgs = [(N, 1.0) for N in range(1, 65)]
    with pytest.raises(ValueError):
        hilbert_criterion(avgs, 1.5)
    with pytest.raises(ValueError):
        hilbert_criterion([(N, 1.0) for N in range(2, 65)], 0.9)  # no N = 1
    with pytest.raises(ValueError):
        hilbert_criterion(avgs, 0.9, window=(30, 40))  # too few points / doublings


def test_hilbert_partial_sums_read_one_orbit():
    # the sums at one base point read that point's orbit only: no table of
    # every point's orbit (here 2049 x 4096 int64, 67 MB)
    system = random_permutation(4096, 3)
    f, g = random_mean_zero(system, 1), random_mean_zero(system, 2)
    weights = ReturnTimesWeights(system, 11, (g,), (3,))
    tracemalloc.start()
    try:
        hilbert_partial_sums(system, 5, [f, g], ExponentVector((1, 2)), 0.9, 2048, weights=weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10**6), st.sampled_from([1, -2, 3, 2**62 + 1]), st.integers(1, 90))
def test_pointwise_orbit_readers_match_a_walk(size, seed, a, N):
    # return-times weights and Hilbert sums at one point against products
    # taken one n at a time along T^{a n} y, found by walking the forward map
    system = random_permutation(size, seed)
    f, g = random_mean_zero(system, seed), random_mean_zero(system, seed + 1)
    y = seed % size
    orbit = [y]
    while (z := int(system.forward[orbit[-1]])) != y:
        orbit.append(z)
    walk = [orbit[(a * n) % len(orbit)] for n in range(1, N + 1)]
    w = ReturnTimesWeights(system, y, (g, f), (a, 1)).sequence(N)
    walk1 = [orbit[n % len(orbit)] for n in range(1, N + 1)]
    expected = [complex(g.values[i]) * complex(f.values[j]) for i, j in zip(walk, walk1)]
    assert w.tolist() == expected
    sums = hilbert_partial_sums(system, y, [f], ExponentVector((a,)), 1.0, N)
    terms = f.values[walk] / np.arange(1, N + 1)
    assert np.array_equal(sums.values, np.cumsum(terms))
