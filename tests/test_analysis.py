"""Decay fitting, domination witnesses, the check registry, and Hilbert sums."""

import math
import os
import subprocess
import sys
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
    check_parameters,
    decay_fit,
    hilbert_criterion,
    hilbert_partial_sums,
    precsim_fit,
    run_named_check,
)
from wwlab import analysis
from wwlab._util import BudgetExceeded
from wwlab.recurrence import ExponentVector, _orbit_scalars, companion_weights
from wwlab.systems import (
    Observable, constant_observable, cyclic_shift, identity_system, random_mean_zero, random_permutation,
)


# -- series containers --------------------------------------------------------


def test_series_report_validation():
    SeriesReport("ok", [(8, 1.0), (16, 0.5)])
    with pytest.raises(ValueError):
        SeriesReport("bad", [(16, 1.0), (8, 0.5)])
    with pytest.raises(ValueError):
        SeriesReport("bad", [(8, -1.0)])


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
    assert decay_fit(entries).window == (8, 128)  # the window is the whole series
    with pytest.raises(ValueError):
        decay_fit(entries[:3])


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
    with pytest.raises(KeyError, match="vdc"):
        check_parameters("does_not_exist")


def test_checks_read_only_their_declared_scenario():
    assert check_parameters("vdc") == ("sequence", "H_values", "seed", "length", "budget")
    assert check_parameters("weak_product")[:4] == ("system_a", "system_b", "f", "g")
    with pytest.raises(TypeError):
        run_named_check("vdc", system=cyclic_shift(5))


# Every registered check at its defaults, reverse_bourgain's exact sign-class
# leg, intermediate_F_ptwise through its S.T @ W product on a 521 x 131
# scenario, and a fixed decay and domination fit, with every float written as
# float.hex().
_GOLDEN_PROBE = """
import dataclasses, hashlib, json, math
from wwlab.analysis import available_checks, decay_fit, precsim_fit, run_named_check
from wwlab.systems import cyclic_shift, random_permutation

def canon(x):
    if dataclasses.is_dataclass(x):
        return canon(dataclasses.astuple(x))
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    return float(x).hex() if isinstance(x, float) else x

checks = [run_named_check(name) for name in available_checks()]
checks.append(run_named_check("reverse_bourgain", system=cyclic_shift(8), N_values=(16,), brute=True))
checks.append(run_named_check("intermediate_F_ptwise", system=random_permutation(521, 1),
                              system_y=random_permutation(131, 2), N_values=(256,)))
fits = [decay_fit([(N, 2.5 * N ** -0.4 * (1 + 0.05 * math.sin(N))) for N in (8, 16, 32, 64, 128)]),
        precsim_fit([(N, N ** -0.3 + 0.01 * math.cos(N)) for N in (16, 32, 64, 128)],
                    [(n, n ** -0.5) for n in range(1, 129)])]
print(hashlib.sha256(json.dumps(canon(checks + fits)).encode()).hexdigest())
"""
# re-pinned when the first-order complex ascent became its power phase alone,
# which moved only the bourgain and reverse_bourgain rows, by at most 1.3e-10
# relative (CHANGES.md)
_GOLDEN_DIGEST = "32e0f66c2a841a0791b0b1769443132c5c7666f9dd29e2e62b97bfb3bcbbfb4d"


def test_check_outputs_match_the_golden_digest_at_one_and_two_blas_threads():
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _GOLDEN_PROBE], capture_output=True, text=True,
                             check=True, env=env).stdout.strip()
        assert out == _GOLDEN_DIGEST, f"BLAS threads {threads}"


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
    assert sums.entries[-1][0] == 1024


def test_unit_return_times_weights_match_unweighted():
    base = cyclic_shift(13)
    companion = cyclic_shift(7)
    from wwlab.systems import random_mean_zero

    f = random_mean_zero(base, 4)
    rt = ReturnTimesWeights(companion, 0, (constant_observable(companion),), (1,))
    weighted = hilbert_partial_sums(base, 3, [f], ExponentVector((1,)), 0.9, 128, weights=rt)
    plain = hilbert_partial_sums(base, 3, [f], ExponentVector((1,)), 0.9, 128)
    assert np.array_equal(weighted.values, plain.values)


def test_return_times_weights_match_the_orbit_scalars():
    # the Y side of a weighted Hilbert sum is the same orbit product as the X side
    system = random_permutation(16384, 7)
    gs = [random_mean_zero(system, 1), random_mean_zero(system, 2)]
    w = ReturnTimesWeights(system, 3, tuple(gs), (1, 2)).sequence(4096)
    assert w.tobytes() == _orbit_scalars(system, gs, ExponentVector((1, 2)), 3, 4096).tobytes()
    with pytest.raises(ValueError, match="one companion observable per step"):
        ReturnTimesWeights(system, 3, tuple(gs[:1]), (1, 2)).sequence(8)


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


def _maximal_lhs_oracle(system, values, p, N_cap):
    """The maximal check's left side from one (N_cap, M) table of running averages."""
    n = np.arange(1, N_cap + 1)
    samples = values[system.orbit_indices(slice(None), 1, n[:, None])]
    m = (np.cumsum(samples, axis=0) / n[:, None]).max(axis=0)
    return math.fsum((system.weights * m**p).tolist()) ** (1.0 / p)


@pytest.mark.parametrize("size, N_cap", [(13, None), (300, None), (5, 70000), (70000, 3)])
def test_maximal_check_streams_lengths_bit_for_bit(size, N_cap):
    # one chunk, several chunks, many short chunks, and chunks of one length
    system = random_permutation(size, size)
    f = Observable(np.abs(np.random.default_rng(size).standard_normal(size)))
    row = run_named_check("maximal", system=system, f=f, p=2.5, N_cap=N_cap).rows[0]
    assert row.lhs == _maximal_lhs_oracle(system, f.values.real, 2.5, N_cap or 4 * size)


def test_maximal_check_memory_is_linear_in_the_system():
    system = random_permutation(1024, 1)  # 4096 lengths: a table of them would be 32 MiB per array
    tracemalloc.start()
    try:
        run_named_check("maximal", system=system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    with pytest.raises(BudgetExceeded):
        run_named_check("maximal", system=system, N_cap=10**8)
    with pytest.raises(BudgetExceeded):
        run_named_check("maximal", budget=1.0)  # 52 x 13 samples at the defaults


def _holder_levels_whole(a, p_values):
    """The power-mean levels from one whole array."""
    return [(math.fsum((a**p).tolist()) / len(a)) ** (1.0 / p) for p in p_values]


@pytest.mark.parametrize("length", [1, 64, 1 << 16, 3 * (1 << 16) + 5])
def test_holder_averages_stream_the_draw_bit_for_bit(length):
    # one chunk, one full chunk, and chunks with a short last one
    rows = run_named_check("holder_averages", seed=3, length=length).rows
    a = np.abs(np.random.default_rng(3).standard_normal(length))
    levels = _holder_levels_whole(a, (0.5, 1.0, 2.0, 4.0))
    assert [(r.lhs, r.rhs_core) for r in rows] == list(zip(levels, levels[1:]))
    given_rows = run_named_check("holder_averages", sequence=list(a), seed=99).rows
    assert [(r.lhs, r.rhs_core) for r in given_rows] == [(r.lhs, r.rhs_core) for r in rows]


def test_holder_averages_hold_one_chunk():
    # 3.0 MiB measured; 91.6 MiB with the whole draw, its powers and a list of them
    tracemalloc.start()
    try:
        run_named_check("holder_averages", length=2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("points, size_y", [(None, 131), (5, 131), (2, 131), (1, 131), (4, 1)])
def test_companion_norms_chunks_match_whole_matrix(monkeypatch, points, size_y):
    # one chunk; chunks of 5 points that split 37 unevenly; chunks of 2 with
    # the lone last point joining the chunk before; no one-point chunks; and
    # a companion of one point, whose products are matrix-vector products
    if points is not None:
        monkeypatch.setattr(analysis, "_POINT_CHUNK_BUDGET", points * size_y)
    system, system_y = random_permutation(37, 2), random_permutation(size_y, 3)
    fs = [random_mean_zero(system, 1), random_mean_zero(system, 2)]
    gs = [random_mean_zero(system_y, 4) if size_y > 1 else Observable(np.array([0.6 + 0.8j]))]
    exps, N = ExponentVector((1, -2)), 24
    A = companion_weights(system, fs, exps.entries, N).T @ companion_weights(system_y, gs, (1,), N) / N
    whole = np.sqrt((np.abs(A) ** 2 * system_y.weights[None, :]).sum(axis=1))
    assert np.array_equal(analysis._companion_norms(system, fs, exps, system_y, gs, (1,), N), whole)


def test_intermediate_F_ptwise_takes_points_in_chunks():
    # 18.1 MiB measured, most of it the (N, M_Y) companion weights; 88.1 MiB
    # with the whole (N, M_X) products and the (M_X, M_Y) matrix
    system, system_y = random_permutation(2048, 1), random_permutation(1024, 2)
    tracemalloc.start()
    try:
        run_named_check("intermediate_F_ptwise", system=system, system_y=system_y, N_values=(512,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


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
    expected = g.values[walk]  # multiplied as an orbit product is: the first factor, then *= the next
    expected *= f.values[walk1]
    assert w.tolist() == expected.tolist()
    sums = hilbert_partial_sums(system, y, [f], ExponentVector((a,)), 1.0, N)
    terms = f.values[walk] / np.arange(1, N + 1)
    assert np.array_equal(sums.values, np.cumsum(terms))
