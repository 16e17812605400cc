"""Certified sup brackets for modulated averages and trig polynomials."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwlab.averages import ww_average
from wwlab.supbrackets import (
    _GRID_BLOCK,
    Bracket,
    _grid_sup_rows,
    _secant,
    modulated_mean,
    sup_modulated_average,
    sup_norm_trig,
    sup_polyphase,
)
from wwlab.systems import random_mean_zero, random_permutation


def test_bracket_invariants():
    b = Bracket(1.0, 1.5, ())
    assert b.width == 0.5
    assert abs(b.rel_width - 0.5) < 1e-15
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0, ())


def test_bracket_exact_and_monotone_map():
    b = Bracket.exact(4.0)
    assert b.width == 0.0
    cube = b.map_monotone(lambda x: x**3)
    assert cube.lower == cube.upper == 64.0


def test_constant_sequence_sup_is_one():
    # |1/N sum e(nt)| peaks at t=0 with value exactly 1
    br = sup_modulated_average(np.ones(16))
    assert br.lower == pytest.approx(1.0, abs=1e-12)
    assert br.upper >= 1.0
    assert br.rel_width < 0.02


def test_single_point_sequence():
    br = sup_modulated_average(np.array([3.0 - 4.0j]))
    assert br.lower == pytest.approx(5.0, abs=1e-12)


def test_modulated_mean_matches_direct_sum():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    t = 0.3173
    direct = np.mean(u * np.exp(2j * np.pi * np.arange(1, 11) * t))
    val = modulated_mean(u, (t,))
    assert abs(val - direct) < 1e-12


def test_norm_trig_fejer_square():
    # (1 + e(t))(1 + e(-t)) = 2 + 2cos(2 pi t), sup = 4 at t=0
    br = sup_norm_trig([1.0, 2.0, 1.0])
    assert br.lower == pytest.approx(4.0, rel=1e-9)
    assert br.upper >= 4.0
    assert br.rel_width < 0.01


def test_norm_trig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        sup_norm_trig([1.0, 0.0, 2.0])


def test_norm_trig_constant_is_exact():
    br = sup_norm_trig([7.25])
    assert br.lower == br.upper == 7.25


def test_polyphase_degree_zero_exact():
    u = np.array([1.0, -2.0, 0.5, 3.0])
    br = sup_polyphase(u, 0)
    assert br.width == 0.0
    assert br.lower == pytest.approx(abs(np.mean(u)), abs=1e-14)


def test_polyphase_degree_one_matches_linear_sup():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    lin = sup_modulated_average(u)
    deg1 = sup_polyphase(u, 1)
    assert deg1.lower <= lin.upper + 1e-12
    assert lin.lower <= deg1.upper + 1e-12


def test_polyphase_degree_two_dominates_degree_one():
    # the quadratic-phase sup includes all linear phases (t2 = 0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    deg1 = sup_polyphase(u, 1)
    deg2 = sup_polyphase(u, 2)
    assert deg2.upper >= deg1.lower - 1e-12


def test_oversample_validation():
    with pytest.raises(ValueError):
        sup_modulated_average(np.ones(4), oversample=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 24))
def test_random_evaluations_stay_in_bracket(seed, n):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    br = sup_modulated_average(u)
    phases = np.exp(2j * np.pi * np.outer(rng.random(32), np.arange(n)))
    vals = np.abs(phases @ u) / n
    assert np.all(vals <= br.upper + 1e-9)
    assert br.lower <= br.upper


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_norm_trig_bracket_contains_samples(seed, deg):
    # the bracket targets sup of the real polynomial q itself
    rng = np.random.default_rng(seed)
    c_pos = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
    c0 = rng.standard_normal()
    coeffs = np.concatenate([np.conjugate(c_pos[::-1]), [c0], c_pos])
    br = sup_norm_trig(coeffs)
    ks = np.arange(-deg, deg + 1)

    def q(t):
        return float(np.real(np.exp(2j * np.pi * t * ks) @ coeffs))

    vals = np.array([q(t) for t in rng.random(32)])
    assert np.all(vals <= br.upper + 1e-9)
    # the reported lower bound is attained at the hint point
    assert abs(q(br.argmax_hint[0]) - br.lower) < 1e-8 * max(1.0, abs(br.lower))


# -- the polyphase grid kernel against the zero-padded one -------------------


def _padded_grid_oracle(U, oversample):
    """The former kernel: one zero-padded K-point inverse FFT per row."""
    rows, N = U.shape
    K = oversample * N
    padded = np.zeros((rows, K), dtype=np.complex128)
    padded[:, 1 : N + 1] = U
    values = np.abs(np.fft.ifft(padded, axis=1)) * (K / N)
    lower = values.max(axis=1)
    arg = values.argmax(axis=1) / K
    absU = np.abs(U)
    sec = _secant(N // 2, K)
    deriv = (2.0 * math.pi / N) * (absU * np.arange(1, N + 1)).sum(axis=1)
    cap = absU.sum(axis=1) / N
    upper = np.minimum(np.minimum(lower * sec, lower + deriv / (2 * K)), cap)
    return lower, np.maximum(upper, lower), arg


def _kernel_rows(N, seed):
    """Three complex rows, two real rows (|g(t)| = |g(-t)| ties mirror
    points), a constant row and an all-zero row."""
    rng = np.random.default_rng(seed)
    return np.vstack([
        rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N)),
        rng.standard_normal((2, N)) + 0j,
        np.full((1, N), 0.75 - 0.5j),
        np.zeros((1, N), dtype=np.complex128),
    ])


@pytest.mark.parametrize("oversample", [4, 5, 16, 64])
@pytest.mark.parametrize("N", [1, 2, 3, 7, 64, 100, 1024])
def test_grid_kernel_matches_padded_oracle(N, oversample):
    U = _kernel_rows(N, 1000 * N + oversample)
    lower, upper, arg = _grid_sup_rows(U, oversample)
    lo_ref, up_ref, arg_ref = _padded_grid_oracle(U, oversample)
    # relative, absolute below 1
    assert np.all(np.abs(lower - lo_ref) <= 1e-14 * np.maximum(1.0, lo_ref))
    assert np.all(np.abs(upper - up_ref) <= 1e-14 * np.maximum(1.0, up_ref))
    assert np.all(lower <= upper)
    if N > 1:  # at N = 1 every grid point ties
        assert np.array_equal(arg[:3], arg_ref[:3])
    assert lower[-1] == upper[-1] == arg[-1] == 0.0
    for u, lo, t in zip(U, lower, arg):
        assert abs(abs(modulated_mean(u, (t,))) - lo) <= 1e-12 * max(1.0, lo)


@pytest.mark.parametrize("oversample", [4, 5, 16, 64])
@pytest.mark.parametrize("N", [1, 2, 3, 7, 64, 100, 1024])
def test_grid_kernel_row_independent_of_batch(N, oversample):
    # the batch spans more than one row block, and is passed both
    # C-ordered and as a transposed view, as the recurrence callers do
    U = _kernel_rows(N, 7 * N + oversample)
    pad = _GRID_BLOCK // (oversample * N) + 1
    rng = np.random.default_rng(N)
    batch = np.vstack([rng.standard_normal((pad, N)) + 1j * rng.standard_normal((pad, N)), U])
    for B in (batch, np.asfortranarray(batch)):
        lower, upper, arg = _grid_sup_rows(B, oversample)
        for i, u in enumerate(U):
            alone = _grid_sup_rows(u[None, :], oversample)
            assert (alone[0][0], alone[1][0], alone[2][0]) == (lower[pad + i], upper[pad + i], arg[pad + i])


def test_polyphase_degree_two_matches_padded_oracle():
    rng = np.random.default_rng(17)
    N, oversample = 6, 16
    u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    K2 = oversample * N * N
    n = np.arange(1, N + 1)
    twisted = u[None, :] * np.exp(2j * np.pi * np.outer(np.arange(K2) / K2, n * n % K2))
    lo_ref, _, arg_ref = _padded_grid_oracle(twisted, oversample)
    row = int(np.argmax(lo_ref))
    br = sup_polyphase(u, 2, oversample)
    assert abs(br.lower - lo_ref[row]) <= 1e-14 * max(1.0, lo_ref[row])
    assert br.argmax_hint == (arg_ref[row], row / K2)
    assert abs(abs(modulated_mean(u, br.argmax_hint)) - br.lower) <= 1e-12
    assert br.rel_width <= 0.01


def test_strong_average_streams_point_chunks():
    # with the orbit table built, a k = 1 average allocates only chunk-sized
    # scratch, not the (points, N) sequence or its zero-padded transforms
    system = random_permutation(4096, 1)
    f = random_mean_zero(system, 1)
    system.orbit_table(512)
    tracemalloc.start()
    try:
        ww_average(system, f, 1, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
