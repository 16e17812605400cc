"""Certified sup brackets for modulated averages and trig polynomials."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwlab._util import BudgetExceeded
from wwlab.averages import ww_average
from wwlab import supbrackets
from wwlab.supbrackets import (
    _GRID_BLOCK,
    _SCREEN_MIN_N,
    _TWIST_BYTES,
    Bracket,
    _gap_bounds,
    _gap_nodes,
    _grid_sup_rows,
    _refinement,
    _screen_table,
    _secant,
    _twist_table,
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


@pytest.mark.parametrize("N", [1, 2, 12, 130])
def test_modulated_average_is_degree_one_polyphase(N):
    rng = np.random.default_rng(N)
    u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    lin, deg1 = sup_modulated_average(u), sup_polyphase(u, 1)
    assert (lin.lower, lin.upper, lin.argmax_hint) == (deg1.lower, deg1.upper, deg1.argmax_hint)


def test_degree_one_polyphase_checks_the_budget():
    with pytest.raises(BudgetExceeded):
        sup_polyphase(np.ones(4096), 1, budget=1.0)


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


@pytest.mark.parametrize("N", [7, _SCREEN_MIN_N])
def test_grid_kernel_takes_an_empty_batch(N):
    assert all(a.shape == (0,) for a in _grid_sup_rows(np.zeros((0, N), dtype=np.complex128), 16))


def _all_offsets_oracle(U, oversample):
    """The former kernel: all ``oversample`` N-point transforms of every row."""
    rows, N = U.shape
    K = oversample * N
    n = np.arange(1, N + 1)
    twist = np.exp((2j * math.pi / K) * (np.arange(oversample)[:, None] * n % K))
    if K <= _GRID_BLOCK:
        row_block, r_block = _GRID_BLOCK // K, oversample
    else:
        row_block, r_block = 1, max(1, _GRID_BLOCK // N)
    row_block = min(row_block, rows)
    lower = np.full(rows, -1.0)
    best_j = np.zeros(rows, dtype=np.intp)
    deriv = np.empty(rows)
    cap = np.empty(rows)
    for s in range(0, rows, row_block):
        V = np.ascontiguousarray(U[s : s + row_block], dtype=np.complex128)
        b = V.shape[0]
        for r0 in range(0, oversample, r_block):
            nr = min(r_block, oversample - r0)
            X = V[:, None, :] * twist[None, r0 : r0 + nr]
            np.fft.ifft(X, axis=2, out=X)
            flat = np.ascontiguousarray(np.abs(X).transpose(0, 2, 1)).reshape(b, N * nr)
            i = flat.argmax(axis=1)
            v = flat[np.arange(b), i]
            j = i // nr * oversample + r0 + i % nr
            prev, prev_j = lower[s : s + b], best_j[s : s + b]
            take = (v > prev) | ((v == prev) & (j < prev_j))
            prev[take] = v[take]
            prev_j[take] = j[take]
        absV = np.abs(V)
        deriv[s : s + b] = (absV * n).sum(axis=1)
        cap[s : s + b] = absV.sum(axis=1)
    deriv *= 2.0 * math.pi / N
    cap /= N
    upper = np.minimum(np.minimum(lower * _secant(N // 2, K), lower + deriv / (2 * K)), cap)
    return lower, np.maximum(upper, lower), best_j / K


def _assert_same_bits(U, oversample):
    got = _grid_sup_rows(U, oversample)
    ref = _all_offsets_oracle(U, oversample)
    for name, a, b in zip(("lower", "upper", "argmax"), got, ref):
        assert np.array_equal(a, b), (name, np.flatnonzero(a != b))


@pytest.mark.parametrize("oversample", [4, 5, 6, 7, 12, 16, 19, 24, 64])
@pytest.mark.parametrize("N", [1, 2, 3, 7, 8, 64, 100, _SCREEN_MIN_N - 1, _SCREEN_MIN_N, 256, 1024, 1100])
def test_grid_kernel_matches_all_offsets_oracle_bit_for_bit(N, oversample):
    # oversample 4 to 7 is all base; 12 has one level, 16, 19 and 24 two
    # (at 19 the last level-2 offset is 2 steps from its left neighbour and
    # 1 from (m + 1, 0)), 64 four; rows from _SCREEN_MIN_N on take the
    # sixth-order screen instead, whose gaps at 19 are 4, 4, 4, 4 and 3
    # steps and at 12 two steps; N = 1100 splits the rows into uneven
    # blocks
    rng = np.random.default_rng(N * oversample)
    U = np.vstack([_kernel_rows(N, 31 * N + oversample), np.exp(2j * np.pi * rng.random((4, N)))])
    _assert_same_bits(U, oversample)


@pytest.mark.parametrize("oversample", range(4, 70))
def test_refinement_plan_screens_each_offset_from_its_known_neighbours(oversample):
    # the base is every s-th offset, s the largest power of two <= O / 4;
    # each finer offset r = h (mod 2h) takes its weights from its distances
    # a = h to r - h and b to r + h, or to (m + 1, 0) past the last offset
    order, base, levels = _refinement(oversample)
    offsets = order[:, 0]
    s = 1 << int(math.log2(oversample // 4))
    assert list(offsets[:base]) == list(range(0, oversample, s))
    assert sorted(offsets) == list(range(oversample))
    assert [h for h, *_ in levels] == [s >> i for i in range(1, s.bit_length())]
    for h, slots, source, weights in levels:
        assert all(r % (2 * h) == h for r in offsets[slots])
        for i, r in enumerate(offsets[slots]):
            left, right, beta_s = source[:, i]
            b = h if r + h < oversample else oversample - r
            assert (left, beta_s) == (list(offsets).index(r - h), oversample)
            assert offsets[right] == (r + h if r + h < oversample else 0) and right < slots.start
            assert list(weights[:, i, 0]) == [b / (h + b), h / (h + b), h * b]


def _peak_points(N, oversample):
    """Every r > 0 at m = 0, the wrap points j = K - 1 and K - 2 (m = N - 1,
    r = O - 1 and O - 2), and two more points off the base grid."""
    K = oversample * N
    return list(range(1, oversample)) + [K - 1, K - 2, K - oversample + 1, (N // 2) * oversample + 1]


def _peaked_rows(N, oversample, seed):
    """Rows whose |average| peaks at grid points of every level: exactly on
    them, exactly on them with noisy amplitudes, 0.4 grid steps past them on
    a two-frequency row (whose |average| bends about as sharply as
    Bernstein's inequality allows, so one neighbour alone does not certify
    the point), and two equal peaks at points of different offsets, odd and
    then r = 2 (mod 4)."""
    rng = np.random.default_rng(seed)
    K = oversample * N
    n = np.arange(1, N + 1)
    peak_j = _peak_points(N, oversample)
    rows = [np.exp(-2j * np.pi * n * j / K) for j in peak_j]
    rows += [np.exp(-2j * np.pi * n * j / K) * (1 + 0.05 * rng.standard_normal(N)) for j in peak_j]
    if N > 1:
        for j in peak_j:
            row = np.zeros(N, dtype=np.complex128)
            row[0], row[-1] = 1.0, np.exp(-2j * np.pi * (N - 1) * (j + 0.4) / K)
            rows.append(row)
        for d in (1, 2):
            j1, j2 = d, (N // 2) * oversample + oversample - d
            rows.append(np.exp(-2j * np.pi * n * j1 / K) + np.exp(-2j * np.pi * n * j2 / K))
    return np.array(rows)


@pytest.mark.parametrize("oversample", [4, 5, 6, 7, 12, 16, 17, 19, 24, 64])
@pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 100, _SCREEN_MIN_N, 256])
def test_grid_kernel_finds_peaks_on_odd_offsets(N, oversample):
    U = _peaked_rows(N, oversample, N + oversample)
    _assert_same_bits(U, oversample)
    if N > 2:  # the peak itself is the maximum of its row
        j = np.rint(_grid_sup_rows(U, oversample)[2] * oversample * N).astype(int)
        expect = _peak_points(N, oversample)
        assert list(j[: len(expect)]) == expect


def _screen_rows(N, oversample, seed):
    """Random unimodular and Gaussian rows, near-tone rows (one frequency
    with 1% noise) and the peaked rows above."""
    rng = np.random.default_rng(seed)
    n = np.arange(1, N + 1)
    tones = np.exp(-2j * np.pi * np.outer(rng.random(4), n)) * (1 + 0.01 * rng.standard_normal((4, N)))
    return np.vstack([
        np.exp(2j * np.pi * rng.random((4, N))),
        rng.standard_normal((4, N)) + 1j * rng.standard_normal((4, N)),
        tones,
        _peaked_rows(N, oversample, seed),
    ])


@pytest.mark.parametrize("oversample", [8, 12, 16, 19, 24, 64])
@pytest.mark.parametrize("N", [2, 7, 64, _SCREEN_MIN_N, 256, 1024])
def test_screen_bounds_are_at_least_every_grid_value(N, oversample):
    # every gap of every row, reached from its left end (as the kernel does
    # for base points above the screen's floor) and from its right end
    U = _screen_rows(N, oversample, N + oversample)
    _, nb, _ = _refinement(oversample)
    _, twist = _twist_table(N, oversample)
    values = np.abs(np.fft.ifft(U * twist[:, None, :], axis=2))  # all offsets, in slot order
    F = np.fft.ifft(U * twist[:nb, None, :], axis=2)
    p = np.arange(F.size)
    nodes, i, row = _gap_nodes(F, p)
    m = p % N
    table = _screen_table(N, oversample)
    slots, _, _, sec, lin = table
    S = np.minimum(np.abs(F).max(axis=(0, 2)) * sec, np.abs(U).sum(axis=1) / N)[row, None]
    for gap, cols, line in ((i, slice(1, 7), m), ((i - 1) % nb, slice(0, 6), (m - (i == 0)) % N)):
        target = slots[gap] < oversample  # the rest pads gaps shorter than s
        row_at, line_at = (np.broadcast_to(a[:, None], target.shape)[target] for a in (row, line))
        grid = values[slots[gap][target], row_at, line_at]
        assert np.all(_gap_bounds(nodes[:, cols], gap, S, table)[target] >= grid)
        # the linear bound that decides which gaps are screened at all
        ends = np.abs(nodes[:, cols][:, 2:4]).max(axis=1, keepdims=True)
        assert np.all(np.broadcast_to(ends + lin * S, target.shape)[target] >= grid)
    # every offset off the base lies in exactly one gap
    assert sorted(slots[slots < oversample]) == list(range(nb, oversample))


def test_screen_scratch_stays_within_a_block_on_flat_rows():
    # quadratic Weyl sums, as the degree-2 phase search passes them: |p| is
    # nearly flat, so almost every base point is above the screen's floor;
    # their bounds are taken one transform block at a time (keeping every
    # block's candidate nodes to the end of the call took about 22 MiB
    # here, the dyadic levels 1.8 MiB)
    N, rows = 2 * _SCREEN_MIN_N, 2048
    K2 = 16 * N * N
    j2 = np.random.default_rng(0).integers(0, K2, rows)
    n = np.arange(1, N + 1)
    U = np.exp(2j * np.pi * np.outer(j2 / K2, n * n % K2))
    _grid_sup_rows(U[:1], 16)  # tables cached before the count
    tracemalloc.start()
    try:
        _grid_sup_rows(U, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def _exact_tie_rows(oversample, count, h, step):
    """Single-sample rows (N = 1, so every grid value is |u| up to rounding)
    whose first grid maximum is at an offset r = h (mod 2h) while an offset
    r = 0 (mod step) holds the same value exactly."""
    rng = np.random.default_rng(oversample + h)
    found = []
    while len(found) < count:
        u = rng.standard_normal((64, 1)) + 1j * rng.standard_normal((64, 1))
        lower, _, arg = _all_offsets_oracle(u, oversample)
        # at N = 1 grid point r is u e^{2 pi i r / K} itself
        vals = np.abs(u * np.exp((2j * math.pi / oversample) * np.arange(oversample)))
        for row, v, lo, t in zip(u, vals, lower, arg):
            if round(t * oversample) % (2 * h) == h and np.any(v[0::step] == lo):
                found.append(row)
    return np.array(found[:count])


@pytest.mark.parametrize("oversample", [4, 5, 16, 64])
def test_grid_kernel_breaks_exact_ties_by_first_grid_index(oversample):
    # an odd offset tied with an even one; from oversample 16 on also a
    # level-2 offset (r = 2 mod 4) tied with a base one (r = 0 mod s)
    s = 1 << ((oversample // 4).bit_length() - 1)
    for h, step in [(1, 2)] if s < 4 else [(1, 2), (2, s)]:
        U1 = _exact_tie_rows(oversample, 4, h, step)
        arg = _grid_sup_rows(U1, oversample)[2]
        assert np.all(np.rint(arg * oversample).astype(int) % (2 * h) == h)
        _assert_same_bits(U1, oversample)
        # N = 2 with u_2 = 0: every value also ties between m = 0 and m = 1
        U2 = np.hstack([U1, np.zeros_like(U1)])
        _assert_same_bits(U2, oversample)


def _transforms_per_row(monkeypatch, U, oversample):
    rows = []
    ifft = np.fft.ifft

    def counting_ifft(a, *args, **kwargs):
        rows.append(a.size // a.shape[-1])
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(supbrackets.np.fft, "ifft", counting_ifft)
    _grid_sup_rows(U, oversample)
    return sum(rows) / U.shape[0]


def test_grid_kernel_skips_most_odd_offsets(monkeypatch):
    # 256 random unimodular rows at N = 1024: the base offsets (4 of 16)
    # plus those the sixth-order screen cannot rule out, 4.9 per row (9.2
    # with the dyadic levels' linear screen)
    U = np.exp(2j * np.pi * np.random.default_rng(0).random((256, 1024)))
    assert _transforms_per_row(monkeypatch, U, 16) <= 6.0


def test_grid_kernel_screens_short_rows_at_high_oversample(monkeypatch):
    # the degree-2 phase search of a reference bracket at N = 7: one row per
    # t_2 grid value, 3136 rows at oversample 64; 4 base offsets of 64 and
    # about 10.6 transforms per row in all
    rng = np.random.default_rng(3)
    N, oversample = 7, 64
    u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    K2 = oversample * N * N
    n = np.arange(1, N + 1)
    U = u[None, :] * np.exp(2j * np.pi * np.outer(np.arange(K2) / K2, n * n % K2))
    assert _transforms_per_row(monkeypatch, U, oversample) <= 12


def test_twist_tables_are_read_only_and_capped_in_bytes():
    n, twist = _twist_table(64, 16)
    assert _twist_table(64, 16)[1] is twist
    assert not n.flags.writeable and not twist.flags.writeable
    for N in range(4096, 4096 + 12):  # 1 MiB each at oversample 16
        _twist_table(N, 16)
    assert supbrackets._twists._bytes <= _TWIST_BYTES
    assert len(supbrackets._twists) < 12
    big = _twist_table(1 << 16, 16)[1]  # 16 MiB: built, not kept
    assert big.shape == (16, 1 << 16) and _twist_table(1 << 16, 16)[1] is not big


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
    # a k = 1 average allocates only chunk-sized scratch: no orbit table,
    # no (points, N) sequence, no zero-padded transforms
    system = random_permutation(4096, 1)
    f = random_mean_zero(system, 1)
    tracemalloc.start()
    try:
        ww_average(system, f, 1, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _coarse_loop_oracle(u, degree, oversample):
    """Degree >= 3 coarse search one outer grid point at a time, in nested order."""
    N = u.size
    grids = [oversample * N**j for j in range(1, degree + 1)]
    n = np.arange(1, N + 1, dtype=float)
    mesh = np.meshgrid(*[np.arange(g) / g for g in grids[1:]], indexing="ij")
    best, best_t = -1.0, ()
    for row in np.stack([m.ravel() for m in mesh], axis=1):
        phase = np.zeros(N)
        for j, t in enumerate(row, start=2):
            phase = phase + t * n**j
        lower, _, arg = _grid_sup_rows((u * np.exp(2j * np.pi * phase))[None, :], oversample)
        if float(lower[0]) > best:
            best, best_t = float(lower[0]), (float(arg[0]), *map(float, row))
    return best, best_t


@pytest.mark.parametrize("degree, N, kind", [
    (3, 1, "random"), (3, 2, "random"), (3, 3, "random"), (3, 4, "random"), (3, 3, "flat"), (4, 1, "random"),
])
def test_coarse_polyphase_matches_row_by_row_search(monkeypatch, degree, N, kind):
    # stacked rows give every row's bits, and the first maximum in nested
    # order wins across chunk boundaries; "flat" rows (one nonzero entry)
    # tie at every grid point, so the very first row must win
    rng = np.random.default_rng(100 * degree + N)
    if kind == "flat":
        u = np.zeros(N, dtype=complex)
        u[-1] = 0.5 - 0.25j
    else:
        u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    best, best_t = _coarse_loop_oracle(u, degree, 4)
    for rows in (None, 3, 64):
        if rows is not None:
            monkeypatch.setattr(supbrackets, "_POLY_CHUNK", rows * N)
        br = sup_polyphase(u, degree, 4)
        assert (br.lower, br.argmax_hint) == (best, best_t)
        assert not br.certified
