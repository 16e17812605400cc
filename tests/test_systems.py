"""Finite systems, observables, partitions, and spectral data."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwlab.systems import (
    FiniteSystem,
    Observable,
    Partition,
    build_system,
    character_observable,
    conditional_expectation,
    constant_observable,
    cyclic_shift,
    ghk_seminorm,
    identity_system,
    integrate,
    iterate,
    product_system,
    random_mean_zero,
    random_permutation,
    rotation_approx,
    shift_observable,
    skew_product,
    spectral_coefficient,
    tensor_observable,
    two_cell_parity_partition,
)


@pytest.mark.parametrize("forward", [[0, 0, 1], [1, 2, 3], [-1, 0, 1]], ids=["repeat", "past end", "negative"])
def test_system_refuses_a_map_that_is_not_a_bijection(forward):
    with pytest.raises(ValueError, match="not a bijection"):
        FiniteSystem(np.full(3, 1 / 3), forward)


def test_building_a_system_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, at about 19 ms and 1.3 MB in a fresh process
    code = ("import sys; from wwlab.systems import build_system; "
            "build_system({'kind': 'random_permutation', 'size': 64, 'seed': 1}); "
            "build_system({'kind': 'cyclic_shift', 'p': 7}); print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_cyclic_shift_orbit():
    system = cyclic_shift(7)
    assert system.size == 7
    assert iterate(system, 0, 1) == 1
    assert iterate(system, 6, 1) == 0
    assert iterate(system, 2, 7) == 2
    assert abs(system.weights.sum() - 1.0) < 1e-15


def test_cycle_tables_published_before_ready_sentinel():
    # a concurrent reader proceeds as soon as it sees _cycle_len set, so the
    # other cycle arrays it then reads must already be in place
    class Recording(FiniteSystem):
        def __setattr__(self, name, value):
            if name.startswith("_cycle"):
                self.__dict__.setdefault("log", []).append((name, value is None))
            super().__setattr__(name, value)

    base = random_permutation(9, 4)
    system = Recording(base.weights, base.forward)
    system.log.clear()
    system._ensure_cycles()
    assert [name for name, _ in system.log] == ["_cycle_flat", "_cycle_start", "_cycle_pos", "_cycle_len"]
    assert not any(was_none for _, was_none in system.log)
    assert iterate(system, 0, 9) == 0


def _loop_cycles(system):
    """Cycle ids and positions from a plain walk: cycles in the order of
    their smallest points, positions counted from that point."""
    n = system.size
    seen = np.zeros(n, dtype=bool)
    cid = np.empty(n, dtype=np.int64)
    cpos = np.empty(n, dtype=np.int64)
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        j, pos = start, 0
        while not seen[j]:
            seen[j] = True
            cid[j], cpos[j] = count, pos
            j, pos = int(system.forward[j]), pos + 1
        count += 1
    return cid, cpos


_CYCLE_SYSTEMS = [
    random_permutation(1, 0), random_permutation(2, 0), random_permutation(50, 3), random_permutation(997, 1),
    identity_system(1), identity_system(40), cyclic_shift(1), cyclic_shift(64), rotation_approx(30, 7),
    skew_product(6), product_system(cyclic_shift(4), random_permutation(9, 2)),
    FiniteSystem(np.full(8, 0.125), [1, 0, 3, 2, 5, 6, 4, 7]),
]


@pytest.mark.parametrize("system", _CYCLE_SYSTEMS, ids=repr)
def test_cycle_coordinates_match_loop_decomposition(system):
    cid, cpos = _loop_cycles(system)
    system._ensure_cycles()
    starts, ids = np.unique(system._cycle_start, return_inverse=True)
    assert np.array_equal(ids.ravel(), cid)
    assert np.array_equal(system._cycle_pos, cpos)
    assert np.array_equal(system._cycle_len, np.bincount(cid)[cid])
    # flat lists every cycle from its smallest point, cycles by that point
    points = np.arange(system.size)
    assert np.array_equal(system._cycle_flat[system._cycle_start + system._cycle_pos], points)
    assert np.array_equal(system._cycle_flat[starts], np.flatnonzero(cpos == 0))


def _walk_orbit(system, x):
    """x, T x, T^2 x, ... around its cycle, by following the forward map."""
    orbit = [x]
    while (y := int(system.forward[orbit[-1]])) != x:
        orbit.append(y)
    return orbit


_STEPS = st.sampled_from([-3, -2, -1, 0, 1, 2, 3, 2**62 + 1])


@st.composite
def _systems(draw):
    kind = draw(st.sampled_from(["random", "identity", "cycle", "product"]))
    size = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 10**6))
    if kind == "random":
        return random_permutation(size, seed)
    if kind == "identity":
        return identity_system(size)
    if kind == "cycle":
        return cyclic_shift(size)
    return product_system(cyclic_shift(draw(st.integers(1, 6))), random_permutation(draw(st.integers(1, 8)), seed))


@settings(max_examples=120, deadline=None)
@given(_systems(), _STEPS, st.data())
def test_orbit_indices_follow_the_forward_map(system, a, data):
    x = data.draw(st.integers(0, system.size - 1))
    orbit = _walk_orbit(system, x)
    L = len(orbit)
    n = np.arange(-L, 3 * L + 1)
    expected = [orbit[(a * int(m)) % L] for m in n]
    assert system.orbit_indices(x, a, n).tolist() == expected
    # a column of points against a row of counts: one orbit per row
    points = np.arange(system.size)
    span = np.arange(3 * int(system._cycle_len.max()) + 1)
    table = system.orbit_indices(points[:, None], a, span)
    for y in points:
        walk = _walk_orbit(system, int(y))
        assert table[y].tolist() == [walk[(a * int(m)) % len(walk)] for m in span]
    # all points against a column of counts: row n is T^{a n}
    assert np.array_equal(system.orbit_indices(slice(None), a, span[:, None]), table.T)
    # orbit_product reads the same orbits: v at step a, times u at step -1
    walks = [_walk_orbit(system, int(y)) for y in points]
    back = np.array([[walk[-int(m) % len(walk)] for m in span] for walk in walks])
    v, u = np.exp(1j * points), points + 1.0 - 2j
    factors = [(v, a), (u, -1)]
    expected = v[table] * u[back]
    assert np.array_equal(system.orbit_product(factors, points[:, None], span), expected)
    assert np.array_equal(system.orbit_product(factors, slice(None), span[:, None]), expected.T)
    assert np.array_equal(system.orbit_product(factors, x, span), expected[x])
    out = np.empty_like(expected)
    assert system.orbit_product(factors, points[:, None], span, out=out) is out
    assert np.array_equal(out, expected)


@settings(max_examples=120, deadline=None)
@given(_systems(), _STEPS, st.integers(-7, 7))
def test_power_indices_follow_the_forward_map(system, a, m):
    exponent = a * m  # up to 7 (2**62 + 1), past the int64 range
    got = system.power_indices(exponent)
    for x in range(system.size):
        orbit = _walk_orbit(system, x)
        assert got[x] == orbit[exponent % len(orbit)]
        if abs(exponent) <= 2**63:  # the range iterate() accepts
            assert iterate(system, x, exponent) == got[x]


@st.composite
def _row_systems(draw):
    """Systems with short cycles, long cycles, or both (the cut-over is 32)."""
    kind = draw(st.sampled_from(["identity", "cycle", "random", "skew", "product"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "identity":
        return identity_system(draw(st.integers(1, 40)))
    if kind == "cycle":
        return cyclic_shift(draw(st.integers(1, 90)))
    if kind == "random":
        return random_permutation(draw(st.integers(1, 150)), seed)
    if kind == "skew":
        return skew_product(draw(st.integers(1, 9)))
    return product_system(cyclic_shift(draw(st.integers(1, 40))), random_permutation(draw(st.integers(1, 6)), seed))


@settings(max_examples=150, deadline=None)
@given(_row_systems(), st.data())
def test_orbit_rows_match_orbit_product_bit_for_bit(system, data):
    system._ensure_cycles()
    longest = int(system._cycle_len.max())
    steps = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3, longest + 1, 2**62 + 1]),
                               min_size=1, max_size=3))
    N = data.draw(st.integers(1, 3 * longest + 2))  # below and above the cycle lengths
    # chunks of one row, of a few rows that split cycles, and of every row
    budget = data.draw(st.sampled_from([1, 3 * N, 17 * N, system.size * N]))
    rng = np.random.default_rng(len(steps) + N)
    factors = [(rng.standard_normal(system.size) + 1j * rng.standard_normal(system.size), a) for a in steps]
    seen = []
    for points, rows in system.orbit_rows(factors, N, budget):
        assert rows.shape == (points.size, N) and rows.flags.c_contiguous
        assert points.size <= max(1, budget // N)
        expected = system.orbit_product(factors, points[:, None], np.arange(1, N + 1))
        assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))
        seen.extend(points.tolist())
    assert sorted(seen) == list(range(system.size))


def test_orbit_table_wraps_the_primitive():
    system = random_permutation(30, 5)
    table = system.orbit_table(12)
    assert table.shape == (13, 30) and table.flags.c_contiguous and not table.flags.writeable
    for n in range(13):
        assert np.array_equal(table[n], system.power_indices(n))
    assert system.orbit_table(12) is table  # the most recent table is kept
    system.orbit_table(3)
    assert list(system._orbit_cache) == [3]


def test_measure_preservation():
    for system in (cyclic_shift(6), random_permutation(9, 4), skew_product(5)):
        assert np.allclose(system.weights[system.forward], system.weights)


def test_character_integrates_to_zero():
    system = cyclic_shift(11)
    f = character_observable(system, 3)
    assert abs(integrate(system, f)) < 1e-14
    assert abs(integrate(system, f, p=2) - 1.0) < 1e-14


def test_random_mean_zero_normalization():
    system = cyclic_shift(13)
    f = random_mean_zero(system, 5)
    assert abs(integrate(system, f)) < 1e-12
    assert abs(f.sup_norm - 1.0) < 1e-12


def test_shift_observable_composes():
    system = cyclic_shift(10)
    f = random_mean_zero(system, 1)
    once = shift_observable(system, shift_observable(system, f, 3), 4)
    direct = shift_observable(system, f, 7)
    assert np.array_equal(once.values, direct.values)


def test_product_system_and_tensor():
    a, b = cyclic_shift(3), cyclic_shift(4)
    prod = product_system(a, b)
    assert prod.size == 12
    f = character_observable(a, 1)
    g = character_observable(b, 1)
    fg = tensor_observable(f, g)
    assert len(fg) == 12
    # product weights multiply and the map moves both coordinates
    assert np.allclose(prod.weights, 1.0 / 12)


def test_system_json_round_trip():
    system = random_permutation(8, 2)
    back = build_system(json.loads(json.dumps(system.spec)))
    assert np.array_equal(back.forward, system.forward)
    assert np.allclose(back.weights, system.weights)


def test_build_system_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_system({"kind": "torus"})


def test_partition_labels_validated():
    with pytest.raises(ValueError):
        Partition((0, 2, 0))  # label 1 missing


def test_parity_partition_invariance():
    even = cyclic_shift(8)
    odd = cyclic_shift(9)
    assert two_cell_parity_partition(even).is_shift_invariant(even)
    assert not two_cell_parity_partition(odd).is_shift_invariant(odd)


def test_conditional_expectation_idempotent():
    system = cyclic_shift(12)
    part = two_cell_parity_partition(system)
    f = random_mean_zero(system, 3)
    proj = conditional_expectation(system, f, part)
    again = conditional_expectation(system, proj, part)
    assert np.allclose(proj.values, again.values)
    # projection preserves the integral
    assert abs(integrate(system, proj) - integrate(system, f)) < 1e-13


def test_conditional_expectation_contracts_l2():
    system = cyclic_shift(10)
    part = two_cell_parity_partition(system)
    f = random_mean_zero(system, 9)
    proj = conditional_expectation(system, f, part)
    assert integrate(system, proj, p=2) <= integrate(system, f, p=2) + 1e-12


def test_spectral_coefficient_of_character():
    # autocorrelation of a frequency-j character is the pure phase e(-jn/m)
    system = cyclic_shift(9)
    f = character_observable(system, 2)
    for n in range(4):
        expected = np.exp(-2j * np.pi * 2 * n / 9)
        assert abs(spectral_coefficient(system, f, n) - expected) < 1e-13


def test_ghk_seminorm_full_window_identity():
    p = 13
    system = cyclic_shift(p)
    f = random_mean_zero(system, 7)
    fhat = np.fft.fft(np.asarray(f.values)) / p
    expected = float(np.sum(np.abs(fhat) ** 4) ** 0.25)
    assert abs(ghk_seminorm(system, f, 2, p) - expected) < 1e-10


def test_ghk_seminorm_single_shift():
    system = cyclic_shift(7)
    f = random_mean_zero(system, 6)
    expected = abs(spectral_coefficient(system, f, 1)) ** 0.5
    assert abs(ghk_seminorm(system, f, 2, 1) - expected) < 1e-12


@pytest.mark.parametrize("p", [7, 11, 13])
def test_ghk_seminorm_of_polynomial_phases_at_orders_3_and_4(p):
    # e(x^2/p) has U2 = p^(-1/4) and U3 = 1; e(x^3/p) has U3 = ((2p - 1)/p^2)^(1/8) and U4 = 1
    system = cyclic_shift(p)
    x = np.arange(p)
    quadratic = Observable(np.exp(2j * np.pi * (x**2 % p) / p))
    cubic = Observable(np.exp(2j * np.pi * (x**3 % p) / p))
    assert ghk_seminorm(system, quadratic, 2, p) == pytest.approx(p ** -0.25, rel=1e-12)
    assert ghk_seminorm(system, quadratic, 3, p) == pytest.approx(1.0, rel=1e-12)
    assert ghk_seminorm(system, cubic, 3, p) == pytest.approx(((2 * p - 1) / p**2) ** 0.125, rel=1e-12)
    assert ghk_seminorm(system, cubic, 4, p) == pytest.approx(1.0, rel=1e-12)


def test_ghk_seminorm_rejects_low_order():
    system = cyclic_shift(7)
    with pytest.raises(ValueError):
        ghk_seminorm(system, constant_observable(system), 1, 7)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 20), st.integers(0, 10**6))
def test_observable_sup_norm_bounds_values(size, seed):
    rng = np.random.default_rng(seed)
    f = Observable(rng.standard_normal(size) + 1j * rng.standard_normal(size))
    assert np.all(np.abs(f.values) <= f.sup_norm + 1e-12)
    assert integrate(identity_system(size), f, p=2) <= f.sup_norm + 1e-12
