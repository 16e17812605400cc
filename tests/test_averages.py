"""Strong/weak cube averages, schedules, and vertex assignments."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwlab import averages
from wwlab._util import BudgetExceeded, clear_memo, memo
from wwlab.averages import (
    _average_pipeline,
    _weak_kernel,
    CubeAssignment,
    ScheduleR,
    cube_product,
    off_diagonal_average,
    schedule_cap,
    weak_ww_average,
    ww_average,
    ww_average_alt,
    zeta_transformed_assignment,
)
from wwlab.systems import (
    FiniteSystem,
    Observable,
    character_observable,
    constant_observable,
    cyclic_shift,
    identity_system,
    product_system,
    random_mean_zero,
    random_permutation,
)


# -- cube combinatorics -------------------------------------------------------


def test_diagonal_assignment():
    f = Observable(np.array([1.0, 2.0, -1.0]))
    asg = CubeAssignment.diagonal(f, 2)
    assert asg.order == 2
    assert np.array_equal(asg.vertex((0, 1)).values, f.values)


def _cube_product_loop(system, assignment, h):
    """The cube product vertex by vertex: ones, times each gathered vertex, odd ones conjugated."""
    vals = np.ones(system.size, dtype=np.complex128)
    for bits in itertools.product((0, 1), repeat=assignment.order):
        gv = assignment.vertex(bits).values[system.power_indices(sum(b * x for b, x in zip(bits, h)))]
        vals = vals * (np.conjugate(gv) if sum(bits) % 2 else gv)
    return vals


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_cube_product_matches_a_vertex_loop(order):
    # five cycles of lengths 6, 6, 3, 3, 3, and an observable of its own at every vertex
    system = product_system(cyclic_shift(3), random_permutation(7, 2))
    vertices = list(itertools.product((0, 1), repeat=order))
    assignment = CubeAssignment({bits: random_mean_zero(system, i) for i, bits in enumerate(vertices)})
    for h in [(1, 2, 3), (-4, 7, 0), (2**62 + 1, 5, -(2**40))]:
        got = cube_product(system, assignment, h[:order]).values
        assert got.tobytes() == _cube_product_loop(system, assignment, h[:order]).tobytes()


def test_assignment_rejects_partial_mapping():
    f = Observable(np.ones(3))
    with pytest.raises(ValueError):
        CubeAssignment({(0,): f})  # (1,) missing


# -- schedules ----------------------------------------------------------------


def test_sqrt_schedule_values():
    sched = ScheduleR.sqrt_schedule(2)
    assert sched.values(100) == [10, 10]
    assert sched.value(0, 17) == 4


def test_linear_schedule_values():
    sched = ScheduleR.linear_schedule(1)
    assert sched.values(12) == [12]


def test_power_and_table_entries():
    sched = ScheduleR((("table", {16: 3, 64: 5}),))
    assert sched.value(0, 64) == 5
    with pytest.raises(ValueError):
        sched.value(0, 32)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScheduleR((("cubic",),))
    with pytest.raises(ValueError):
        ScheduleR((("table", {8: 5, 16: 3}),))  # decreasing table


def test_schedule_cap_is_sqrt_of_min():
    sched = ScheduleR((("table", {49: 3}),))
    assert schedule_cap(sched, 49) == math.isqrt(3)


# -- strong averages ----------------------------------------------------------


def test_constant_on_identity_is_one():
    # every shifted product is 1, and sup_t |1/N sum e(nt)| = 1 at t = 0
    system = identity_system(4)
    f = constant_observable(system)
    br = ww_average(system, f, 1, 8)
    assert br.lower == pytest.approx(1.0, abs=1e-12)
    assert br.upper >= 1.0


def test_character_attains_one_on_grid():
    # e(n/5) resonates at t = -1/5, which the 16x grid over N = 5 hits exactly
    system = cyclic_shift(5)
    f = character_observable(system, 1)
    br = ww_average(system, f, 1, 5)
    assert br.lower == pytest.approx(1.0, abs=1e-10)


def test_alt_with_sqrt_schedule_is_identical():
    system = cyclic_shift(11)
    f = random_mean_zero(system, 8)
    a = ww_average(system, f, 2, 36)
    clear_memo()  # the two calls share a memo key; compute both
    b = ww_average_alt(system, f, 2, 36, ScheduleR.sqrt_schedule(1))
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_off_diagonal_diagonal_matches_strong():
    system = cyclic_shift(9)
    f = random_mean_zero(system, 2)
    asg = CubeAssignment.diagonal(f, 1)
    a = ww_average(system, f, 2, 25)
    clear_memo()  # the two calls share a memo key; compute both
    b = off_diagonal_average(system, asg, 25)
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_memo_tells_custom_systems_apart():
    # both systems carry the default spec {"kind": "custom", "size": 6}
    weights = np.full(6, 1.0 / 6)
    one = FiniteSystem(weights, (np.arange(6) + 1) % 6)
    two = FiniteSystem(weights, [1, 0, 3, 2, 5, 4])
    assert one.spec == two.spec
    f = random_mean_zero(one, 4)
    a = ww_average(one, f, 2, 16)
    b = ww_average(two, f, 2, 16)
    assert len(memo) == 2
    clear_memo()
    fresh = ww_average(two, f, 2, 16)
    assert (b.lower, b.upper) == (fresh.lower, fresh.upper)
    assert (a.lower, a.upper) != (b.lower, b.upper)


def test_memo_keys_threads_and_oversample(monkeypatch):
    from wwlab import averages

    system = cyclic_shift(11)
    f = random_mean_zero(system, 8)
    calls = []
    real_kernel = averages._strong_kernel

    def counting_kernel(*args):
        calls.append(1)
        return real_kernel(*args)

    monkeypatch.setattr(averages, "_strong_kernel", counting_kernel)
    a = ww_average(system, f, 2, 36)
    per_call = len(calls)
    assert ww_average(system, f, 2, 36) is a  # hit: no kernel call
    assert len(calls) == per_call
    b = ww_average(system, f, 2, 36, threads=2)
    c = ww_average(system, f, 2, 36, oversample=8)
    weak_ww_average(system, f, 2, 36)
    assert len(calls) == 3 * per_call
    assert len(memo) == 4
    assert (a.lower, a.upper) == (b.lower, b.upper)
    assert c.lower <= a.upper


def test_memo_keeps_the_budget_guard():
    system = cyclic_shift(11)
    f = random_mean_zero(system, 8)
    ww_average(system, f, 2, 36)
    with pytest.raises(BudgetExceeded):
        ww_average(system, f, 2, 36, budget=1.0)


def test_order_one_scaling_law():
    # for k = 1 the average is (sup-norm)^(2/3), so scaling f by c scales
    # the result by |c|^(2/3)
    system = cyclic_shift(7)
    f = random_mean_zero(system, 4)
    g = Observable(3.0 * f.values)
    a = ww_average(system, f, 1, 16)
    b = ww_average(system, g, 1, 16)
    assert b.lower == pytest.approx(3.0 ** (2.0 / 3.0) * a.lower, rel=1e-12)
    assert b.upper == pytest.approx(3.0 ** (2.0 / 3.0) * a.upper, rel=1e-12)


def test_l1_norm_bounded_by_l2():
    # the L1 form is reached only through the pipeline, as the general-window check uses it
    system = cyclic_shift(13)
    f = random_mean_zero(system, 1)
    assignment = CubeAssignment.diagonal(f, 1)
    one = _average_pipeline(system, assignment, 16, ScheduleR.sqrt_schedule(1), 16, "strong", norm_p=1)
    two = ww_average(system, f, 2, 16)
    assert one.lower <= two.upper + 1e-12


def _weak_rho_whole_table(system, values, N):
    """The autocorrelation as one (N, M) table of shifted values."""
    shifted = values[system.orbit_indices(slice(None), 1, np.arange(N)[:, None])]
    return (shifted * np.conjugate(values)[None, :] * system.weights[None, :]).sum(axis=1)


@pytest.mark.parametrize("budget", [1, 1000, 1 << 18])
@pytest.mark.parametrize("size, N", [(37, 100), (521, 64), (4096, 33)])
def test_weak_kernel_lag_chunks_match_whole_table(monkeypatch, budget, size, N):
    # lag chunks of 1 row, of rows that split N unevenly, and the default
    system = random_permutation(size, 2)
    values = random_mean_zero(system, 2).values
    seen = []
    monkeypatch.setattr(averages, "sup_norm_trig", lambda c, o: seen.append(c) or averages.Bracket(0.0, 0.0, ()))
    monkeypatch.setattr(averages, "_POINT_CHUNK_BUDGET", budget)
    _weak_kernel(system, values, N, 16)
    d = np.arange(N)
    pos = (N - d) / N**2 * _weak_rho_whole_table(system, values, N)
    assert np.array_equal(seen[0][N - 1 :], pos)


def test_weak_kernel_streams_lag_chunks():
    # no (N, M) table of shifted values: 96 MiB when built whole
    system = random_permutation(4096, 1)
    f = random_mean_zero(system, 1)
    tracemalloc.start()
    try:
        weak_ww_average(system, f, 1, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_strong_kernel_holds_one_point_chunk():
    # one reused chunk (4 MiB) and the grid kernel's scratch and tables: 6.7
    # MiB measured, with the cycle coordinates; 7.1 MiB with a 2 MiB index
    # table per chunk, 11.0 MiB when the previous chunk stayed alive while
    # the next was gathered
    system = random_permutation(8192, 1)
    assert _peak_bytes(ww_average, system, random_mean_zero(system, 1), 1, 1024) < 8 * 2**20


def test_strong_kernel_reads_rows_without_index_tables(monkeypatch):
    # rows are windows of gathered cycle stretches; reading them through
    # orbit_indices took a (256, 1024) index table per chunk
    system = random_permutation(8192, 1)
    shapes = []
    real = FiniteSystem.orbit_indices

    def recording(self, *args):
        table = real(self, *args)
        shapes.append(np.shape(table))
        return table

    monkeypatch.setattr(FiniteSystem, "orbit_indices", recording)
    ww_average(system, random_mean_zero(system, 1), 1, 1024)
    assert shapes and all(len(shape) <= 1 for shape in shapes)


def test_weak_kernel_forms_its_products_in_place():
    # the lag chunk (2.1 MiB) and its index table (1.1 MiB): 3.2 MiB measured,
    # bound at about 1.4 times that; 6.3 MiB with the two chunk-sized
    # temporaries of shifted * conj * w
    system = cyclic_shift(521)
    assert _peak_bytes(weak_ww_average, system, random_mean_zero(system, 0), 2, 256) < 4.5 * 2**20


def test_weak_bounded_by_strong():
    system = cyclic_shift(13)
    f = random_mean_zero(system, 9)
    weak = weak_ww_average(system, f, 2, 32)
    strong = ww_average(system, f, 2, 32)
    assert weak.lower <= strong.upper + 1e-12


def test_schedule_length_must_match_order():
    system = cyclic_shift(5)
    f = random_mean_zero(system, 3)
    with pytest.raises(ValueError):
        ww_average_alt(system, f, 3, 16, ScheduleR.sqrt_schedule(1))


def test_reindexed_assignment_preserves_average():
    # reversing shift coordinates outside zeta relabels the same family of
    # products, so the cube average is unchanged up to bracket tolerance
    system = cyclic_shift(9)
    rng = np.random.default_rng(12)
    mapping = {
        bits: Observable(np.exp(2j * np.pi * rng.random(9)))
        for bits in [(0,), (1,)]
    }
    asg = CubeAssignment(mapping)
    moved = zeta_transformed_assignment(system, asg, (0,), 16)
    a = off_diagonal_average(system, asg, 16)
    b = off_diagonal_average(system, moved, 16)
    assert abs(a.lower - b.lower) <= a.width + b.width + 1e-9
    assert a.lower <= b.upper + 1e-12 and b.lower <= a.upper + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 40))
def test_order_one_equals_sup_bracket(seed, N):
    # k = 1 has no shift coordinates: the average is the certified sup
    # of the modulated mean raised to the 2/3 power
    from wwlab.supbrackets import sup_modulated_average

    system = cyclic_shift(7)
    f = random_mean_zero(system, seed)
    br = ww_average(system, f, 1, N)
    orbit = system.orbit_table(N)
    acc = 0.0
    for x in range(7):
        s = sup_modulated_average(f.values[orbit[1 : N + 1, x]])
        acc += s.lower**2 / 7
    lo = math.sqrt(acc) ** (2.0 / 3.0)
    assert br.lower == pytest.approx(lo, rel=1e-9)


_ORDER_40 = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from wwlab import BudgetExceeded, ScheduleR, cyclic_shift, random_mean_zero, weak_ww_average, ww_average, ww_average_alt
system = cyclic_shift(13)
f = random_mean_zero(system, 1)
for average in (ww_average, weak_ww_average, lambda *a: ww_average_alt(*a[:4], ScheduleR.sqrt_schedule(39))):
    try:
        average(system, f, 40, 8)
    except BudgetExceeded:
        continue
    sys.exit(f"{average} ran")
"""


def test_oversized_cube_averages_are_refused_before_they_are_built():
    # order 40 has 2^39 cube vertices and 2^39 shift tuples at N = 8; an
    # average that built either before its budget check would fail with
    # MemoryError under the child's 1 GiB address-space cap
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _ORDER_40], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
