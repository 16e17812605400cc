"""Multiple recurrence norms, uniform maximization, and return times."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from wwlab import averages, recurrence, supbrackets
from wwlab._util import DEFAULT_BUDGET, BudgetExceeded, fsum
from wwlab.averages import CubeAssignment, cube_product
from wwlab.recurrence import (
    ExponentVector,
    _step_tables,
    companion_weights,
    intermediate_F,
    multiple_recurrence_average,
    polyphase_mrec_sup,
    return_times_average,
    uniform_mrec_bracket,
)
from wwlab.supbrackets import _grid_sup_rows, sup_modulated_average, sup_polyphase
from wwlab.systems import (
    character_observable,
    constant_observable,
    cyclic_shift,
    identity_system,
    product_system,
    random_mean_zero,
    random_permutation,
)


def test_exponent_vector_validation():
    assert ExponentVector((2, -1)).first_abs == 2
    with pytest.raises(ValueError):
        ExponentVector(())
    with pytest.raises(ValueError):
        ExponentVector((1, 0))
    with pytest.raises(ValueError):
        ExponentVector((3, 3))


def test_multiple_recurrence_matches_inline_sum():
    p, N = 6, 9
    system = cyclic_shift(p)
    f1 = random_mean_zero(system, 1)
    f2 = random_mean_zero(system, 2)
    x = np.arange(p)
    acc = np.zeros(p, dtype=np.complex128)
    for n in range(1, N + 1):
        acc += f1.values[(x + n) % p] * f2.values[(x - 2 * n) % p]
    avg = acc / N
    exps = ExponentVector((1, -2))
    got2 = multiple_recurrence_average(system, [f1, f2], exps, N)
    assert got2 == pytest.approx(math.sqrt(np.mean(np.abs(avg) ** 2)), rel=1e-12)


def test_multiple_recurrence_validation():
    system = cyclic_shift(5)
    f = constant_observable(system)
    with pytest.raises(ValueError):
        multiple_recurrence_average(system, [f], ExponentVector((1, 2)), 4)


@pytest.mark.parametrize("chunk", [5 * 37, 36])
def test_multiple_recurrence_chunks_match_one_chunk(monkeypatch, chunk):
    # at N = 24 on 37 points, chunks of 5 counts split 24 unevenly; under 37 entries a chunk holds one count
    system = random_permutation(37, 2)
    fs = [random_mean_zero(system, 1), random_mean_zero(system, 2)]
    exps = ExponentVector((1, -3))
    whole = multiple_recurrence_average(system, fs, exps, 24)
    monkeypatch.setattr(recurrence, "_POINT_CHUNK_BUDGET", chunk)
    assert multiple_recurrence_average(system, fs, exps, 24) == whole


def test_multiple_recurrence_streams_count_chunks():
    # no (N, M) product table: 320 MiB with the whole table of 1024 x 8192 products,
    # about 10.4 MiB with one chunk, its index table and one gathered factor
    system = random_permutation(8192, 1)
    fs = [random_mean_zero(system, 1), random_mean_zero(system, 2)]
    assert _peak_bytes(multiple_recurrence_average, system, fs, ExponentVector((1, 2)), 1024) < 16 * 2**20


def test_companion_weights_unit():
    system = cyclic_shift(7)
    ones = constant_observable(system)
    W = companion_weights(system, [ones, ones], (1, 2), 5)
    assert W.shape == (5, 7)
    assert np.array_equal(W, np.ones((5, 7), dtype=np.complex128))


def test_return_times_dirichlet_modulus():
    # with unit base weights the average is the geometric sum of a character,
    # whose modulus is |sin(N pi / p)| / (N sin(pi / p)) at every y
    p, N = 7, 12
    systemY = cyclic_shift(p)
    g = character_observable(systemY, 1)
    systemX = identity_system(1)
    out = return_times_average(
        systemY, g, (0, 1), systemX, [constant_observable(systemX)],
        ExponentVector((1,)), 0, N,
    )
    expected = abs(math.sin(N * math.pi / p)) / (N * math.sin(math.pi / p))
    assert np.allclose(np.abs(out.values), expected, atol=1e-12)


def test_return_times_unit_weight_is_scalar_average():
    systemY = cyclic_shift(5)
    systemX = cyclic_shift(9)
    f = random_mean_zero(systemX, 3)
    N, x0 = 11, 4
    out = return_times_average(
        systemY, constant_observable(systemY), (1, 2), systemX, [f],
        ExponentVector((2,)), x0, N,
    )
    scalar = np.mean([f.values[(x0 + 2 * n) % 9] for n in range(1, N + 1)])
    assert np.allclose(out.values, scalar, atol=1e-12)


def test_return_times_polynomial_orbit_reduction():
    # a cubic with huge coefficients must behave like its residues mod p
    p = 5
    systemY = cyclic_shift(p)
    g = character_observable(systemY, 2)
    systemX = identity_system(1)
    big = return_times_average(
        systemY, g, (10**12, 0, 0, 10**9), systemX,
        [constant_observable(systemX)], ExponentVector((1,)), 0, 8,
    )
    small = return_times_average(
        systemY, g, (10**12 % p, 0, 0, 10**9 % p), systemX,
        [constant_observable(systemX)], ExponentVector((1,)), 0, 8,
    )
    assert np.allclose(big.values, small.values, atol=1e-12)


def test_uniform_bracket_invariants():
    system = cyclic_shift(8)
    f = random_mean_zero(system, 5)
    br = uniform_mrec_bracket(system, f, 1, 16)
    assert br.method == "alternating"
    assert br.lower <= br.upper + 1e-15
    assert br.width >= 0.0
    # trace of the squared objective is nondecreasing
    assert all(b >= a - 1e-12 for a, b in zip(br.trace, br.trace[1:]))
    for g in br.witnesses:
        assert np.max(np.abs(g)) <= 1.0 + 1e-9
    # upper endpoint is the L2 cap
    cap = math.sqrt(np.mean(np.abs(f.values) ** 2))
    assert br.upper == pytest.approx(max(cap, br.lower), rel=1e-12)


def _oracle_average(system, f, gs, k, N):
    tables = _step_tables(system, range(1, k + 1), N)
    f_table = _step_tables(system, [k + 1], N)[0]
    acc = np.zeros(system.size, dtype=np.complex128)
    for n in range(N):
        term = f.values[f_table[n]].copy()
        for g, tbl in zip(gs, tables):
            term *= g[tbl[n]]
        acc += term
    return acc / N


def _oracle_objective(system, f, gs, k, N):
    return fsum((system.weights * np.abs(_oracle_average(system, f, gs, k, N)) ** 2).tolist())


def _oracle_kernel(system, f, gs, k, l, N):
    """K_l as a dense M x M array, one term at a time in increasing n."""
    M = system.size
    tables = _step_tables(system, range(1, k + 1), N)
    f_table = _step_tables(system, [k + 1], N)[0]
    K = np.zeros((M, M), dtype=np.complex128)
    for n in range(N):
        b = f.values[f_table[n]].copy()
        for j in range(k):
            if j != l:
                b *= gs[j][tables[j][n]]
        K[np.arange(M), tables[l][n]] += b / N
    return K


def _oracle_power_step(K, w, g, last, tol):
    """One power-phase step of one restart on a dense K.

    Returns the new g, whether it is a power step taken in place of the
    momentum step (which drops the momentum), its objective, and whether
    the restart stops there.
    """

    def objective(g):
        return fsum((w * np.abs(K @ g) ** 2).tolist())

    def phase(z, keep):
        return np.array([zi / abs(zi) if abs(zi) > 1e-300 else gi for zi, gi in zip(z, keep)])

    obj = objective(g)
    c = K.conj().T @ (w * (K @ g))
    y = phase(c + recurrence._MOMENTUM * np.abs(c) * (g - last), g)
    new = objective(y)
    back = new < obj
    if back:  # the momentum step would lower the objective: the power step, without momentum
        y = phase(c, g)
        new = objective(y)
    if new < obj:  # only by rounding, at a fixed point
        return g, back, obj, True
    return y, back, new, new - obj <= tol * max(1.0, obj)


def _seeded_starts(M, k, restarts, seed, real_signs):
    """The all-ones start, then the seeded ones in the order they are drawn."""
    rng = np.random.default_rng(seed)
    starts = [[np.ones(M, dtype=np.complex128) for _ in range(k)]]
    for _ in range(restarts):
        if real_signs:
            starts.append([np.where(rng.random(M) < 0.5, -1.0, 1.0).astype(np.complex128) for _ in range(k)])
        else:
            starts.append([np.exp(2j * np.pi * rng.random(M)) for _ in range(k)])
    return starts


def _first_order_kernel(system, f, N):
    """The stacked slabs of K and their rows for k = 1, as the ascent fills them."""
    rows = recurrence._slab_rows(system, 0, N)
    data, slabs = recurrence._stack_slabs(system, rows)
    ones = [np.ones(system.size, dtype=np.complex128)]
    recurrence._fill_slabs(data, slabs, recurrence._slab_layout(system, 1, 0, N, rows), f, ones, 0, N)
    return data, rows


def _power_phase_of(system, f, N):
    """The ascent's own power phase on every start at once, as the ascent runs it."""

    def power(starts):
        G = np.stack([g for g, in starts])
        recurrence._power_phase(*_first_order_kernel(system, f, N), system.weights, G)
        return [[g.copy()] for g in G]

    return power


def _oracle_ascent(system, f, k, N, restarts=2, seed=0, tol=1e-9, max_cycles=60, real_signs=False, power=None):
    """Plain one-coordinate-at-a-time ascent that rebuilds K and A every sweep.

    At k = 1 with complex companions ``power`` is the whole ascent: it takes
    the starts and no sweep follows.  Returns (objective, witnesses, trace)
    of every restart.
    """
    M, w = system.size, system.weights
    starts = _seeded_starts(M, k, restarts, seed, real_signs)
    if k == 1 and not real_signs:
        starts, max_cycles = power(starts), 0
    runs = []
    for gs in starts:
        obj = _oracle_objective(system, f, gs, k, N)
        trace = [obj]
        for _ in range(max_cycles):
            for l, g in enumerate(gs):
                K = _oracle_kernel(system, f, gs, k, l, N)
                A = _oracle_average(system, f, gs, k, N)
                col_sq = (w[:, None] * np.abs(K) ** 2).sum(axis=0)
                for y in range(M):
                    c = np.vdot(K[:, y], w * A) - col_sq[y] * g[y]
                    if real_signs:
                        new = 1.0 if c.real > 0 else (-1.0 if c.real < 0 else g[y])
                    else:
                        new = c / abs(c) if abs(c) > 1e-300 else g[y]
                    if new != g[y]:
                        A = A + K[:, y] * (new - g[y])
                        g[y] = new
            obj_new = _oracle_objective(system, f, gs, k, N)
            trace.append(obj_new)
            done = obj_new - obj <= tol * max(1.0, obj)
            obj = obj_new
            if done:
                break
        runs.append((obj, gs, trace))
    return runs


def _free_coordinates(system, f, k, N, gs, real_signs):
    """Mask of companion values the objective does not depend on.

    The objective is affine in each companion value on its circle (or sign
    pair), so a value is free exactly when its ascent direction vanishes.
    That happens at a fixed point of T (every point of the identity system)
    and wherever the cycle structure makes the direction cancel; both
    sweeps then read pure rounding noise and may leave the value anywhere.
    """
    base = _oracle_objective(system, f, gs, k, N)
    free = np.zeros((k, system.size), dtype=bool)
    for l in range(k):
        for y in range(system.size):
            vals = []
            for phase in ((-1.0,) if real_signs else (1j, -1.0)):
                trial = [g.copy() for g in gs]
                trial[l][y] *= phase
                vals.append(_oracle_objective(system, f, trial, k, N))
            free[l, y] = all(abs(v - base) <= 1e-12 * base for v in vals)
    return free


def _earliest_best(runs):
    """The run the bracket reports: a later restart replaces the best so far
    only when it is higher by more than a relative 1e-12."""
    best = runs[0]
    for run in runs[1:]:
        if run[0] > best[0] * (1 + 1e-12):
            best = run
    return best


@pytest.mark.parametrize(
    "system, k, N, real_signs, has_free",
    [
        (cyclic_shift(7), 1, 16, False, False),
        (cyclic_shift(7), 1, 16, True, False),
        (cyclic_shift(11), 2, 24, False, False),
        (cyclic_shift(37), 3, 9, True, False),
        (random_permutation(40, 3), 1, 20, False, True),
        (random_permutation(40, 3), 1, 20, True, True),
        (random_permutation(70, 5), 2, 30, False, True),
        (random_permutation(30, 8), 3, 12, False, True),
        (identity_system(6), 1, 5, False, True),
        (identity_system(6), 2, 5, True, True),
    ],
    ids=lambda v: v.spec["kind"] if hasattr(v, "spec") else str(v),
)
def test_blocked_ascent_matches_per_coordinate_oracle(system, k, N, real_signs, has_free):
    # N exceeds a cycle length in every case, so kernel entries repeat; sizes
    # 37, 40 and 70 span more than one Gauss-Seidel block
    f = random_mean_zero(system, 2)
    br = uniform_mrec_bracket(system, f, k, N, seed=4, real_signs=real_signs)
    runs = _oracle_ascent(system, f, k, N, seed=4, real_signs=real_signs, power=_power_phase_of(system, f, N))
    obj, witnesses, trace = _earliest_best(runs)
    assert len(br.trace) == len(trace)
    assert np.allclose(br.trace, trace, rtol=1e-12, atol=0.0)
    assert br.lower == pytest.approx(math.sqrt(obj), rel=1e-12)
    free = _free_coordinates(system, f, k, N, witnesses, real_signs)
    assert free.any() == has_free
    for l, (got, want) in enumerate(zip(br.witnesses, witnesses)):
        assert np.max(np.abs(got - want)[~free[l]], initial=0.0) <= 1e-9


@pytest.mark.parametrize("system, N", [
    (cyclic_shift(7), 16),
    (random_permutation(40, 3), 20),
    (identity_system(6), 5),
    (cyclic_shift(37), 30),
], ids=["cyclic", "random", "identity", "blocks"])
def test_power_phase_steps_match_dense_oracle(monkeypatch, system, N):
    # every step of the power phase, all starts at once, against one dense step
    # from the same iterate; whole runs differ by more than rounding, since on
    # random_permutation(40, 3) a step from the all-ones start can enlarge a
    # difference 30-fold, and the runs end on maxima that differ by a common phase
    f = random_mean_zero(system, 2)
    M, w = system.size, system.weights
    data, rows = _first_order_kernel(system, f, N)
    K = _oracle_kernel(system, f, [np.ones(M)], 1, 0, N)
    G0 = np.stack([g for g, in _seeded_starts(M, 1, 2, 4, False)])
    g, last = G0.copy(), G0.copy()
    done = np.zeros(len(G0), dtype=bool)
    stops = np.zeros(len(G0), dtype=int)
    for t in range(1, recurrence._POWER_STEPS + 1):
        monkeypatch.setattr(recurrence, "_POWER_STEPS", t)
        G = G0.copy()
        taken = recurrence._power_phase(data, rows, w, G)  # the first t steps
        for j in np.flatnonzero(~done):
            y, back, obj, done[j] = _oracle_power_step(K, w, g[j], last[j], 1e-9)
            stops[j] = t
            assert np.max(np.abs(G[j] - y)) <= 1e-9
            assert fsum((w * np.abs(K @ G[j]) ** 2).tolist()) == pytest.approx(obj, rel=1e-12)
            last[j] = G[j] if back else g[j]
            g[j] = G[j]  # go on from the per-start iterate
        assert np.array_equal(G[done], g[done])  # a stopped restart stays where it stopped
        if done.all():
            break
    assert done.all() and np.array_equal(taken, stops)  # each start counts the steps it took


@pytest.mark.parametrize("system, N", [(cyclic_shift(521), 8), (random_permutation(40, 3), 20)],
                         ids=["cyclic", "random"])
def test_power_phase_runs_each_start_as_if_alone(system, N):
    # one matrix-vector product per (slab, start): a start's iterates do not depend on
    # which other starts share its batch, bit for bit (a stacked product over the
    # starts' columns rounds each column by how many there are)
    f = random_mean_zero(system, 2)
    data, rows = _first_order_kernel(system, f, N)
    G0 = np.stack([g for g, in _seeded_starts(system.size, 1, 2, 4, False)])
    G = G0.copy()
    recurrence._power_phase(data, rows, system.weights, G)
    for j in range(len(G0)):
        alone = G0[j:j + 1].copy()
        recurrence._power_phase(data, rows, system.weights, alone)
        assert np.array_equal(alone[0], G[j])


def _whole_array_kernel(system, f, gs, k, l, N):
    """The kernel from one bincount over the whole (N, M) term table, n-major."""
    M = system.size
    tables = _step_tables(system, range(1, k + 1), N)
    b = f.values[_step_tables(system, [k + 1], N)[0]]
    for j, (g, tbl) in enumerate(zip(gs, tables)):
        if j != l:
            b *= g[tbl]
    b /= N
    idx = (tables[l] * M + np.arange(M)).ravel()
    K = np.empty((M, M), dtype=np.complex128, order="F")
    flat = K.reshape(-1, order="F")
    flat.real = np.bincount(idx, b.real.ravel(), M * M)
    flat.imag = np.bincount(idx, b.imag.ravel(), M * M)
    return K


@pytest.mark.parametrize("system, N", [
    (cyclic_shift(37), 50),
    (random_permutation(37, 3), 41),
    (identity_system(7), 9),
    (product_system(cyclic_shift(3), random_permutation(13, 2)), 47),
    (random_permutation(521, 5), 1100),  # slabs above numpy's 256 KiB temporary-reuse threshold
    (cyclic_shift(101), 12),  # slabs of N + 15 rows
], ids=["cyclic", "random", "identity", "product", "large", "short"])
@pytest.mark.parametrize("width", [5, 1, recurrence._SLAB], ids=["uneven", "one point", "default"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_blocked_fill_matches_whole_array_fill(monkeypatch, system, N, width, k):
    # N exceeds a cycle length of every system but the last, so entries repeat
    M = system.size
    monkeypatch.setattr(recurrence, "_SLAB", width)  # e.g. 37 columns (points) in slabs of 5
    f = random_mean_zero(system, 4)
    rng = np.random.default_rng(k)
    gs = [np.exp(2j * np.pi * rng.random(M)) for _ in range(k)]
    for l in range(k):
        reach = _step_tables(system, [l + 1], N)[0]  # reach[n - 1, x] = T^{(l+1) n} x
        K = np.zeros((M, M), dtype=np.complex128)
        inside = np.zeros((M, M), dtype=bool)
        slab_rows = recurrence._slab_rows(system, l, N)
        # filled in groups of three slabs, the last group shorter where the slabs do not divide
        monkeypatch.setattr(recurrence, "_GROUP_BUDGET", 3 * (width * (N + max(map(len, slab_rows))) + M))
        data, slabs = recurrence._stack_slabs(system, slab_rows)
        layout = list(recurrence._slab_layout(system, k, l, N, slab_rows))
        assert [(g.start, g.stop) for g, _, _ in layout] == [(i, min(i + 3, len(slabs)))
                                                             for i in range(0, len(slabs), 3)]
        recurrence._fill_slabs(data, slabs, layout, f, gs, l, N)
        outside = data.copy()
        for i, (s, (rows, w, S)) in enumerate(zip(range(0, M, width), slabs)):
            cols = np.arange(s, min(s + width, M))
            # the rows are exactly the points whose orbits reach the slab's columns
            assert np.array_equal(rows, np.flatnonzero(np.isin(reach, cols).any(axis=0)))
            assert np.array_equal(w, system.weights[rows])  # as complex numbers
            assert np.shares_memory(S, data) and np.array_equal(S, data[i, :len(rows), :len(cols)])
            K[np.ix_(rows, cols)] = S
            inside[np.ix_(rows, cols)] = True
            outside[i, :len(rows), :len(cols)] = 0.0
        assert s + width >= M and len(slabs) == len(data)
        oracle = _whole_array_kernel(system, f, gs, k, l, N)
        assert np.array_equal(K, oracle)
        assert not oracle[~inside].any()
        assert not outside.any()  # the stacked products read zeros beyond every slab


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_order_ascent_keeps_no_orbit_table():
    # the slabs (full height at N >= M, 4.3 MB in all) are the only (M, M) or
    # (N, M) array: each slab gathers the orbits of its own 16 columns
    # (136.5 MiB with whole tables)
    system = cyclic_shift(521)
    f = random_mean_zero(system, 2)
    peak = _peak_bytes(uniform_mrec_bracket, system, f, 1, 4096, restarts=0, max_cycles=1)
    assert peak < 12 * 2**20


def test_higher_order_ascent_fills_per_block():
    # k = 2 keeps each companion's slab layout for the call, its bins and two
    # orbit tables as int32 (12.8 MB at N = 1024), and one kernel's slabs
    # (4.3 MB); the products and the bincount output are per slab (49.3 MiB
    # with whole-table scratch)
    system = cyclic_shift(521)
    f = random_mean_zero(system, 2)
    peak = _peak_bytes(uniform_mrec_bracket, system, f, 2, 1024, restarts=0, max_cycles=1)
    assert peak < 30 * 2**20


def test_ascent_keeps_no_dense_kernel():
    # 16 N = 128 rows per slab hold 3.9 MiB of kernel; a dense one is 64 MiB
    system = random_permutation(2048, 1)
    f = random_mean_zero(system, 2)
    peak = _peak_bytes(uniform_mrec_bracket, system, f, 1, 8, restarts=0, max_cycles=1)
    assert peak < 16 * 2**20


def test_budget_estimate_charges_the_slab_kernel():
    # refused before any allocation; k = 1 with complex companions: 3 starts x
    # _POWER_STEPS power steps x 2 slab products of M min(M, 16 N) entries, plus the fill's N M
    system = random_permutation(20000, 0)
    f = random_mean_zero(system, 1)
    with pytest.raises(BudgetExceeded) as info:
        uniform_mrec_bracket(system, f, 1, 16, budget=1.0)
    assert info.value.estimate == 3 * 1000 * 2 * 20000 * 256 + 16.0 * 20000 > DEFAULT_BUDGET
    # the sweeps: 3 starts x 60 cycles x k x (N M + M min(M, 16 N))
    for k, real_signs in ((1, True), (2, False)):
        with pytest.raises(BudgetExceeded) as info:
            uniform_mrec_bracket(system, f, k, 16, real_signs=real_signs, budget=1.0)
        assert info.value.estimate == 180 * k * (16.0 * 20000 + 20000 * 256)


_THREAD_PROBE = """
from wwlab.recurrence import uniform_mrec_bracket
from wwlab.systems import cyclic_shift, random_mean_zero
s, t = cyclic_shift(521), cyclic_shift(131)
print(uniform_mrec_bracket(s, random_mean_zero(s, 2), 1, 256, seed=2, max_cycles=15).lower.hex())
print(uniform_mrec_bracket(t, random_mean_zero(t, 4), 2, 64, seed=4).lower.hex())
"""


def test_ascent_is_bit_identical_at_one_and_two_blas_threads():
    # every slab product is at most 521 x 16, which OpenBLAS runs on one thread
    # (the dense 521 x 521 kernel's products were threaded and moved the last bits)
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out.append(subprocess.run([sys.executable, "-c", _THREAD_PROBE], capture_output=True, text=True,
                                  check=True, env=env).stdout.split())
    assert len(out[0]) == 2 and out[0] == out[1]


def test_tied_restarts_report_the_earliest():
    # g and -g reach the same optimum; rounding alone used to pick the restart
    system = cyclic_shift(7)
    f = random_mean_zero(system, 2)
    br = uniform_mrec_bracket(system, f, 1, 16, seed=4, real_signs=True)
    runs = _oracle_ascent(system, f, 1, 16, seed=4, real_signs=True)
    first = next(i for i, r in enumerate(runs) if math.isclose(r[0], br.trace[-1], rel_tol=1e-12))
    assert any(math.isclose(r[0], runs[first][0], rel_tol=1e-12) for r in runs[first + 1:])
    assert len(br.trace) == len(runs[first][2]) == 4
    assert np.allclose(br.trace, runs[first][2], rtol=1e-12, atol=0.0)
    assert br.lower == math.sqrt(br.trace[-1])
    for got, want in zip(br.witnesses, runs[first][1]):
        assert np.array_equal(got, want)


def _counting(monkeypatch, *names):
    """Count the calls of each named function of ``recurrence``, which still runs."""
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(recurrence, name)
        monkeypatch.setattr(recurrence, name, lambda *a, _name=name, _real=real: calls[_name].append(1) or _real(*a))
    return calls


def test_uniform_bracket_memo_hit_is_a_fresh_copy(monkeypatch):
    system = cyclic_shift(8)
    f = random_mean_zero(system, 5)
    calls = _counting(monkeypatch, "_ascent_bracket", "_block_grams", "_sweep")
    first = uniform_mrec_bracket(system, f, 1, 16)
    assert len(calls["_ascent_bracket"]) == 1
    # the power phase is the whole first-order complex ascent: no Gram rows, no sweeps
    assert not calls["_block_grams"] and not calls["_sweep"]
    kept = ([g.copy() for g in first.witnesses], list(first.trace))
    first.witnesses[0][:] = 0.0
    first.trace.append(-1.0)
    again = uniform_mrec_bracket(system, f, 1, 16)
    assert len(calls["_ascent_bracket"]) == 1  # served from the memo
    assert again.lower == first.lower and again.converged == first.converged
    assert all(np.array_equal(a, b) for a, b in zip(again.witnesses, kept[0]))
    assert again.trace == kept[1]
    again.witnesses[0][:] = 1.0
    assert np.array_equal(uniform_mrec_bracket(system, f, 1, 16).witnesses[0], kept[0][0])


@pytest.mark.parametrize("change", [{"seed": 1}, {"max_cycles": 3}, {"restarts": 1},
                                    {"k": 2}, {"real_signs": True}, {"N": 15}])
def test_uniform_bracket_memo_keys_every_argument(monkeypatch, change):
    system = cyclic_shift(8)
    f = random_mean_zero(system, 5)
    args = {"k": 1, "N": 16, "restarts": 2, "seed": 0, "max_cycles": 60, "real_signs": False}
    uniform_mrec_bracket(system, f, **args)
    calls = []
    real_ascent = recurrence._ascent_bracket
    monkeypatch.setattr(recurrence, "_ascent_bracket", lambda *a: calls.append(a) or real_ascent(*a))
    uniform_mrec_bracket(system, f, **args)
    assert not calls  # served from the memo
    args.update(change)
    uniform_mrec_bracket(system, f, **args)
    assert len(calls) == 1  # recomputed, not served from the memo
    assert len(recurrence.memo) == 2


def test_uniform_bracket_memo_keeps_the_budget_guard():
    system = cyclic_shift(8)
    f = random_mean_zero(system, 5)
    uniform_mrec_bracket(system, f, 1, 16)
    with pytest.raises(BudgetExceeded):
        uniform_mrec_bracket(system, f, 1, 16, budget=1.0)
    small = cyclic_shift(4)
    g = random_mean_zero(small, 7)
    uniform_mrec_bracket(small, g, 1, 12, brute_force=True)
    with pytest.raises(BudgetExceeded):
        uniform_mrec_bracket(small, g, 1, 12, brute_force=True, budget=1.0)


def test_uniform_bracket_converged_flag(monkeypatch):
    system = cyclic_shift(8)
    f = random_mean_zero(system, 5)
    # k = 1 with complex companions: the reported start's power phase stopped on tol,
    # and the trace is the objective it reached
    done = uniform_mrec_bracket(system, f, 1, 16)
    assert done.converged and len(done.trace) == 1
    assert done.lower == math.sqrt(done.trace[0])
    # the sweeps (k >= 2 and the sign class) stop on tol, or at max_cycles
    assert uniform_mrec_bracket(system, f, 2, 16).converged
    capped = uniform_mrec_bracket(system, f, 2, 16, max_cycles=2)
    assert not capped.converged and len(capped.trace) == 3
    assert capped.trace[-1] - capped.trace[-2] > recurrence._ASCENT_TOL * max(1.0, capped.trace[-2])
    assert not uniform_mrec_bracket(system, f, 1, 16, real_signs=True, max_cycles=1).converged
    # one power step leaves every start short of tol
    monkeypatch.setattr(recurrence, "_POWER_STEPS", 1)
    short = uniform_mrec_bracket(system, f, 1, 15)
    assert not short.converged and len(short.trace) == 1
    small = cyclic_shift(4)
    assert uniform_mrec_bracket(small, random_mean_zero(small, 7), 1, 12, brute_force=True).converged


def test_uniform_bracket_brute_closes_gap():
    system = cyclic_shift(4)
    f = random_mean_zero(system, 7)
    brute = uniform_mrec_bracket(system, f, 1, 12, brute_force=True)
    assert brute.method == "brute"
    assert brute.lower == brute.upper
    # ascent restricted to the same sign class cannot beat enumeration
    ascent = uniform_mrec_bracket(system, f, 1, 12, real_signs=True, restarts=4)
    assert brute.lower >= ascent.lower - 1e-9


def test_uniform_bracket_rejects_bad_order():
    system = cyclic_shift(4)
    f = random_mean_zero(system, 1)
    with pytest.raises(ValueError):
        uniform_mrec_bracket(system, f, 0, 8)
    with pytest.raises(ValueError):
        uniform_mrec_bracket(system, f, 3, 8, brute_force=True)


def test_polyphase_degree_one_matches_pointwise_sups():
    p, N = 7, 20
    system = cyclic_shift(p)
    f = random_mean_zero(system, 8)
    br = polyphase_mrec_sup(system, [f], ExponentVector((1,)), 1, N)
    orbit = system.orbit_table(N)
    acc_lo = 0.0
    for x in range(p):
        s = sup_modulated_average(f.values[orbit[1 : N + 1, x]])
        acc_lo += s.lower**2 / p
    assert br.lower == pytest.approx(math.sqrt(acc_lo), rel=1e-10)
    assert br.upper >= br.lower


def test_intermediate_F_order_one_is_linear_sup():
    p, N = 5, 16
    system = cyclic_shift(p)
    f = random_mean_zero(system, 9)
    dom = intermediate_F(system, [f], ExponentVector((1,)), 1, N)
    floor = 1.0 / math.isqrt(N)
    assert dom.additive_floor == pytest.approx(floor, rel=1e-12)
    orbit = system.orbit_table(N)
    for x in range(p):
        s = sup_modulated_average(f.values[orbit[1 : N + 1, x]])
        assert dom.lower.values[x].real == pytest.approx(floor + s.lower, rel=1e-10)
    assert np.all(dom.lower.values.real <= dom.upper.values.real + 1e-12)


def test_intermediate_F_shift_range_scales_with_first_exponent():
    system = cyclic_shift(5)
    f = random_mean_zero(system, 2)
    dom = intermediate_F(system, [f], ExponentVector((3,)), 2, 64)
    assert dom.shift_range == math.isqrt(64) // 3


def _whole_orbit_products(system, values, steps, N):
    """seq[x, n-1] = prod_j values_j(T^{a_j n} x), all points at once."""
    points, n = np.arange(system.size)[:, None], np.arange(1, N + 1)
    seq = np.ones((system.size, N), dtype=np.complex128)
    for v, a in zip(values, steps):
        seq *= v[system.orbit_indices(points, a, n)]
    return seq


def _weighted_norm(system, values):
    return math.sqrt(fsum((system.weights * values**2).tolist()))


@pytest.mark.parametrize("chunk", [None, 5 * 24, 24])
def test_polyphase_chunks_match_whole_array(monkeypatch, chunk):
    # at N = 24, chunks of 5 points split 37 unevenly and 24 entries hold one point
    if chunk is not None:
        monkeypatch.setattr(averages, "_POINT_CHUNK_BUDGET", chunk)
    system = random_permutation(37, 2)
    fs = [random_mean_zero(system, 1), random_mean_zero(system, 2)]
    exps = ExponentVector((1, 2))
    seq = _whole_orbit_products(system, [f.values for f in fs], exps.entries, 24)
    lo, up, _ = _grid_sup_rows(seq, 16)
    br = polyphase_mrec_sup(system, fs, exps, 1, 24)
    assert (br.lower, br.upper) == (_weighted_norm(system, lo), max(_weighted_norm(system, up), br.lower))
    seq = seq[:, :5]
    brs = [sup_polyphase(row, 2, 16) for row in seq]
    lo = np.array([b.lower for b in brs])
    up = np.array([b.upper for b in brs])
    br = polyphase_mrec_sup(system, fs, exps, 2, 5)
    assert (br.lower, br.upper) == (_weighted_norm(system, lo), max(_weighted_norm(system, up), br.lower))


@pytest.mark.parametrize("degree, N, oversample", [(2, 3, 16), (3, 3, 4)])
@pytest.mark.parametrize("points_per_chunk", [2.5, 1 / 3])
def test_polyphase_twist_chunks_match_per_point_search(monkeypatch, degree, N, oversample, points_per_chunk):
    # chunks of 2.5 points' outer grids hold several points and split some
    # between two chunks; chunks of a third of one split every point's grid
    system = random_permutation(11, 4)
    fs = [random_mean_zero(system, 1), random_mean_zero(system, 2)]
    exps = ExponentVector((1, 2))
    outer = math.prod(oversample * N**j for j in range(2, degree + 1))
    monkeypatch.setattr(supbrackets, "_POLY_CHUNK", int(points_per_chunk * outer) * N)
    brs = [sup_polyphase(row, degree, oversample)
           for row in _whole_orbit_products(system, [f.values for f in fs], exps.entries, N)]
    lo = np.array([b.lower for b in brs])
    up = np.array([b.upper for b in brs])
    br = polyphase_mrec_sup(system, fs, exps, degree, N, oversample)
    assert (br.lower, br.upper) == (_weighted_norm(system, lo), max(_weighted_norm(system, up), br.lower))


def test_polyphase_streams_point_chunks():
    # no (M, N) product or gather: 80 MiB with the whole sequence table
    system = random_permutation(4096, 1)
    f = random_mean_zero(system, 1)
    assert _peak_bytes(polyphase_mrec_sup, system, [f], ExponentVector((1,)), 1, 512) < 16 * 2**20


def test_polyphase_holds_one_point_chunk():
    # the first factor is gathered into the reused chunk (4 MiB) through its
    # index table (2 MiB): 6.4 MiB measured, bound at about 1.3 times that;
    # 10.2 MiB with a chunk of ones and a gathered factor
    system = random_permutation(4096, 1)
    f = random_mean_zero(system, 1)
    assert _peak_bytes(polyphase_mrec_sup, system, [f], ExponentVector((1,)), 1, 512) < 8.5 * 2**20


@pytest.mark.parametrize("chunk", [None, 5 * 16, 16])
def test_intermediate_F_chunks_match_whole_array(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(recurrence, "_POINT_CHUNK_BUDGET", chunk)
    system = random_permutation(37, 2)
    fs = [random_mean_zero(system, 1), random_mean_zero(system, 2)]
    exps = ExponentVector((1, 2))
    N, K_order = 16, 3
    H = math.isqrt(N)
    lo_acc = np.zeros(system.size)
    up_acc = np.zeros(system.size)
    tuples = [(h1, h2) for h1 in range(1, H + 1) for h2 in range(1, H + 1)]
    for h in tuples:
        cubes = [cube_product(system, CubeAssignment.diagonal(f, K_order - 1), [a * x for x in h]).values
                 for f, a in zip(fs, exps.entries)]
        lo, up, _ = _grid_sup_rows(_whole_orbit_products(system, cubes, exps.entries, N), 16)
        lo_acc += lo
        up_acc += up
    floor = float(H) ** -0.25
    dom = intermediate_F(system, fs, exps, K_order, N)
    assert np.array_equal(dom.lower.values, floor + (lo_acc / len(tuples)) ** 0.25)
    assert np.array_equal(dom.upper.values, floor + (up_acc / len(tuples)) ** 0.25)


def test_intermediate_F_fills_products_per_chunk():
    # one (M, N) index table per exponent (16 MiB) and chunk-sized products:
    # 48.3 MiB with a whole (M, N) product per shift tuple
    system = random_permutation(4096, 1)
    fs = [random_mean_zero(system, 1), random_mean_zero(system, 2)]
    assert _peak_bytes(intermediate_F, system, fs, ExponentVector((1, 2)), 2, 256) < 32 * 2**20


def test_intermediate_F_keeps_no_orbit_table():
    # orbit tables gathered per chunk (2 MiB each): 12.5 MiB measured, bound
    # at about 1.3 times that; 24.6 MiB with a whole (M, N) table per
    # exponent (8 MiB each)
    system = random_permutation(4096, 1)
    fs = [random_mean_zero(system, 1), random_mean_zero(system, 2)]
    assert _peak_bytes(intermediate_F, system, fs, ExponentVector((1, 2)), 2, 256) < 16 * 2**20
