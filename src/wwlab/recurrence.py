"""Multiple recurrence averages, their uniform versions, and companions.

The uniform average of order k maximizes

    || (1/N) sum_{n=1..N} prod_{j=1..k} g_j o T^{j n} . f o T^{(k+1) n} ||_2

over companion observables with sup-norm at most 1.  With all companions
but g_l frozen the average is linear in g_l, A = K_l g_l, and the squared
norm is the positive semidefinite quadratic A^H W A.  The maximization is
Gauss-Seidel coordinate ascent on it: each value of g_l in turn takes the
closed-form phase (or sign) that maximizes the objective with the others
fixed, which never decreases it.  K_l is built once per call for k = 1 and
once per companion and cycle for k >= 2, one block of rows (points) at a
time, so a fill's scratch has a fixed size whatever N and M.  For k = 1
each block gathers its own orbits, so no (N, M) table exists and the dense
M x M kernel is the call's largest array; for k >= 2 the orbit tables are
gathered once per call and sliced.  A is kept up to date rather than
recomputed, and the coordinates are swept in fixed blocks: one matrix
product gives every ascent direction of a block, a scalar loop applies the
updates in natural order, coupled only through the block's Gram matrix,
and one product pushes the block's changes into A.  The Gram rows below
the diagonal, and the real diagonal, are turned into Python numbers once
per kernel fill (once per call for k = 1), so the scalar loop reads them
directly on every sweep.  The iterates are those of the plain
one-coordinate-at-a-time sweep, up to rounding.  Tiny instances can be
solved exactly over the real-sign class by enumeration.

Results are memoised per process (see :mod:`wwlab._util`): a repeated
call with the same system map and weights, observable values and numeric
arguments returns a copy of the stored bracket without another ascent.
The budget check still runs first; the key holds every argument but
``budget``.

Also here: fixed-function recurrence norms, polynomial-phase suprema of
recurrence products, return-times weighted averages driven by a second
system, and the pointwise dominating quantity built from scaled cube
products that controls two-system averages.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import check_budget, content_key, fsum, fsum_complex, memo
from .averages import _POINT_CHUNK_BUDGET, CubeAssignment, cube_product
from .supbrackets import Bracket, _grid_sup_rows, sup_polyphase
from .systems import FiniteSystem, Observable

_BRUTE_CASE_CAP = 1 << 20


@dataclass(frozen=True)
class ExponentVector:
    """Distinct nonzero integer exponents a_1 .. a_J."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(int(a) for a in self.entries)
        if not entries:
            raise ValueError("exponent vector must be nonempty")
        if any(a == 0 for a in entries):
            raise ValueError("exponents must be nonzero")
        if len(set(entries)) != len(entries):
            raise ValueError("exponents must be distinct")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def first_abs(self) -> int:
        return abs(self.entries[0])


@dataclass
class MrecBracket:
    """Result of a uniform recurrence maximization.

    ``lower`` is always attained by the reported witnesses; ``upper`` is the
    triangle-inequality cap ||f||_2 unless brute-force enumeration closed
    the gap (then the two endpoints agree on the searched class).
    ``converged`` says whether the reported restart stopped on ``tol``
    rather than at ``max_cycles`` (always true for brute force, which is
    exact).  It is diagnostic only: CLI rows and cache records omit it.
    """

    lower: float
    upper: float
    method: str
    witnesses: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    converged: bool = False

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _step_tables(system: FiniteSystem, steps, N: int) -> list:
    """Index tables t[n-1] = T^{a n} for n = 1..N, one per step a."""
    n = np.arange(1, N + 1)[:, None]
    return [system.orbit_indices(slice(None), a, n) for a in steps]


def multiple_recurrence_average(
    system: FiniteSystem,
    functions,
    exponents: ExponentVector,
    N: int,
    norm_p: int = 2,
):
    """|| (1/N) sum_n prod_j f_j o T^{a_j n} ||_p for given observables."""
    if len(functions) != len(exponents):
        raise ValueError("need one observable per exponent")
    if N < 1:
        raise ValueError("N must be >= 1")
    for f in functions:
        if len(f) != system.size:
            raise ValueError("observable size does not match system")
    check_budget(float(N) * system.size * len(functions), what="multiple_recurrence_average")
    acc = np.zeros(system.size, dtype=np.complex128)
    for term in companion_weights(system, functions, exponents.entries, N):  # in order of n, not pairwise
        acc += term
    avg = acc / N
    w = system.weights
    if norm_p == 2:
        return math.sqrt(fsum((w * np.abs(avg) ** 2).tolist()))
    if norm_p == 1:
        return fsum((w * np.abs(avg)).tolist())
    raise ValueError("norm_p must be 1 or 2")


# -- uniform version ---------------------------------------------------------

_BLOCK = 32  # coordinates per Gauss-Seidel block
_FILL_BLOCK = 1 << 16  # points per kernel fill block, times max(N, M): 1 MiB of complex terms


def _kernel_rows(system: FiniteSystem, f: Observable, k: int, N: int):
    """Source of the orbit data a kernel fill reads, one block of points at a time.

    ``rows(x)`` returns f o T^{(k+1) n} and the companions' index tables
    T^{(j+1) n}, one orbit per row (shape (points, N)), on the points of
    the slice ``x``.  For k = 1 the kernel is filled once per call, so each
    block gathers its own orbits and no (N, M) table is kept; for k >= 2 it
    is refilled every cycle, so the tables are gathered once and sliced.
    """
    points, n = np.arange(system.size)[:, None], np.arange(1, N + 1)
    if k == 1:
        return lambda x: (f.values[system.orbit_indices(points[x], 2, n)], [system.orbit_indices(points[x], 1, n)])
    f_seq = f.values[system.orbit_indices(points, k + 1, n)]
    tables = [system.orbit_indices(points, a, n) for a in range(1, k + 1)]
    return lambda x: (f_seq[x], [tbl[x] for tbl in tables])


def _fill_kernel(K, rows, g_list, l: int, N: int) -> None:
    """Overwrite K so that A(x) = sum_y K[x, y] g_l(y), other companions frozen.

    Entry (x, T^{(l+1) n} x) sums f(T^{(k+1) n} x) prod_{j != l} g_j(T^{(j+1) n} x) / N
    over n = 1..N in increasing order, so repeated entries, where N exceeds a
    cycle length, round as a plain loop.  K is filled one block of rows
    (points x) at a time from ``rows`` (see :func:`_kernel_rows`): one
    sequential bincount over the block's local bins (x - start) M + y sees
    each entry's terms in increasing n, so every entry is bit-identical to
    one bincount over the whole (N, M) table of terms, while the scratch
    stays O(_FILL_BLOCK).
    """
    M = K.shape[0]
    step = max(1, _FILL_BLOCK // max(M, N))
    scale = 1.0 / N
    for s in range(0, M, step):
        x = slice(s, min(s + step, M))
        b, tables = rows(x)
        for j, (g, tbl) in enumerate(zip(g_list, tables)):
            if j != l:
                # not b * g[tbl]: numpy may reuse the temporary g[tbl] and swap the
                # operands, and a complex product with FMA rounds asymmetrically
                b = np.multiply(b, g[tbl])
        # b / N divides by N + 0j, which numpy does as (re + im 0) (1 / N) and
        # (im - re 0) (1 / N): each part times 1 / N up to the sign of a zero,
        # which the bincount's +0.0 start erases
        idx = (tables[l] + np.arange(0, len(b) * M, M)[:, None]).ravel()
        Kb = K[x]
        Kb.real = np.bincount(idx, (b.real * scale).ravel(), Kb.size).reshape(Kb.shape)
        Kb.imag = np.bincount(idx, (b.imag * scale).ravel(), Kb.size).reshape(Kb.shape)


def _block_grams(K, w) -> list:
    """Gram rows of G = K_Y^H W K_Y for the blocks Y of columns of K.

    For each block, ``rows[i]`` holds G[i, :i] as Python complex numbers and
    ``diag[i]`` the real G[i, i], ready for the scalar loop of the sweep.
    Matrix-vector products only: a matrix-matrix product would make the
    BLAS library fault in its packing buffers.
    """
    grams = []
    for s in range(0, K.shape[1], _BLOCK):
        Kb = K[:, s:s + _BLOCK]
        WKb = np.conj(w[:, None] * Kb)
        rows, diag = [], []
        for i in range(Kb.shape[1]):
            row = (WKb[:, i] @ Kb[:, :i + 1]).tolist()
            diag.append(row.pop().real)
            rows.append(row)
        grams.append((rows, diag))
    return grams


def _sweep(K, grams, g, A, w, real_signs: bool) -> None:
    """One Gauss-Seidel pass over the coordinates of g, in natural order.

    Updates g and A = K g in place.  Per block Y, one product gives
    c = K_Y^H W A for the whole block; coordinate i then sees the changes
    d_j of the earlier coordinates through the block's Gram matrix,
    c_i + sum_{j<i} G[i, j] d_j, and one product pushes d into A.
    """
    for s, (rows, diag) in zip(range(0, K.shape[1], _BLOCK), grams):
        Kb = K[:, s:s + _BLOCK]
        c = (np.conj(w * A) @ Kb).conj().tolist()
        gb = g[s:s + _BLOCK].tolist()
        d = [0j] * len(gb)
        for i, gi in enumerate(gb):
            ci = c[i] + sum(map(operator.mul, rows[i], d)) - diag[i] * gi
            if real_signs:
                new = 1.0 if ci.real > 0 else (-1.0 if ci.real < 0 else gi)
            else:
                mag = abs(ci)
                new = ci / mag if mag > 1e-300 else gi
            if new != gi:
                gb[i] = new
                d[i] = new - gi
        g[s:s + _BLOCK] = gb
        A += Kb @ np.array(d)


def uniform_mrec_bracket(
    system: FiniteSystem,
    f: Observable,
    k: int,
    N: int,
    restarts: int = 2,
    seed: int = 0,
    tol: float = 1e-9,
    max_cycles: int = 60,
    real_signs: bool = False,
    brute_force: bool = False,
    budget=None,
) -> MrecBracket:
    """Maximize the order-k recurrence norm over companions bounded by 1.

    Alternating maximization from seeded starts (plus the all-ones start);
    the per-sweep objective trace is monotone by construction.  Restarts
    that tie up to a relative 1e-12 report the earliest one.  With
    ``brute_force`` the real-sign class {-1, +1}^points per companion is
    enumerated exactly instead (k <= 2 and small systems only).
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    if len(f) != system.size:
        raise ValueError("observable size does not match system")
    M = system.size
    if brute_force:
        if k > 2:
            raise ValueError("brute force supports k <= 2")
        cases = (1 << M) ** k
        if cases > _BRUTE_CASE_CAP:
            raise ValueError(f"brute force would enumerate {cases} cases (cap {_BRUTE_CASE_CAP})")
        check_budget(float(cases) * N * M, budget, "uniform_mrec_bracket brute force")
    else:
        est = (restarts + 1) * max_cycles * k * (float(N) * M + M * M)
        check_budget(est, budget, "uniform_mrec_bracket")
    key = content_key(system, [f], "uniform_mrec_bracket", k, N, restarts, seed, tol, max_cycles,
                      real_signs, brute_force)
    result = memo.get(key)
    if result is None:
        if brute_force:
            result = _brute_bracket(system, f, k, N)
        else:
            result = _ascent_bracket(system, f, k, N, restarts, seed, tol, max_cycles, real_signs)
        memo.put(key, result, sum(g.nbytes for g in result.witnesses) + 32 * len(result.trace))
    # the stored result never leaves the memo, so callers may mutate theirs
    return replace(result, witnesses=[g.copy() for g in result.witnesses], trace=list(result.trace))


def _brute_bracket(system, f, k, N) -> MrecBracket:
    M = system.size
    w = system.weights
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=M)))
    best = -1.0
    best_g = None
    *tables, f_table = _step_tables(system, range(1, k + 2), N)
    f_seq = f.values[f_table]
    for combo in itertools.product(range(signs.shape[0]), repeat=k):
        gs = [signs[i] for i in combo]
        terms = f_seq
        for g, tbl in zip(gs, tables):
            terms = terms * g[tbl]
        acc = np.zeros(M, dtype=np.complex128)
        for term in terms:  # in order of n
            acc += term
        val = fsum((w * np.abs(acc / N) ** 2).tolist())
        if val > best:
            best = val
            best_g = [g.copy() for g in gs]
    val = math.sqrt(best)
    return MrecBracket(val, val, "brute", [np.asarray(g) for g in best_g], converged=True)


def _ascent_bracket(system, f, k, N, restarts, seed, tol, max_cycles, real_signs) -> MrecBracket:
    M = system.size
    w = system.weights
    cap = math.sqrt(fsum((w * np.abs(f.values) ** 2).tolist()))
    rng = np.random.default_rng(int(seed))
    K = np.empty((M, M), dtype=np.complex128, order="F")  # column blocks are views
    rows = _kernel_rows(system, f, k, N)
    best_obj = -1.0
    best_g = None
    best_trace: list = []
    best_converged = False
    for attempt in range(restarts + 1):
        if attempt == 0:
            g_list = [np.ones(M, dtype=np.complex128) for _ in range(k)]
        elif real_signs:
            g_list = [np.where(rng.random(M) < 0.5, -1.0, 1.0).astype(np.complex128) for _ in range(k)]
        else:
            g_list = [np.exp(2j * np.pi * rng.random(M)) for _ in range(k)]
        if attempt == 0 or k > 1:  # for k = 1 the kernel never changes
            _fill_kernel(K, rows, g_list, 0, N)
            grams = _block_grams(K, w)
        A = K @ g_list[0]
        obj = fsum((w * np.abs(A) ** 2).tolist())
        trace = [obj]
        converged = False
        for cycle in range(max_cycles):
            for l in range(k):
                if k > 1 and (cycle or l):
                    _fill_kernel(K, rows, g_list, l, N)
                    grams = _block_grams(K, w)
                _sweep(K, grams, g_list[l], A, w, real_signs)
            obj_new = fsum((w * np.abs(A) ** 2).tolist())
            if obj_new < obj - 1e-12 * max(1.0, obj):
                raise AssertionError("coordinate ascent decreased the objective")
            trace.append(obj_new)
            if obj_new - obj <= tol * max(1.0, obj):
                obj = obj_new
                converged = True
                break
            obj = obj_new
        # restarts that tie in exact arithmetic (g and -g, a common phase)
        # differ by rounding alone; keeping the earliest makes the choice stable
        if obj > best_obj * (1 + 1e-12):
            best_obj = obj
            best_g = [g.copy() for g in g_list]
            best_trace = trace
            best_converged = converged
    lower = math.sqrt(max(best_obj, 0.0))
    upper = max(cap, lower)
    return MrecBracket(lower, upper, "alternating", best_g, best_trace, best_converged)


# -- polynomial-phase supremum over recurrence products ----------------------


def polyphase_mrec_sup(
    system: FiniteSystem,
    functions,
    exponents: ExponentVector,
    phase_degree: int,
    N: int,
    oversample: int = 16,
    budget=None,
) -> Bracket:
    """Bracket for || sup_{t_1..t_k} |(1/N) sum_n e^{2 pi i p_t(n)}
    prod_j f_j o T^{a_j n}| ||_2 with p_t(n) = t_1 n + ... + t_k n^k."""
    if len(functions) != len(exponents):
        raise ValueError("need one observable per exponent")
    if phase_degree < 1:
        raise ValueError("phase degree must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    M = system.size
    check_budget(float(M) * oversample ** phase_degree * float(N) ** (phase_degree * (phase_degree + 1) // 2 + 1),
                 budget, "polyphase_mrec_sup")
    lo = np.empty(M)
    up = np.empty(M)
    points, n = np.arange(M)[:, None], np.arange(1, N + 1)
    chunk = max(1, _POINT_CHUNK_BUDGET // N)  # one orbit per row, as in the strong kernel
    for start in range(0, M, chunk):
        x = slice(start, min(start + chunk, M))
        seq = np.ones((x.stop - start, N), dtype=np.complex128)
        for f, a in zip(functions, exponents.entries):
            seq *= f.values[system.orbit_indices(points[x], a, n)]
        if phase_degree == 1:
            lo[x], up[x], _ = _grid_sup_rows(seq, oversample)
        else:
            for i, row in enumerate(seq, start):
                b = sup_polyphase(row, phase_degree, oversample, budget)
                lo[i] = b.lower
                up[i] = b.upper
    w = system.weights
    lo_n = math.sqrt(fsum((w * lo**2).tolist()))
    up_n = math.sqrt(fsum((w * up**2).tolist()))
    return Bracket(lo_n, max(up_n, lo_n), ())


# -- return times ------------------------------------------------------------


def _poly_eval_int(coeffs, n: int) -> int:
    """Integer polynomial c_0 + c_1 n + c_2 n^2 + ... evaluated exactly."""
    acc = 0
    for c in reversed(list(coeffs)):
        acc = acc * n + int(c)
    return acc


def companion_weights(systemY: FiniteSystem, g_list, steps, N: int) -> np.ndarray:
    """W[n-1, y] = prod_k g_k(S^{b_k n} y) for n = 1..N."""
    if len(g_list) != len(steps):
        raise ValueError("need one companion observable per step")
    if any(len(g) != systemY.size for g in g_list):
        raise ValueError("companion size does not match system")
    W = np.ones((N, systemY.size), dtype=np.complex128)
    n = np.arange(1, N + 1)[:, None]
    for g, b in zip(g_list, steps):
        W *= g.values[systemY.orbit_indices(slice(None), b, n)]  # one step table at a time
    return W


def return_times_average(
    systemY: FiniteSystem,
    g: Observable,
    poly_coeffs,
    systemX: FiniteSystem,
    functions,
    exponents: ExponentVector,
    x_point: int,
    N: int,
) -> Observable:
    """Observable y -> (1/N) sum_n g(S^{P(n)} y) prod_j f_j(T^{a_j n} x).

    P is an integer-coefficient polynomial (constant first).  Orbit
    positions are reduced modulo cycle lengths in exact integer arithmetic,
    so large P(n) values and exponents a_j cost nothing.
    """
    if len(g) != systemY.size:
        raise ValueError("weight observable size does not match its system")
    if not 0 <= x_point < systemX.size:
        raise ValueError("base point out of range")
    if len(functions) != len(exponents):
        raise ValueError("need one observable per exponent")
    if N < 1:
        raise ValueError("N must be >= 1")
    check_budget(float(N) * (systemY.size + len(functions)), what="return_times_average")
    # scalar factors along the X orbit
    scalars = np.ones(N, dtype=np.complex128)
    for f, a in zip(functions, exponents.entries):
        if len(f) != systemX.size:
            raise ValueError("observable size does not match base system")
        scalars *= f.values[systemX.orbit_indices(x_point, a, np.arange(1, N + 1))]
    acc = np.zeros(systemY.size, dtype=np.complex128)
    for n in range(1, N + 1):
        perm = systemY.power_indices(_poly_eval_int(poly_coeffs, n))
        acc += g.values[perm] * scalars[n - 1]
    return Observable(acc / N)


# -- pointwise dominating quantity -------------------------------------------


@dataclass(frozen=True)
class PointwiseDominator:
    """Per-point bracket values of the dominating quantity."""

    lower: Observable
    upper: Observable
    shift_range: int
    additive_floor: float


def intermediate_F(
    system: FiniteSystem,
    functions,
    exponents: ExponentVector,
    K_order: int,
    N: int,
    oversample: int = 16,
    budget=None,
) -> PointwiseDominator:
    """Pointwise dominator built from cube products at scale a_j.

    Per point x the value is

        floor(sqrt(N))^{-1/2^{K-1}} +
        ( mean over shift tuples h in [floor(sqrt(N)/|a_1|)]^{K-1} of
          sup_t |(1/N) sum_n e^{2 pi i n t} prod_j G_{j,h}(T^{a_j n} x)|
        )^{1/2^{K-1}},

    where G_{j,h} = prod_{eta} C^{|eta|} f_j o T^{a_j (h . eta)}.  Lower and
    upper endpoints come from the certified supremum brackets.
    """
    if K_order < 1:
        raise ValueError("K must be >= 1")
    if len(functions) != len(exponents):
        raise ValueError("need one observable per exponent")
    if N < 1:
        raise ValueError("N must be >= 1")
    M = system.size
    root = max(1, math.isqrt(N))
    H = max(1, math.isqrt(N) // exponents.first_abs)
    tuples = list(itertools.product(range(1, H + 1), repeat=K_order - 1))
    check_budget(len(tuples) * float(M) * N * oversample * max(1.0, math.log2(oversample * N)),
                 budget, "intermediate_F")
    points, n = np.arange(M)[:, None], np.arange(1, N + 1)
    tables = [system.orbit_indices(points, a, n) for a in exponents.entries]  # one orbit per row
    chunk = max(1, _POINT_CHUNK_BUDGET // N)
    lo_acc = np.zeros(M)
    up_acc = np.zeros(M)
    lo = np.empty(M)
    up = np.empty(M)
    for h in tuples:
        cubes = [cube_product(system, CubeAssignment.diagonal(f, K_order - 1), [a * x for x in h]).values
                 for f, a in zip(functions, exponents.entries)]
        for start in range(0, M, chunk):
            x = slice(start, min(start + chunk, M))
            seq = np.ones((x.stop - start, N), dtype=np.complex128)
            for cube, tbl in zip(cubes, tables):
                seq *= cube[tbl[x]]
            lo[x], up[x], _ = _grid_sup_rows(seq, oversample)
        lo_acc += lo
        up_acc += up
    lo_acc /= len(tuples)
    up_acc /= len(tuples)
    floor_term = float(root) ** (-1.0 / 2 ** (K_order - 1))
    expo = 1.0 / 2 ** (K_order - 1)
    return PointwiseDominator(
        Observable(floor_term + lo_acc**expo),
        Observable(floor_term + up_acc**expo),
        H,
        floor_term,
    )
