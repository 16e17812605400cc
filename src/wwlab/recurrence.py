"""Multiple recurrence averages, their uniform versions, and companions.

The uniform average of order k maximizes

    || (1/N) sum_{n=1..N} prod_{j=1..k} g_j o T^{j n} . f o T^{(k+1) n} ||_2

over companion observables with sup-norm at most 1.  With all companions
but g_l frozen the average is linear in g_l, A = K_l g_l, and the squared
norm is the positive semidefinite quadratic A^H W A.  The maximization is
Gauss-Seidel coordinate ascent on it: each value of g_l in turn takes the
closed-form phase (or sign) that maximizes the objective with the others
fixed, which never decreases it.  The coordinates are swept in blocks of
16 consecutive points, and K_l is stored as one column slab per block:
block Y keeps only the rows its columns reach, R_Y = {T^{-(l+1) n} y :
y in Y, 1 <= n <= N}, as a dense |R_Y| x 16 array.  That is at most
(l + 1) N + 15 rows where the labels follow the orbits (a cycle in natural
order) and at most 16 N rows in general, so the kernel holds at most
M min(M, 16 N) entries and no M x M array exists; when R_Y covers every
point the same code runs full-height slabs.  Each slab gathers the orbits
of its own columns, so a fill's scratch is 16 x N.  K_l is filled once per
call for k = 1; for k >= 2 the slab structure of each companion (rows, bins
and orbit tables) is gathered once per call and only the values are
refilled every cycle.  A is kept up to date rather than recomputed: per
block, one product gives every ascent direction of the block from A on
R_Y, a scalar loop applies the updates in natural order, coupled only
through the block's Gram matrix, and one product pushes the block's
changes into A on R_Y.  The Gram rows below the diagonal, and the real
diagonal, are turned into Python numbers once per kernel fill (once per
call for k = 1), so the scalar loop reads them directly on every sweep.
The iterates are those of the plain one-coordinate-at-a-time sweep, up to
rounding.  Tiny instances can be solved exactly over the real-sign class
by enumeration.

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

from ._util import check_budget, content_key, fsum, memo
from .averages import _POINT_CHUNK_BUDGET, CubeAssignment, _row_chunks, _strong_kernel, cube_product
from .supbrackets import Bracket, _grid_sup_rows
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
    if norm_p not in (1, 2):
        raise ValueError("norm_p must be 1 or 2")
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
    return fsum((w * np.abs(avg)).tolist())


# -- uniform version ---------------------------------------------------------

_SLAB = 16  # columns per kernel slab: the coordinates of one Gauss-Seidel block


def _slab_layout(system: FiniteSystem, k: int, l: int, N: int):
    """The fixed structure of the column slabs of K_l, one slab at a time.

    Slab Y covers _SLAB consecutive columns y and only the rows they reach,
    R_Y = {T^{-(l+1) n} y : y in Y, 1 <= n <= N} in increasing order; every
    other entry of those columns is zero.  Yields R_Y, w[R_Y], the local bin
    (row in R_Y) |Y| + (y - start) of each term, y-major and n increasing,
    and the orbit tables the terms read: T^{(k-l) n} y for f, then
    T^{(j-l) n} y for each companion j != l.  Each slab gathers the orbits
    of its own columns, so a slab's tables are |Y| x N; bins and tables are
    int32 (16 M < 2**31 on any system whose kernel fits in memory), which
    halves the layouts a call at k >= 2 keeps.
    """
    n = np.arange(1, N + 1)
    local = np.empty(system.size, dtype=np.intp)  # row in R_Y, for the points of R_Y
    for s in range(0, system.size, _SLAB):
        y = np.arange(s, min(s + _SLAB, system.size))[:, None]
        reach = system.orbit_indices(y, -(l + 1), n)
        rows = np.sort(reach, axis=None)
        rows = rows[np.diff(rows, prepend=-1) > 0]
        local[rows] = np.arange(len(rows))
        bins = (local[reach] * len(y) + np.arange(len(y))[:, None]).ravel().astype(np.int32)
        steps = [k - l] + [j - l for j in range(k) if j != l]  # f's first, then the other companions'
        tables = [system.orbit_indices(y, a, n).astype(np.int32) for a in steps]
        # complex weights: w * A then multiplies without casting w, to the same values
        yield rows, system.weights[rows].astype(np.complex128), bins, tables


def _fill_slabs(layout, f: Observable, g_list, l: int, N: int) -> list:
    """Slabs (R_Y, w[R_Y], K_l[R_Y, Y]) of A = K_l g_l, other companions frozen.

    Entry (T^{-(l+1) n} y, y) sums f(T^{(k-l) n} y) prod_{j != l} g_j(T^{(j-l) n} y) / N
    over n = 1..N in increasing order, so repeated entries, where N exceeds
    a cycle length, round as a plain loop: one sequential bincount per slab
    over the bins of :func:`_slab_layout` sees each entry's terms in
    increasing n, and every entry is bit-identical to the same entry of one
    bincount over the whole (N, M) table of terms.
    """
    others = g_list[:l] + g_list[l + 1:]
    scale = 1.0 / N
    slabs = []
    for rows, w, bins, (f_table, *tables) in layout:
        b = f.values[f_table]
        for g, tbl in zip(others, tables):
            # not b * g[tbl]: numpy may reuse the temporary g[tbl] and swap the
            # operands, and a complex product with FMA rounds asymmetrically
            b = np.multiply(b, g[tbl])
        # row-major: each entry of c = S^H W A and of S d is then one dot product,
        # which OpenBLAS computes whole at any thread count (column-major S d is
        # split between threads by rows, which moves its last bits)
        S = np.empty((len(rows), len(b)), dtype=np.complex128)
        # b / N divides by N + 0j, which numpy does as (re + im 0) (1 / N) and
        # (im - re 0) (1 / N): each part times 1 / N up to the sign of a zero,
        # which the bincount's +0.0 start erases
        S.real = np.bincount(bins, (b.real * scale).ravel(), S.size).reshape(S.shape)
        S.imag = np.bincount(bins, (b.imag * scale).ravel(), S.size).reshape(S.shape)
        slabs.append((rows, w, S))
    return slabs


def _kernel_apply(slabs, g) -> np.ndarray:
    """A = K g, accumulated slab by slab."""
    A = np.zeros(len(g), dtype=np.complex128)
    for s, (rows, _, S) in zip(range(0, len(g), _SLAB), slabs):
        A[rows] += S.dot(g[s:s + S.shape[1]])
    return A


def _block_grams(slabs) -> list:
    """Gram rows of G = S^H W S for the slabs S of a kernel.

    For each slab, ``rows[i]`` holds G[i, :i] as Python complex numbers and
    ``diag[i]`` the real G[i, i], ready for the scalar loop of the sweep.
    """
    grams = []
    for _, w, S in slabs:
        G = (np.conj(w[:, None] * S).T @ S).tolist()
        grams.append(([row[:i] for i, row in enumerate(G)], [row[i].real for i, row in enumerate(G)]))
    return grams


def _sweep(slabs, grams, g, A, real_signs: bool) -> None:
    """One Gauss-Seidel pass over the coordinates of g, in natural order.

    Updates g and A = K g in place.  Per slab Y, one product gives
    c = S^H W A[R_Y] for the whole block; coordinate i then sees the changes
    d_j of the earlier coordinates through the block's Gram matrix,
    c_i + sum_{j<i} G[i, j] d_j, and one product pushes d into A[R_Y].
    """
    gl = g.tolist()
    for s, (rows, w, S), (grow, diag) in zip(range(0, len(gl), _SLAB), slabs, grams):
        AR = A[rows]
        c = np.dot(np.conj(w * AR), S).conj().tolist()
        d = [0j] * len(c)
        for i, gi in enumerate(gl[s:s + len(c)]):
            ci = c[i] + sum(map(operator.mul, grow[i], d)) - diag[i] * gi
            if real_signs:
                new = 1.0 if ci.real > 0 else (-1.0 if ci.real < 0 else gi)
            else:
                mag = abs(ci)
                new = ci / mag if mag > 1e-300 else gi
            if new != gi:
                gl[s + i] = new
                d[i] = new - gi
        if any(d):
            AR += S.dot(np.asarray(d))
            A[rows] = AR
    g[:] = gl


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
        est = (restarts + 1) * max_cycles * k * (float(N) * M + M * min(M, _SLAB * N))
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
    best_obj = -1.0
    best_g = None
    best_trace: list = []
    best_converged = False
    # k = 1 fills once, so its layout streams slab by slab; k >= 2 refills every cycle
    layouts = [list(_slab_layout(system, k, l, N)) for l in range(k)] if k > 1 else [_slab_layout(system, 1, 0, N)]
    for attempt in range(restarts + 1):
        if attempt == 0:
            g_list = [np.ones(M, dtype=np.complex128) for _ in range(k)]
        elif real_signs:
            g_list = [np.where(rng.random(M) < 0.5, -1.0, 1.0).astype(np.complex128) for _ in range(k)]
        else:
            g_list = [np.exp(2j * np.pi * rng.random(M)) for _ in range(k)]
        if attempt == 0 or k > 1:  # for k = 1 the kernel never changes
            slabs = _fill_slabs(layouts[0], f, g_list, 0, N)
            grams = _block_grams(slabs)
        A = _kernel_apply(slabs, g_list[0])
        obj = fsum((w * np.abs(A) ** 2).tolist())
        trace = [obj]
        converged = False
        for cycle in range(max_cycles):
            for l in range(k):
                if k > 1 and (cycle or l):
                    slabs = _fill_slabs(layouts[l], f, g_list, l, N)
                    grams = _block_grams(slabs)
                _sweep(slabs, grams, g_list[l], A, real_signs)
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
    lo, up = _strong_kernel(system, [(f.values, a) for f, a in zip(functions, exponents.entries)],
                            phase_degree, N, oversample, 2)
    return Bracket(lo, max(up, lo), ())


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


def _orbit_scalars(system: FiniteSystem, functions, exponents: ExponentVector, x_point: int, N: int) -> np.ndarray:
    """prod_j f_j(T^{a_j n} x) for n = 1..N along the orbit of one point x."""
    scalars = np.ones(N, dtype=np.complex128)
    for f, a in zip(functions, exponents.entries):
        if len(f) != system.size:
            raise ValueError("observable size does not match system")
        scalars *= f.values[system.orbit_indices(x_point, a, np.arange(1, N + 1))]
    return scalars


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
    scalars = _orbit_scalars(systemX, functions, exponents, x_point, N)
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
    lo_acc = np.zeros(M)
    up_acc = np.zeros(M)
    for x, seq in _row_chunks(M, N, _POINT_CHUNK_BUDGET):
        tables = [system.orbit_indices(points[x], a, n) for a in exponents.entries]  # one orbit per row
        # the chunk's orbit tables are built once, its cube products (O(M)
        # each) once per shift tuple
        for h in tuples:
            cubes = [cube_product(system, CubeAssignment.diagonal(f, K_order - 1), [a * y for y in h]).values
                     for f, a in zip(functions, exponents.entries)]
            (c0, t0), *rest = zip(cubes, tables)
            np.take(c0, t0, out=seq, mode="clip")
            for cube, tbl in rest:
                seq *= cube[tbl]
            lo, up, _ = _grid_sup_rows(seq, oversample)
            lo_acc[x] += lo
            up_acc[x] += up
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
