"""Multiple recurrence averages, their uniform versions, and companions.

The uniform average of order k maximizes

    || (1/N) sum_{n=1..N} prod_{j=1..k} g_j o T^{j n} . f o T^{(k+1) n} ||_2

over companion observables with sup-norm at most 1.  With all companions
but g_l frozen the average is linear in g_l, A = K_l g_l, and the squared
norm is the positive semidefinite quadratic A^H W A.  For k = 1 with
complex companions the maximization is a power iteration with momentum
on it, every start at once (see :func:`_power_phase`).  Otherwise (k >= 2,
or the real-sign class) it is Gauss-Seidel coordinate ascent: each value
of g_l in turn takes the closed-form phase (or sign) that maximizes the
objective with the others fixed, which never decreases it.  The
coordinates are swept in blocks of 16 consecutive points, and K_l is
stored as one column slab per block: block Y keeps only the rows its
columns reach, R_Y = {T^{-(l+1) n} y : y in Y, 1 <= n <= N}, as a dense
|R_Y| x 16 array.  That is at most
(l + 1) N + 15 rows where the labels follow the orbits (a cycle in natural
order) and at most 16 N rows in general, so the kernel holds at most
M min(M, 16 N) entries and no M x M array exists; when R_Y covers every
point the same code runs full-height slabs.  The slabs of one kernel are
stacked in one zero-padded (slabs, max |R_Y|, 16) array and each slab is a
view of it.  A fill takes one group of consecutive whole slabs per pass:
one gather per factor and one bincount per part, written straight into
the stacked array, with scratch bounded by a fixed number of entries.
K_l is filled once per call for k = 1, its groups streamed; for k >= 2
the structure of each group of each companion (bins and orbit tables) is
gathered once per call and only the values are refilled every cycle.  A
is kept up to date rather than recomputed: per block, one product gives
every ascent direction of the block from A on R_Y, a scalar loop applies
the updates in natural order, coupled only through the block's Gram
matrix, and one product pushes the block's changes into A on R_Y.  The
Gram rows below the diagonal, and the real diagonal, are turned into
Python numbers once per kernel fill (once per call for k = 1), so the
scalar loop reads them directly on every sweep.  The iterates are those
of the plain one-coordinate-at-a-time sweep, up to rounding.

For k = 1 with complex companions no Gram rows are built and no sweep
runs: every start runs the power phase, g <- phase(K^H W K g) with
momentum, all live starts at once as the rows of one array, each product
one matrix-vector product per slab and start, so a start's iterates do
not depend on the other starts.  A power step never lowers the objective,
and its cost does not grow with a Python loop over points.  Tiny
instances can be solved exactly over the real-sign class by enumeration.

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

from ._util import check_budget, content_key, float_power, fsum, memo
from .averages import _POINT_CHUNK_BUDGET, CubeAssignment, _row_chunks, _strong_kernel, cube_product
from .supbrackets import Bracket, _grid_sup_rows
from .systems import FiniteSystem, Observable

_BRUTE_CASE_CAP = 1 << 20
_ASCENT_TOL = 1e-9  # a restart stops once a cycle or power step raises the objective by at most this, relative


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
    ``trace`` holds the reported restart's objective before its first sweep
    and after each sweep cycle; at k = 1 with complex companions, where no
    sweep runs, it is [the objective the power phase reached].
    ``converged`` says whether the reported restart's sweeps stopped on
    _ASCENT_TOL rather than at ``max_cycles``, or at k = 1 with complex
    companions whether its power phase stopped on _ASCENT_TOL before
    _POWER_STEPS steps (always true for brute force, which is exact).  It
    is diagnostic only: CLI rows and cache records omit it.
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
    budget=None,
):
    """|| (1/N) sum_n prod_j f_j o T^{a_j n} ||_2 for given observables."""
    if len(functions) != len(exponents):
        raise ValueError("need one observable per exponent")
    if N < 1:
        raise ValueError("N must be >= 1")
    for f in functions:
        if len(f) != system.size:
            raise ValueError("observable size does not match system")
    check_budget(float(N) * system.size * len(functions), budget, "multiple_recurrence_average")
    factors = [(f.values, a) for f, a in zip(functions, exponents.entries)]
    acc = np.zeros(system.size, dtype=np.complex128)
    for n, terms in _row_chunks(N, system.size, _POINT_CHUNK_BUDGET):  # one chunk of counts n at a time
        system.orbit_product(factors, slice(None), np.arange(n.start + 1, n.stop + 1)[:, None], out=terms)
        for term in terms:  # in order of n, not pairwise
            acc += term
    return math.sqrt(fsum((system.weights * np.abs(acc / N) ** 2).tolist()))


# -- uniform version ---------------------------------------------------------

_SLAB = 16  # columns per kernel slab: the coordinates of one Gauss-Seidel block
_MOMENTUM = 0.9  # weight of the last move in the power phase's momentum step
_POWER_STEPS = 1000  # power steps per restart at most
_GROUP_BUDGET = 1 << 15  # entries per group of slabs filled in one pass: terms, stacked entries, row map


def _slab_rows(system: FiniteSystem, l: int, N: int) -> list:
    """R_Y = {T^{-(l+1) n} y : y in Y, 1 <= n <= N} in increasing order, per slab Y.

    Slab Y covers _SLAB consecutive columns y; every other entry of those
    columns of K_l is zero.
    """
    n = np.arange(1, N + 1)
    mark = np.zeros(system.size, dtype=bool)  # the points one slab reaches, cleared after each slab
    rows = []
    for s in range(0, system.size, _SLAB):
        mark[system.orbit_indices(np.arange(s, min(s + _SLAB, system.size))[:, None], -(l + 1), n)] = True
        rows.append(np.flatnonzero(mark))
        mark[rows[-1]] = False
    return rows


def _padded_rows(rows: list, M: int) -> np.ndarray:
    """The slab rows R_Y as one (slabs, max |R_Y|) array, each row padded with the point M."""
    pad = np.full((len(rows), max(map(len, rows))), M)
    for i, r in enumerate(rows):
        pad[i, :len(r)] = r
    return pad


def _slab_layout(system: FiniteSystem, k: int, l: int, N: int, rows: list):
    """The fixed structure of the column slabs of K_l, one group of consecutive slabs at a time.

    Yields, per group (a slice of the stacked slabs of :func:`_stack_slabs`),
    the bin of each term in the group's part of the stacked array, entry
    (slab, row in R_Y, y - start) with R_Y from :func:`_slab_rows`, y-major
    and n increasing, and the orbit tables the terms read: T^{(k-l) n} y for
    f, then T^{(j-l) n} y for each companion j != l.  A group holds as many
    whole slabs as keep its terms, its stacked entries and its map from
    points to rows within _GROUP_BUDGET entries (one slab at least); bins
    and tables are int32 (16 M < 2**31 on any system whose kernel fits in
    memory), which halves the layouts a call at k >= 2 keeps.
    """
    M = system.size
    n = np.arange(1, N + 1)
    pad = _padded_rows(rows, M)
    nslab, height = pad.shape
    size = max(1, _GROUP_BUDGET // (_SLAB * (N + height) + M))
    steps = [k - l] + [j - l for j in range(k) if j != l]  # f's first, then the other companions'
    for i in range(0, nslab, size):
        group = slice(i, min(i + size, nslab))
        y = np.arange(i * _SLAB, min(group.stop * _SLAB, M))[:, None]
        # stacked row of each point of R_Y in the group, one row of M + 1 per slab (pad rows all write point M)
        local = np.empty((group.stop - i, M + 1), dtype=np.intp)
        local[np.arange(group.stop - i)[:, None], pad[group]] = np.arange(pad[group].size).reshape(-1, height)
        at = system.orbit_indices(y, -(l + 1), n)
        at += (y // _SLAB - i) * (M + 1)
        bins = np.take(local, at, out=at)
        bins *= _SLAB
        bins += y % _SLAB
        yield group, bins.ravel().astype(np.int32), [system.orbit_indices(y, a, n).astype(np.int32) for a in steps]


def _stack_slabs(system: FiniteSystem, rows: list):
    """A zero kernel with the slab rows ``rows``, and the slabs (R_Y, w[R_Y], S) viewing it.

    The slabs are stacked in one (slabs, max |R_Y|, _SLAB) array, zero
    beyond each slab's |R_Y| x |Y| corner, so a product with every slab at
    once is one stacked matmul; each S is its slab's corner, row-major.
    """
    M = system.size
    data = np.zeros((len(rows), max(map(len, rows)), _SLAB), dtype=np.complex128)
    # complex weights: w * A then multiplies without casting w, to the same values
    slabs = [(r, system.weights[r].astype(np.complex128), data[i, :len(r), :min(_SLAB, M - s)])
             for i, (s, r) in enumerate(zip(range(0, M, _SLAB), rows))]
    return data, slabs


def _fill_slabs(data, slabs, layout, f: Observable, g_list, l: int, N: int) -> list:
    """Fill the stacked slabs ``data`` of A = K_l g_l in place, other companions frozen.

    Each group of :func:`_slab_layout` takes one gather per factor and one
    bincount per part, written straight into its part of ``data``, which is
    then zero beyond every slab.  Returns the slabs for the sweeps, each S
    C-contiguous: a last slab narrower than _SLAB is a strided view of the
    stacked array, and a strided one-column slab takes another BLAS path
    than a contiguous one, which moves the last bits, so it is copied.

    Entry (T^{-(l+1) n} y, y) sums f(T^{(k-l) n} y) prod_{j != l} g_j(T^{(j-l) n} y) / N
    over n = 1..N in increasing order, so repeated entries, where N exceeds
    a cycle length, round as a plain loop: a sequential bincount over the
    bins of :func:`_slab_layout` sees each entry's terms in increasing n,
    and every entry is bit-identical to the same entry of one bincount over
    the whole (N, M) table of terms.
    """
    others = g_list[:l] + g_list[l + 1:]
    scale = 1.0 / N
    for group, bins, (f_table, *tables) in layout:
        b = f.values[f_table]
        for g, tbl in zip(others, tables):
            # not b * g[tbl]: numpy may reuse the temporary g[tbl] and swap the
            # operands, and a complex product with FMA rounds asymmetrically
            b = np.multiply(b, g[tbl])
        # row-major: each entry of c = S^H W A and of S d is then one dot product,
        # which OpenBLAS computes whole at any thread count (column-major S d is
        # split between threads by rows, which moves its last bits)
        # b / N divides by N + 0j, which numpy does as (re + im 0) (1 / N) and
        # (im - re 0) (1 / N): each part times 1 / N up to the sign of a zero,
        # which the bincount's +0.0 start erases
        part = data[group]
        part.real = np.bincount(bins, (b.real * scale).ravel(), part.size).reshape(part.shape)
        part.imag = np.bincount(bins, (b.imag * scale).ravel(), part.size).reshape(part.shape)
    return [(rows, w, np.ascontiguousarray(S)) for rows, w, S in slabs]


def _kernel_apply(slabs, g) -> np.ndarray:
    """A = K g, accumulated slab by slab."""
    A = np.zeros(len(g), dtype=np.complex128)
    for s, (rows, _, S) in zip(range(0, len(g), _SLAB), slabs):
        A[rows] += S.dot(g[s:s + S.shape[1]])
    return A


def _phase(z, keep) -> np.ndarray:
    """z / |z| entrywise, or ``keep`` where |z| is at most 1e-300 (as the sweep does)."""
    mag = np.abs(z)
    return np.divide(z, mag, out=keep.copy(), where=mag > 1e-300)


def _power_phase(data, rows, w, G) -> np.ndarray:
    """Generalized power ascent with momentum on every row g of G, in place.

    The objective g^H K^H W K g is convex, so the power step g <- phase(c),
    c = K^H W K g, never lowers it (Journee, Nesterov, Richtarik and
    Sepulchre, JMLR 2010).  A start tries the momentum step
    phase(c + _MOMENTUM |c| (g - g_prev)) first; where that would lower
    its objective it takes the power step instead, which also drops its
    momentum.  A start stops once a step raises its objective by at most
    _ASCENT_TOL, relative, or after _POWER_STEPS steps.  ``data`` holds
    the kernel's slabs stacked as :func:`_stack_slabs` makes them, and the
    starts still moving are the rows of one array.  Each product is one
    batched matrix-vector matmul over (slab, start) items, slab-major so
    that each slab is read once per product, and K g goes back from slab
    rows to points by one bincount.  A start's iterates therefore do not
    depend on which other starts share the batch, bit for bit.  A step's
    objective is read from the ascent product the next step needs, as
    Re(g^H c), summed without BLAS so that its bits do not depend on the
    thread count either.  Returns the number of steps each start took.
    """
    R, M = G.shape
    nslab, height, width = data.shape
    pad = _padded_rows(rows, M)  # pad rows read and write point M, which stays zero
    w = np.append(w, 0.0)
    Xs = np.zeros((R, nslab * width), dtype=np.complex128)  # zero beyond point M - 1
    scratch = np.empty(nslab * R * height, dtype=np.complex128)  # K g per (slab, start), then W K g gathered

    # float index of part p of start j's point pad[s, i] in an (R, M + 1) array, at (s, j, i, p); its
    # first r starts index an (r, M + 1) array
    full = (2 * ((M + 1) * np.arange(R)[:, None] + pad[:, None]))[..., None] + np.arange(2)

    def index(r):
        return np.ascontiguousarray(full[:, :r])

    def gradient(X, at):  # K^H W K g per row g of X, through at = index(len(X))
        r = len(X)
        Xs[:r, :M] = X
        # K g with the zero point M; a C-ordered out makes the items slab-major
        P = np.matmul(data[:, None], Xs[:r].reshape(r, nslab, width, 1).transpose(1, 0, 2, 3),
                      out=scratch[:nslab * r * height].reshape(nslab, r, height, 1))
        A = np.bincount(at.ravel(), P.view(np.float64).ravel(), 2 * r * (M + 1)).view(
            np.complex128).reshape(r, M + 1)
        # K^H W A from (W A)^H S per slab and start: no conjugate copy of the slabs; (W A) gathered
        # C-ordered into the buffer of K g (OpenBLAS rounds a strided vector otherwise than a contiguous
        # one), unbuffered: every index is in range, so "clip" clips none
        A *= w
        np.take(A.view(np.float64), at, out=P.view(np.float64).reshape(at.shape), mode="clip")
        V = P.reshape(nslab, r, 1, height)
        c = np.conj(V, out=V) @ data[:, None]
        return np.conj(c.reshape(nslab, r, width).transpose(1, 0, 2), order="C").reshape(r, -1)[:, :M]

    def objective(X, c):  # Re(g^H c) per row: one real dot product of the parts, not BLAS's threaded one
        return np.einsum("ij,ij->i", X.view(np.float64), c.view(np.float64))

    live = np.arange(R)
    taken = np.full(R, _POWER_STEPS)
    at = full
    g = G.copy()
    c = gradient(g, at)
    obj = objective(g, c)
    last = g  # g_prev: the first step has no momentum
    for step in range(1, _POWER_STEPS + 1):
        y = np.subtract(g, last)
        move = np.abs(c)
        move *= _MOMENTUM
        y *= move
        y += c
        y = _phase(y, g)
        cy = gradient(y, at)
        new = objective(y, cy)
        back = new < obj
        if back.any():
            y[back] = _phase(c[back], g[back])
            cy[back] = gradient(y[back], index(back.sum()))
            new[back] = objective(y[back], cy[back])
            stay = new < obj  # a power step lowers the objective only by rounding, at a fixed point
            if stay.any():
                y[stay], cy[stay], new[stay] = g[stay], c[stay], obj[stay]
            last = np.where(back[:, None], y, g)
        else:
            last = g
        moving = new - obj > _ASCENT_TOL * np.maximum(1.0, obj)
        g, c, obj = y, cy, new
        if not moving.all():
            G[live[~moving]], taken[live[~moving]] = g[~moving], step
            live, g, c, obj, last = live[moving], g[moving], c[moving], obj[moving], last[moving]
            if not live.size:
                break
            at = index(live.size)
    G[live] = g
    return taken


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
    max_cycles: int = 60,
    real_signs: bool = False,
    brute_force: bool = False,
    budget=None,
) -> MrecBracket:
    """Maximize the order-k recurrence norm over companions bounded by 1.

    Maximization from seeded starts (plus the all-ones start): at k = 1
    with complex companions the momentum power phase from every start,
    otherwise alternating coordinate sweeps, at most ``max_cycles`` cycles
    per start, whose per-sweep objective trace is monotone by construction.
    Restarts that tie up to a relative 1e-12 report the earliest one.
    With ``brute_force`` the real-sign class {-1, +1}^points per companion
    is enumerated exactly instead (k <= 2 and small systems only).
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
        slab_entries = M * min(M, _SLAB * N)
        if k == 1 and not real_signs:  # two slab products per power step, after one fill
            est = (restarts + 1) * _POWER_STEPS * 2.0 * slab_entries + float(N) * M
        else:
            est = (restarts + 1) * max_cycles * k * (float(N) * M + slab_entries)
        check_budget(est, budget, "uniform_mrec_bracket")
    key = content_key(system, [f], "uniform_mrec_bracket", k, N, restarts, seed, max_cycles, real_signs,
                      brute_force)
    result = memo.get(key)
    if result is None:
        if brute_force:
            result = _brute_bracket(system, f, k, N)
        else:
            result = _ascent_bracket(system, f, k, N, restarts, seed, max_cycles, real_signs)
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


def _ascent_bracket(system, f, k, N, restarts, seed, max_cycles, real_signs) -> MrecBracket:
    M = system.size
    w = system.weights
    cap = math.sqrt(fsum((w * np.abs(f.values) ** 2).tolist()))
    rng = np.random.default_rng(int(seed))
    best_obj = -1.0
    best_g = None
    best_trace: list = []
    best_converged = False
    # the all-ones start, then the seeded starts in the order they are drawn
    starts = [[np.ones(M, dtype=np.complex128) for _ in range(k)]]
    for _ in range(restarts):
        if real_signs:
            starts.append([np.where(rng.random(M) < 0.5, -1.0, 1.0).astype(np.complex128) for _ in range(k)])
        else:
            starts.append([np.exp(2j * np.pi * rng.random(M)) for _ in range(k)])
    rows = [_slab_rows(system, l, N) for l in range(k)]
    kernels = [_stack_slabs(system, r) for r in rows]  # one per companion, refilled in place
    stopped = [False] * len(starts)  # whether each start's power phase stopped on _ASCENT_TOL
    if k == 1:  # the kernel never changes, so its layout streams slab by slab
        slabs = _fill_slabs(*kernels[0], _slab_layout(system, 1, 0, N, rows[0]), f, starts[0], 0, N)
        if real_signs:
            grams = _block_grams(slabs)
        else:  # the power phase is the whole ascent: no Gram rows, no sweeps
            G = np.stack([g for g, in starts])
            stopped = (_power_phase(kernels[0][0], rows[0], w, G) < _POWER_STEPS).tolist()
            starts = [[g] for g in G]
            max_cycles = 0  # the loop below only reads each start's objective
    else:
        layouts = [list(_slab_layout(system, k, l, N, rows[l])) for l in range(k)]
    for g_list, converged in zip(starts, stopped):
        if k > 1:
            slabs = _fill_slabs(*kernels[0], layouts[0], f, g_list, 0, N)
            grams = _block_grams(slabs)
        A = _kernel_apply(slabs, g_list[0])
        obj = fsum((w * np.abs(A) ** 2).tolist())
        trace = [obj]
        for cycle in range(max_cycles):
            for l in range(k):
                if k > 1 and (cycle or l):
                    slabs = _fill_slabs(*kernels[l], layouts[l], f, g_list, l, N)
                    grams = _block_grams(slabs)
                _sweep(slabs, grams, g_list[l], A, real_signs)
            obj_new = fsum((w * np.abs(A) ** 2).tolist())
            if obj_new < obj - 1e-12 * max(1.0, obj):
                raise AssertionError("coordinate ascent decreased the objective")
            trace.append(obj_new)
            if obj_new - obj <= _ASCENT_TOL * max(1.0, obj):
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
    check_budget(M * float_power(oversample, phase_degree) * float_power(N, phase_degree * (phase_degree + 1) // 2 + 1),
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
    return systemY.orbit_product([(g.values, b) for g, b in zip(g_list, steps)], slice(None),
                                 np.arange(1, N + 1)[:, None])


def _orbit_scalars(system: FiniteSystem, functions, exponents: ExponentVector, x_point: int, N: int) -> np.ndarray:
    """prod_j f_j(T^{a_j n} x) for n = 1..N along the orbit of one point x."""
    if any(len(f) != system.size for f in functions):
        raise ValueError("observable size does not match system")
    return system.orbit_product([(f.values, a) for f, a in zip(functions, exponents.entries)], x_point,
                                np.arange(1, N + 1))


def return_times_average(
    systemY: FiniteSystem,
    g: Observable,
    poly_coeffs,
    systemX: FiniteSystem,
    functions,
    exponents: ExponentVector,
    x_point: int,
    N: int,
    budget=None,
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
    check_budget(float(N) * (systemY.size + len(functions)), budget, "return_times_average")
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
