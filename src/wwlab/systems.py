"""Finite measure-preserving systems and complex observables.

A system is a bijection ``T`` of finitely many points together with an
invariant probability measure.  Invariance is exact by construction: weights
must be equal (as floats) along every orbit, and the builders only produce
uniform weights.  Everything downstream (averages, seminorms, inequality
checks) consumes the types defined here.

Builders
--------
``cyclic_shift(p)``
    x -> x + 1 on Z_p.
``rotation_approx(p, j)``
    x -> x + j on Z_p with gcd(j, p) = 1; a rational stand-in for the
    rotation by j/p.
``skew_product(p)``
    (x, y) -> (x + 1, y + x) on Z_p x Z_p, flattened as i = x * p + y.
``random_permutation(size, seed)``
    seeded uniformly random bijection.
``identity(size)``
    every point fixed.

Products compose any two systems on the index i = a * size_b + b.

Orbits are read from cycle coordinates: ``flat`` lists the cycles, each
from its smallest point and in the order of those points, and a point x has
the ``start`` of its cycle there, its position ``pos`` on it and the cycle
``length``, so T^{a n} x = flat[start + (pos + a n) mod length].  Every
orbit reader gathers through ``FiniteSystem.orbit_indices``, and every
product of observables along orbits, prod_j v_j(T^{a_j n} x), that is
gathered afresh goes through ``FiniteSystem.orbit_product`` (a cube shift is
a step at n = 1).  Readers of one whole orbit per point, n = 1..N (the
strong kernel and ``intermediate_F``), go through ``FiniteSystem.orbit_rows``
instead: the points of a cycle see one periodic sequence, each shifted one
step from the last, so their rows are windows of a stretch of the cycle
gathered once, with no index table per entry.  Two readers keep their own
gathers, each reusing index tables it builds once: the recurrence slab fill
across its refills and its brute-force enumeration across sign
combinations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._util import check_budget, fsum

MAX_PRODUCT_POINTS = 1 << 20
_GHK_MAX_ORDER = 4
_SHORT_CYCLE = 32  # cycles shorter than this are read together, one pass per length (measured cut-over)


def _row_chunks(rows: int, cols: int, budget: int):
    """(slice, buffer) per chunk of about ``budget`` entries of a (rows, cols) table.

    Every buffer is the leading rows of one C-ordered complex array, so a
    pipeline that fills and consumes each chunk in turn holds one chunk at a
    time.
    """
    chunk = max(1, budget // cols)
    buf = np.empty((min(chunk, rows), cols), dtype=np.complex128)
    for start in range(0, rows, chunk):
        stop = min(start + chunk, rows)
        yield slice(start, stop), buf[: stop - start]


class FiniteSystem:
    """Measure-preserving bijection on a finite set of points.

    Parameters
    ----------
    weights : array_like
        Nonnegative point masses summing to 1 (within 1e-12).
    forward_map : array_like
        Permutation of ``range(size)``; ``forward_map[i]`` is T(i).
    spec : dict, optional
        Serializable description of how the system was built.

    The instance is immutable after construction.  Its cycle coordinates
    (module docstring) are built on first use and published array by array,
    the ready mark last, so no locking is needed when instances are shared
    between threads.
    """

    def __init__(self, weights, forward_map, spec: dict | None = None):
        w = np.asarray(weights, dtype=float)
        fwd = np.asarray(forward_map, dtype=np.int64)
        if w.ndim != 1 or fwd.ndim != 1 or w.shape != fwd.shape:
            raise ValueError("weights and forward_map must be 1-d of equal length")
        if w.size == 0:
            raise ValueError("system must have at least one point")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        total = fsum(w.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        # a bincount, not np.unique, which imports numpy.ma on first use
        if np.any(fwd < 0) or np.any(fwd >= w.size) or np.any(np.bincount(fwd, minlength=w.size) != 1):
            raise ValueError("forward_map is not a bijection")
        if not np.array_equal(w[fwd], w):
            raise ValueError("weights must be constant along orbits (measure preservation)")
        self._weights = w
        self._weights.flags.writeable = False
        self._forward = fwd
        self._forward.flags.writeable = False
        self.spec = dict(spec) if spec else {"kind": "custom", "size": int(w.size)}
        self._cycle_flat: np.ndarray | None = None
        self._cycle_start: np.ndarray | None = None
        self._cycle_pos: np.ndarray | None = None
        self._cycle_len: np.ndarray | None = None
        self._row_layout: tuple | None = None
        self._orbit_cache: dict[int, np.ndarray] = {}

    # -- basic introspection -------------------------------------------------

    @property
    def size(self) -> int:
        return int(self._weights.size)

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def forward(self) -> np.ndarray:
        return self._forward

    def __repr__(self) -> str:
        return f"FiniteSystem({self.spec!r})"

    # -- cycle structure -----------------------------------------------------

    def _ensure_cycles(self) -> None:
        """Cycle coordinates by pointer doubling: O(size log size) array work,
        each round doubling the stretch of orbit every point has seen."""
        if self._cycle_len is not None:
            return
        fwd = self._forward
        points = np.arange(self.size)
        # least point of the windows x .. T^{2^r - 1} x; when a round changes
        # nothing the windows of a T^{2^r}-orbit cover the cycle
        low, jump = points, fwd
        while True:
            wider = np.minimum(low, low[jump])
            if np.array_equal(wider, low):
                break
            low, jump = wider, jump[jump]
        # list ranking: steps from x to the cycle's last point, whose image is `low`
        last = fwd == low
        dist = (~last).astype(np.int64)
        nxt = np.where(last, points, fwd)
        while not last[nxt].all():
            dist += dist[nxt]
            nxt = nxt[nxt]
        length = dist[low] + 1
        pos = dist[low] - dist
        # cycles in the order of their smallest points, concatenated: a
        # cycle starts after the cycles of all smaller heads
        start = (np.cumsum(np.where(low == points, length, 0)) - length)[low]
        flat = np.empty(self.size, dtype=np.int64)
        flat[start + pos] = points
        # ``_cycle_len`` is the "ready" sentinel other threads test, so it is
        # published last: whoever sees it set also sees the other arrays
        self._cycle_flat = flat
        self._cycle_start = start
        self._cycle_pos = pos
        self._cycle_len = length

    def orbit_indices(self, points, a: int, n) -> np.ndarray:
        """Index array of T^{a n} x, read from the cycle coordinates.

        ``points`` (an int, a slice or an integer array) and the counts ``n``
        broadcast against each other: a column of points against a row of
        counts gives one orbit per row.  Any integer ``a`` is reduced exactly
        modulo each cycle length; a n stays exact while |n| size < 2**63.
        """
        self._ensure_cycles()
        length = self._cycle_len[points]
        a = int(a)
        if not -(1 << 63) <= a < 1 << 63:  # past int64: reduce once per distinct length
            lens, inv = np.unique(length, return_inverse=True)
            a = np.array([a % int(L) for L in lens])[inv].reshape(np.shape(length))
        q = np.asarray(np.multiply(np.remainder(a, length), n))
        q += self._cycle_pos[points]
        np.remainder(q, length, out=q)
        q += self._cycle_start[points]
        # gathered in place: each entry is read before it is overwritten
        return np.take(self._cycle_flat, q, out=q, mode="clip")

    def orbit_product(self, factors, points, n, out=None) -> np.ndarray:
        """prod_j v_j(T^{a_j n} x) over the (values v_j, step a_j) pairs of ``factors``.

        ``points`` and ``n`` broadcast as in :meth:`orbit_indices`.  The first
        factor is gathered straight into ``out`` when one is given, and each
        later one is multiplied in order into the running product.
        """
        (v0, a0), *rest = factors
        out = np.take(v0, self.orbit_indices(points, a0, n), out=out, mode="clip")
        for v, a in rest:
            out *= v[self.orbit_indices(points, a, n)]
        return out

    def _ensure_row_layout(self) -> tuple:
        """The order in which :meth:`orbit_rows` reads points, and its runs.

        Points of cycles of length _SHORT_CYCLE or more come first, in
        ``flat`` order, one run (start, stop, length, flat start) per cycle;
        then the points of shorter cycles, grouped by length and in ``flat``
        order within a group, one run (start, stop, length, None) per length.
        """
        layout = self._row_layout
        if layout is not None:
            return layout
        self._ensure_cycles()
        flat = self._cycle_flat
        length = self._cycle_len[flat]
        key = np.where(length < _SHORT_CYCLE, length, 0)
        order = flat[np.argsort(key, kind="stable")]
        order.flags.writeable = False
        runs, at = [], 0
        for s in np.flatnonzero((self._cycle_pos[flat] == 0) & (key == 0)).tolist():
            L = int(length[s])
            runs.append((at, at + L, L, s))
            at += L
        for L, count in enumerate(np.bincount(key, minlength=_SHORT_CYCLE).tolist()[1:], start=1):
            if count:
                runs.append((at, at + count, L, None))
                at += count
        layout = order, runs
        self._row_layout = layout  # built whole, then published in one assignment
        return layout

    def orbit_rows(self, factors, N: int, budget: int):
        """Chunks ``(points, rows)`` of the products prod_j v_j(T^{a_j n} x), one point per row.

        Row i of ``rows`` holds n = 1..N at the point ``points[i]``; over all
        chunks every point comes once, cycle by cycle in the order of
        :meth:`_ensure_row_layout`, so callers put results back by
        ``points``.  ``rows`` are the
        leading rows of one reused buffer of about ``budget`` entries, so
        each chunk must be consumed before the next is asked for.

        Along a cycle the rows are windows of one sequence: each run of rows
        on a long cycle reads one gathered stretch of that cycle per factor,
        whose windows with stride a_j are its rows.  Rows on short cycles
        read each point's values over one period, once per factor, and tile
        them.  Each factor is placed by copies alone, and factors after the
        first are multiplied in order over the whole chunk, so every entry
        is the product :meth:`orbit_product` forms, bit for bit.
        """
        order, runs = self._ensure_row_layout()
        n = np.arange(1, N + 1)
        scratch, first = None, 0
        for x, out in _row_chunks(self.size, N, budget):
            while runs[first][1] <= x.start:  # the first run that reaches this chunk
                first += 1
            for j, (v, a) in enumerate(factors):
                if j and scratch is None:
                    scratch = np.empty_like(out)  # the first chunk is the largest
                dst = scratch[: len(out)] if j else out
                for p0, p1, L, s in runs[first:]:
                    if p0 >= x.stop:
                        break
                    q0, q1 = max(p0, x.start), min(p1, x.stop)
                    self._fill_run(dst[q0 - x.start : q1 - x.start], v, int(a), order[q0:q1], q0 - p0, L, s, n,
                                   budget)
                if j:
                    out *= dst
            yield order[x], out

    def _fill_run(self, dst, v, a: int, points, r0: int, L: int, s, n, budget: int) -> None:
        """v(T^{a n} x) into ``dst`` for the ``points`` of one run of :meth:`orbit_rows`.

        On a long cycle (flat start ``s``) the points sit at positions r0,
        r0 + 1, ... of the cycle, and T^{a n} x is c n further on, with c the
        representative of a modulo L nearest 0: row i is the window of a
        stretch of the cycle starting i values on, read with stride c.
        """
        flat, (rows, N) = self._cycle_flat, dst.shape
        if s is None:  # each point's values over one period, tiled
            at = self._cycle_pos[points][:, None] + np.multiply(a % L, np.arange(min(L, N + 1)))
            at %= L
            at += self._cycle_start[points][:, None]
            np.take(v[np.take(flat, at, out=at)], n % L, axis=1, out=dst, mode="clip")
            return
        c = a % L
        if 2 * c > L:
            c -= L
        span = rows + abs(c) * (N - 1)
        if span > max(budget, dst.size):  # a stretch past the chunk's size: read the index table
            np.take(v, self.orbit_indices(points[:, None], a, n), out=dst, mode="clip")
            return
        lead = c if c >= 0 else c * N  # the stretch's first value, c n + i at its least
        at = np.arange(r0 + lead, r0 + lead + span)
        at %= L
        at += s
        stretch = v[np.take(flat, at, out=at)]
        item = stretch.itemsize
        dst[...] = as_strided(stretch[c - lead :], shape=(rows, N), strides=(item, c * item))

    def power_indices(self, n: int) -> np.ndarray:
        """Index array of T^n, valid for any integer ``n`` (Python ints ok)."""
        return self.orbit_indices(slice(None), n, 1)

    def orbit_table(self, n_max: int) -> np.ndarray:
        """Rows 0..n_max of the iteration table; row n is T^n as an index array."""
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        cached = self._orbit_cache.get(n_max)
        if cached is not None:
            return cached
        table = self.orbit_indices(slice(None), 1, np.arange(n_max + 1)[:, None])
        table.flags.writeable = False
        # keep only the most recent table to bound memory
        self._orbit_cache = {n_max: table}
        return table


def iterate(system: FiniteSystem, point: int, n: int) -> int:
    """T^n applied to a point index; ``n`` may be negative."""
    if not 0 <= point < system.size:
        raise ValueError(f"point {point} out of range for size {system.size}")
    if abs(n) > 2**63:
        raise ValueError("iteration count out of supported range")
    return int(system.orbit_indices(point, n, 1))


# -- builders ----------------------------------------------------------------


def cyclic_shift(p: int) -> FiniteSystem:
    if p < 1:
        raise ValueError("cyclic_shift needs p >= 1")
    fwd = (np.arange(p) + 1) % p
    return FiniteSystem(np.full(p, 1.0 / p), fwd, {"kind": "cyclic_shift", "p": int(p)})


def rotation_approx(p: int, j: int) -> FiniteSystem:
    if p < 1:
        raise ValueError("rotation_approx needs p >= 1")
    if math.gcd(j % p if p > 1 else 0, p) != 1 and p > 1:
        raise ValueError(f"rotation step {j} must be coprime to {p}")
    fwd = (np.arange(p) + j) % p
    return FiniteSystem(np.full(p, 1.0 / p), fwd, {"kind": "rotation_approx", "p": int(p), "j": int(j)})


def skew_product(p: int) -> FiniteSystem:
    if p < 1:
        raise ValueError("skew_product needs p >= 1")
    x, y = np.divmod(np.arange(p * p), p)
    fwd = ((x + 1) % p) * p + (y + x) % p
    return FiniteSystem(np.full(p * p, 1.0 / (p * p)), fwd, {"kind": "skew_product", "p": int(p)})


def random_permutation(size: int, seed: int) -> FiniteSystem:
    if size < 1:
        raise ValueError("random_permutation needs size >= 1")
    rng = np.random.default_rng(int(seed))
    fwd = rng.permutation(size)
    return FiniteSystem(
        np.full(size, 1.0 / size), fwd, {"kind": "random_permutation", "size": int(size), "seed": int(seed)}
    )


def identity_system(size: int) -> FiniteSystem:
    if size < 1:
        raise ValueError("identity needs size >= 1")
    return FiniteSystem(np.full(size, 1.0 / size), np.arange(size), {"kind": "identity", "size": int(size)})


_BUILDERS = {
    "cyclic_shift": lambda s: cyclic_shift(s["p"]),
    "rotation_approx": lambda s: rotation_approx(s["p"], s["j"]),
    "skew_product": lambda s: skew_product(s["p"]),
    "random_permutation": lambda s: random_permutation(s["size"], s["seed"]),
    "identity": lambda s: identity_system(s["size"]),
}


def build_system(spec: dict) -> FiniteSystem:
    """Construct a system from a serializable spec dict.

    Identical specs produce identical systems (seeded construction).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("system spec must be a dict with a 'kind' field")
    kind = spec["kind"]
    if kind == "product":
        return product_system(build_system(spec["a"]), build_system(spec["b"]))
    builder = _BUILDERS.get(kind)
    if builder is None:
        raise ValueError(f"unknown system kind {kind!r}")
    try:
        return builder(spec)
    except KeyError as exc:
        raise ValueError(f"system spec {kind!r} missing field {exc.args[0]!r}") from None


def product_system(a: FiniteSystem, b: FiniteSystem) -> FiniteSystem:
    """Product of two systems on index i = ia * b.size + ib."""
    size = a.size * b.size
    if size > MAX_PRODUCT_POINTS:
        raise ValueError(f"product size {size} exceeds cap {MAX_PRODUCT_POINTS}")
    ia, ib = np.divmod(np.arange(size), b.size)
    fwd = a.forward[ia] * b.size + b.forward[ib]
    w = a.weights[ia] * b.weights[ib]
    # renormalize the float product so the total is exactly rounded
    w = w / fsum(w.tolist())
    return FiniteSystem(w, fwd, {"kind": "product", "a": a.spec, "b": b.spec})


# -- observables -------------------------------------------------------------


class Observable:
    """Complex-valued function on the points of a system.

    Values are stored as a read-only complex128 array; ``sup_norm`` is
    computed once at construction.
    """

    __slots__ = ("values", "sup_norm")

    def __init__(self, values):
        v = np.ascontiguousarray(values, dtype=np.complex128)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("observable values must be a nonempty 1-d array")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("observable values must be finite")
        self.values = v
        self.values.flags.writeable = False
        self.sup_norm = float(np.max(np.abs(v)))

    def __len__(self) -> int:
        return self.values.size

    def conj(self) -> "Observable":
        return Observable(np.conjugate(self.values))

    def __repr__(self) -> str:
        return f"Observable(size={len(self)}, sup_norm={self.sup_norm:.6g})"


def constant_observable(system: FiniteSystem) -> Observable:
    """The constant 1."""
    return Observable(np.ones(system.size, dtype=np.complex128))


def character_observable(system: FiniteSystem, j: int) -> Observable:
    """Index character x -> exp(2*pi*i*j*x / size).

    On ``cyclic_shift(p)`` this is the group character with frequency j.
    """
    m = system.size
    return Observable(np.exp(2j * np.pi * j * np.arange(m) / m))


def random_mean_zero(system: FiniteSystem, seed: int) -> Observable:
    """Seeded mean-zero observable with sup-norm exactly 1.

    Draws unimodular phases, subtracts the weighted mean, then renormalizes
    the sup-norm.  Rejects degenerate draws (all phases equal) by redrawing.
    """
    rng = np.random.default_rng(int(seed))
    for _ in range(64):
        vals = np.exp(2j * np.pi * rng.random(system.size))
        mean = np.sum(system.weights * vals)
        vals = vals - mean
        top = np.max(np.abs(vals))
        if top > 1e-12:
            return Observable(vals / top)
    raise ValueError("could not draw a nondegenerate mean-zero observable")


def tensor_observable(f: Observable, g: Observable) -> Observable:
    """f tensor g on the product system's index i = ia * len(g) + ib."""
    return Observable(np.kron(f.values, g.values))


def shift_observable(system: FiniteSystem, f: Observable, a: int) -> Observable:
    """f composed with T^a, i.e. x -> f(T^a x)."""
    if len(f) != system.size:
        raise ValueError("observable size does not match system")
    return Observable(system.orbit_product([(f.values, a)], slice(None), 1))


def integrate(system: FiniteSystem, f: Observable, p=None):
    """Integral (p=None) or L^2 norm (p=2) of an observable.

    Reductions use exactly rounded summation, so the result does not depend
    on point order.
    """
    if len(f) != system.size:
        raise ValueError("observable size does not match system")
    w = system.weights
    if p is None:
        terms = w * f.values
        return complex(fsum(terms.real.tolist()), fsum(terms.imag.tolist()))
    if p == 2:
        return math.sqrt(fsum((w * np.abs(f.values) ** 2).tolist()))
    raise ValueError(f"unsupported norm exponent {p!r}")


# -- partitions and conditional expectation ----------------------------------


@dataclass(frozen=True)
class Partition:
    """Partition of the point set into labeled cells 0..num_cells-1."""

    cell_assignment: tuple

    def __post_init__(self):
        cells = np.asarray(self.cell_assignment, dtype=np.int64)
        if cells.ndim != 1 or cells.size == 0:
            raise ValueError("cell assignment must be a nonempty 1-d sequence")
        labels = np.unique(cells)
        if labels[0] != 0 or labels[-1] != labels.size - 1:
            raise ValueError("cells must be labeled 0..C-1 with every label used")
        object.__setattr__(self, "cell_assignment", tuple(int(c) for c in cells))

    @property
    def num_cells(self) -> int:
        return max(self.cell_assignment) + 1

    def as_array(self) -> np.ndarray:
        return np.asarray(self.cell_assignment, dtype=np.int64)

    def is_shift_invariant(self, system: FiniteSystem) -> bool:
        """True iff the forward image of every cell is a single cell.

        This is the condition under which the generated algebra is preserved
        and conditional expectation commutes with composition by T.
        """
        cells = self.as_array()
        if cells.size != system.size:
            raise ValueError("partition size does not match system")
        image = cells[system.forward]
        for c in range(self.num_cells):
            if np.unique(image[cells == c]).size != 1:
                return False
        return True


def two_cell_parity_partition(system: FiniteSystem) -> Partition:
    """Even/odd index cells; shift-invariant on cyclic systems of even order."""
    return Partition(tuple(int(i % 2) for i in range(system.size)))


def conditional_expectation(system: FiniteSystem, f: Observable, partition: Partition) -> Observable:
    """Projection onto functions constant on partition cells.

    Each cell gets the weighted mean of f over the cell.  Cells of measure
    zero keep value 0.
    """
    cells = partition.as_array()
    if cells.size != system.size or len(f) != system.size:
        raise ValueError("size mismatch between system, observable, and partition")
    w = system.weights
    nc = partition.num_cells
    cell_mass = np.bincount(cells, weights=w, minlength=nc)
    num_re = np.bincount(cells, weights=w * f.values.real, minlength=nc)
    num_im = np.bincount(cells, weights=w * f.values.imag, minlength=nc)
    means = np.zeros(nc, dtype=np.complex128)
    nz = cell_mass > 0
    means[nz] = (num_re[nz] + 1j * num_im[nz]) / cell_mass[nz]
    return Observable(means[cells])


# -- spectral data and seminorms ---------------------------------------------


def spectral_coefficient(system: FiniteSystem, f: Observable, n: int) -> complex:
    """n-th autocorrelation integral of f along T."""
    fn = shift_observable(system, f, n)
    terms = system.weights * f.values * np.conjugate(fn.values)
    return complex(fsum(terms.real.tolist()), fsum(terms.imag.tolist()))


def ghk_seminorm(system: FiniteSystem, f: Observable, k: int, H: int) -> float:
    """Truncated uniformity seminorm of order k with shift cutoff H.

    Order 2 averages the squared moduli of the first H autocorrelation
    integrals; higher orders recurse on f * conj(f o T^h) with the same
    cutoff at every level, and the 2^k-th root is taken at the top.
    """
    if k < 2:
        raise ValueError("seminorm order must be >= 2")
    if k > _GHK_MAX_ORDER:
        raise ValueError(f"seminorm order capped at {_GHK_MAX_ORDER}")
    if H < 1:
        raise ValueError("shift cutoff H must be >= 1")
    if len(f) != system.size:
        raise ValueError("observable size does not match system")
    check_budget(float(H) ** (k - 1) * system.size, what="ghk_seminorm")

    def power(vals: np.ndarray, order: int) -> float:
        contributions = []
        for h in range(1, H + 1):
            shifted = vals[system.power_indices(h)]
            prod = vals * np.conjugate(shifted)
            if order == 2:
                terms = system.weights * prod
                integral = complex(fsum(terms.real.tolist()), fsum(terms.imag.tolist()))
                contributions.append(abs(integral) ** 2)
            else:
                contributions.append(power(prod, order - 1))
        return fsum(contributions) / H

    return power(f.values, k) ** (1.0 / 2**k)
