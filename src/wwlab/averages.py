"""Higher-order modulated averages along cube products of an observable.

The order-k average of f is built from cube products: for a shift tuple
h = (h_1 .. h_{k-1}) and vertices eta in {0,1}^{k-1},

    F_h = prod_eta  C^{|eta|} f o T^{eta . h}

(C = complex conjugation, applied once per set bit), and the average is the
mean over h in [R]^{k-1} of  || sup_t |(1/N) sum_{n=1..N} e^{2 pi i n t}
F_h(T^n x)| ||_2^{2/3}, with R = floor(sqrt(N)) for the classical schedule
or per-coordinate schedule functions r_m(N) for the generalized one.

The weak variant moves the supremum outside the L2 norm; its inner value
depends only on the autocorrelations of F_h, so it reduces to the supremum
of an explicit real trigonometric polynomial.

Both variants return certified brackets (see :mod:`wwlab.supbrackets`).
Off-diagonal averages accept an independent observable per cube vertex.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._util import check_budget, content_key, fsum, memo, pmap
from .supbrackets import Bracket, _polyphase_rows, sup_norm_trig
from .systems import FiniteSystem, Observable

_POINT_CHUNK_BUDGET = 1 << 18  # complex entries gathered per point chunk (4 MiB)


@dataclass(frozen=True)
class CubeVertex:
    """Vertex of the discrete cube {0,1}^r."""

    bits: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("vertex bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @property
    def order(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return sum(self.bits)

    def dot(self, h) -> int:
        if len(h) != len(self.bits):
            raise ValueError("shift tuple length mismatch")
        return int(sum(b * int(x) for b, x in zip(self.bits, h)))

    def flip_outside(self, zeta) -> "CubeVertex":
        """Flip the bits at coordinates where zeta is 0 (an involution)."""
        if len(zeta) != len(self.bits):
            raise ValueError("zeta length mismatch")
        return CubeVertex(tuple(b if z else 1 - b for b, z in zip(self.bits, zeta)))

    def intersect(self, other: "CubeVertex") -> "CubeVertex":
        if other.order != self.order:
            raise ValueError("vertex order mismatch")
        return CubeVertex(tuple(a & b for a, b in zip(self.bits, other.bits)))


def cube_vertices(order: int):
    """All vertices of {0,1}^order in lexicographic order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return [CubeVertex(bits) for bits in itertools.product((0, 1), repeat=order)]


class CubeAssignment:
    """Observables attached to the vertices of {0,1}^r.

    The diagonal assignment puts the same observable at every vertex, which
    recovers the classical averages; independent per-vertex choices give the
    off-diagonal variants.
    """

    def __init__(self, mapping: dict):
        if not mapping:
            raise ValueError("assignment must cover at least the empty cube")
        orders = {len(bits) for bits in mapping}
        if len(orders) != 1:
            raise ValueError("all vertex keys must have the same length")
        self.order = orders.pop()
        expected = set(itertools.product((0, 1), repeat=self.order))
        if set(mapping) != expected:
            raise ValueError("assignment must cover every vertex of the cube")
        sizes = {len(obs) for obs in mapping.values()}
        if len(sizes) != 1:
            raise ValueError("all vertex observables must live on the same system")
        self.mapping = {tuple(k): v for k, v in mapping.items()}

    @classmethod
    def diagonal(cls, f: Observable, order: int) -> "CubeAssignment":
        return cls({bits: f for bits in itertools.product((0, 1), repeat=order)})

    def vertex(self, bits) -> Observable:
        return self.mapping[tuple(bits)]

    def max_sup_norm(self) -> float:
        return max(obs.sup_norm for obs in self.mapping.values())


@dataclass(frozen=True)
class ScheduleR:
    """Per-coordinate shift ranges r_1..r_{k-1} for generalized averages.

    Each entry is one of ``("sqrt",)``, ``("power", delta)``, ``("linear",)``
    or ``("table", {N: r})``.  Values must be integers >= 1; tables are
    checked for monotonicity over their keys.
    """

    entries: tuple

    def __post_init__(self):
        entries = []
        for e in self.entries:
            kind = e[0]
            if kind == "sqrt" or kind == "linear":
                entries.append((kind,))
            elif kind == "power":
                delta = float(e[1])
                if not 0 < delta <= 4:
                    raise ValueError("power schedule exponent must be in (0, 4]")
                entries.append(("power", delta))
            elif kind == "table":
                table = {int(k): int(v) for k, v in dict(e[1]).items()}
                if any(v < 1 for v in table.values()):
                    raise ValueError("table schedule values must be >= 1")
                keys = sorted(table)
                if any(table[a] > table[b] for a, b in zip(keys, keys[1:])):
                    raise ValueError("table schedule must be nondecreasing")
                entries.append(("table", tuple(sorted(table.items()))))
            else:
                raise ValueError(f"unknown schedule kind {kind!r}")
        object.__setattr__(self, "entries", tuple(entries))

    @classmethod
    def sqrt_schedule(cls, count: int) -> "ScheduleR":
        return cls(tuple(("sqrt",) for _ in range(count)))

    @classmethod
    def linear_schedule(cls, count: int) -> "ScheduleR":
        return cls(tuple(("linear",) for _ in range(count)))

    def value(self, m: int, N: int) -> int:
        kind = self.entries[m][0]
        if kind == "sqrt":
            return max(1, math.isqrt(N))
        if kind == "linear":
            return max(1, int(N))
        if kind == "power":
            return max(1, int(math.floor(float(N) ** self.entries[m][1] * (1 + 1e-12))))
        table = dict(self.entries[m][1])
        if N not in table:
            raise ValueError(f"table schedule has no value for N={N}")
        return table[N]

    def values(self, N: int) -> list:
        return [self.value(m, N) for m in range(len(self.entries))]


def schedule_cap(schedule: ScheduleR, N: int) -> int:
    """floor(sqrt(min(r_1(N) .. r_{k-1}(N), N))), the effective range of the
    classical average that dominates a generalized one."""
    rs = schedule.values(N) + [int(N)]
    return max(1, math.isqrt(min(rs)))


# -- kernels -----------------------------------------------------------------


def cube_product(system: FiniteSystem, assignment: CubeAssignment, h) -> Observable:
    """The cube-product observable for one shift tuple h."""
    h = tuple(int(x) for x in h)
    if len(h) != assignment.order:
        raise ValueError("shift tuple length must equal the assignment order")
    vals = np.ones(system.size, dtype=np.complex128)
    for bits in itertools.product((0, 1), repeat=assignment.order):
        g = assignment.vertex(bits)
        if len(g) != system.size:
            raise ValueError("assignment observables do not match the system size")
        shift = sum(b * x for b, x in zip(bits, h))
        gv = g.values[system.power_indices(shift)]
        if sum(bits) % 2 == 1:
            gv = np.conjugate(gv)
        vals = vals * gv
    return Observable(vals)


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


def _strong_kernel(system: FiniteSystem, factors, degree: int, N: int, oversample: int, norm_p: int):
    """(lower, upper) of || sup_t |(1/N) sum_n e^{2 pi i p_t(n)} prod_j F_j(T^{a_j n} x)| ||_p.

    ``factors`` lists (values of F_j, step a_j); p_t(n) = t_1 n + ... +
    t_d n^d with d = ``degree``.
    """
    points, n = np.arange(system.size)[:, None], np.arange(1, N + 1)
    lows = np.empty(system.size)
    ups = np.empty(system.size)
    (v0, a0), *rest = factors
    for x, seq in _row_chunks(system.size, N, _POINT_CHUNK_BUDGET):
        np.take(v0, system.orbit_indices(points[x], a0, n), out=seq, mode="clip")  # one orbit per row
        for v, a in rest:
            seq *= v[system.orbit_indices(points[x], a, n)]
        lows[x], ups[x], _ = _polyphase_rows(seq, degree, oversample)
    w = system.weights
    if norm_p == 2:
        return math.sqrt(fsum((w * lows**2).tolist())), math.sqrt(fsum((w * ups**2).tolist()))
    return fsum((w * lows).tolist()), fsum((w * ups).tolist())


def _weak_kernel(system: FiniteSystem, values: np.ndarray, N: int, oversample: int):
    """(lower, upper) of sup_t || (1/N) sum_n e^{2 pi i n t} F o T^n ||_2.

    The squared norm is the real trigonometric polynomial with coefficient
    (N - |d|) / N^2 * rho(d) at frequency d, where rho is the
    autocorrelation of F along T, gathered one chunk of lags d at a time.
    """
    conj, w = np.conjugate(values)[None, :], system.weights[None, :]
    rho = np.empty(N, dtype=np.complex128)
    for d, shifted in _row_chunks(N, system.size, _POINT_CHUNK_BUDGET):
        np.take(values, system.orbit_indices(slice(None), 1, np.arange(d.start, d.stop)[:, None]),
                out=shifted, mode="clip")
        shifted *= conj  # in place, as shifted * conj * w
        shifted *= w
        rho[d] = shifted.sum(axis=1)  # each rho[d] is its own row's sum
    coeff = np.empty(2 * N - 1, dtype=np.complex128)
    d = np.arange(N)
    pos = (N - d) / N**2 * rho
    coeff[N - 1 :] = pos
    coeff[: N - 1] = np.conjugate(pos[1:])[::-1]
    sq = sup_norm_trig(coeff, oversample)
    lower = math.sqrt(max(sq.lower, 0.0))
    upper = math.sqrt(max(sq.upper, 0.0))
    cap = math.sqrt(fsum((system.weights * np.abs(values) ** 2).tolist()))
    upper = max(min(upper, cap), lower)
    return lower, upper


def _average_pipeline(
    system: FiniteSystem,
    assignment: CubeAssignment,
    N: int,
    ranges,
    oversample: int,
    kernel: str,
    norm_p: int = 2,
    threads: int = 1,
    budget=None,
) -> Bracket:
    if norm_p not in (1, 2):
        raise ValueError("norm_p must be 1 or 2")
    tuples = list(itertools.product(*(range(1, r + 1) for r in ranges)))
    est = len(tuples) * system.size * (N * math.log2(max(oversample * N, 2)) * oversample + N)
    check_budget(est, budget, "cube average")
    vertices = [assignment.mapping[bits] for bits in sorted(assignment.mapping)]
    key = content_key(system, vertices, "cube average", N, tuple(ranges), oversample, kernel, norm_p, threads)
    hit = memo.get(key)
    if hit is not None:
        return hit

    def one(h):
        F = cube_product(system, assignment, h)
        if kernel == "strong":
            lo, up = _strong_kernel(system, [(F.values, 1)], 1, N, oversample, norm_p)
        else:
            lo, up = _weak_kernel(system, F.values, N, oversample)
        return lo ** (2.0 / 3.0), up ** (2.0 / 3.0)

    results = pmap(one, tuples, threads)
    lo = fsum(r[0] for r in results) / len(results)
    up = fsum(r[1] for r in results) / len(results)
    result = Bracket(lo, max(up, lo), ())  # frozen, so hits can share it
    memo.put(key, result)
    return result


# -- public operations -------------------------------------------------------


def ww_average(
    system: FiniteSystem,
    f: Observable,
    k: int,
    N: int,
    oversample: int = 16,
    norm_p: int = 2,
    threads: int = 1,
    budget=None,
) -> Bracket:
    """Order-k average of f at length N with the classical sqrt schedule."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    return ww_average_alt(
        system, f, k, N, ScheduleR.sqrt_schedule(k - 1), oversample, norm_p, threads, budget
    )


def ww_average_alt(
    system: FiniteSystem,
    f: Observable,
    k: int,
    N: int,
    schedule: ScheduleR,
    oversample: int = 16,
    norm_p: int = 2,
    threads: int = 1,
    budget=None,
) -> Bracket:
    """Order-k average with explicit per-coordinate shift schedules.

    With every schedule entry equal to ``("sqrt",)`` this is the classical
    average; ``ww_average`` delegates here, so the two agree bit for bit.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    if len(f) != system.size:
        raise ValueError("observable size does not match system")
    if len(schedule.entries) != k - 1:
        raise ValueError(f"schedule must provide {k - 1} entries for order {k}")
    ranges = schedule.values(N)
    assignment = CubeAssignment.diagonal(f, k - 1)
    return _average_pipeline(system, assignment, N, ranges, oversample, "strong", norm_p, threads, budget)


def weak_ww_average(
    system: FiniteSystem,
    f: Observable,
    k: int,
    N: int,
    oversample: int = 16,
    threads: int = 1,
    budget=None,
) -> Bracket:
    """Weak order-k average: supremum outside the L2 norm."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    if len(f) != system.size:
        raise ValueError("observable size does not match system")
    ranges = [max(1, math.isqrt(N))] * (k - 1)
    assignment = CubeAssignment.diagonal(f, k - 1)
    return _average_pipeline(system, assignment, N, ranges, oversample, "weak", threads=threads, budget=budget)


def off_diagonal_average(
    system: FiniteSystem,
    assignment: CubeAssignment,
    N: int,
    oversample: int = 16,
    norm_p: int = 2,
    threads: int = 1,
    budget=None,
) -> Bracket:
    """Cube average with an independent observable at each vertex."""
    if N < 1:
        raise ValueError("N must be >= 1")
    ranges = [max(1, math.isqrt(N))] * assignment.order
    return _average_pipeline(system, assignment, N, ranges, oversample, "strong", norm_p, threads, budget)


def zeta_transformed_assignment(
    system: FiniteSystem, assignment: CubeAssignment, zeta, N: int
) -> CubeAssignment:
    """Reindexed assignment whose off-diagonal average equals the original.

    Reversing the shift coordinates outside the support of ``zeta``
    (h_i -> R + 1 - h_i, R = floor(sqrt(N))) and translating by T^{h.(1-zeta)}
    permutes the vertex observables by the bit flip outside zeta, applies a
    compensating shift by (R+1) times the number of flipped zero bits, and
    toggles conjugation where the vertex weight changed parity.
    """
    zeta = tuple(int(z) for z in zeta)
    if len(zeta) != assignment.order or any(z not in (0, 1) for z in zeta):
        raise ValueError("zeta must be a 0/1 tuple matching the assignment order")
    R = max(1, math.isqrt(N))
    mapping = {}
    for bits in itertools.product((0, 1), repeat=assignment.order):
        src = CubeVertex(bits).flip_outside(zeta)
        g = assignment.vertex(src.bits)
        shift = (R + 1) * sum(1 for b, z in zip(bits, zeta) if z == 0 and b == 0)
        vals = g.values[system.power_indices(shift)]
        if (src.weight - sum(bits)) % 2 == 1:
            vals = np.conjugate(vals)
        mapping[bits] = Observable(vals)
    return CubeAssignment(mapping)
