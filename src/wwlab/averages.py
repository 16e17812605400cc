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

from ._util import check_budget, content_key, float_power, fsum, memo, pmap
from .supbrackets import Bracket, _polyphase_rows, sup_norm_trig
from .systems import FiniteSystem, Observable, _row_chunks, shift_observable

_POINT_CHUNK_BUDGET = 1 << 18  # complex entries gathered per point chunk (4 MiB)


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


@dataclass(frozen=True)
class ScheduleR:
    """Per-coordinate shift ranges r_1..r_{k-1} for generalized averages.

    Each entry is one of ``("sqrt",)``, ``("linear",)`` or
    ``("table", {N: r})``.  Table values must be integers >= 1; tables are
    checked for monotonicity over their keys.
    """

    entries: tuple

    def __post_init__(self):
        entries = []
        for e in self.entries:
            kind = e[0]
            if kind == "sqrt" or kind == "linear":
                entries.append((kind,))
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
    if any(len(g) != system.size for g in assignment.mapping.values()):
        raise ValueError("assignment observables do not match the system size")
    # vertex eta reads C^{|eta|} g_eta at T^{eta . h} x: an orbit step at n = 1
    factors = [(np.conjugate(g.values) if sum(bits) % 2 else g.values, sum(b * x for b, x in zip(bits, h)))
               for bits, g in sorted(assignment.mapping.items())]
    return Observable(system.orbit_product(factors, slice(None), 1))


def _strong_kernel(system: FiniteSystem, factors, degree: int, N: int, oversample: int, norm_p: int):
    """(lower, upper) of || sup_t |(1/N) sum_n e^{2 pi i p_t(n)} prod_j F_j(T^{a_j n} x)| ||_p.

    ``factors`` lists (values of F_j, step a_j); p_t(n) = t_1 n + ... +
    t_d n^d with d = ``degree``.  The rows come in cycle order from
    ``FiniteSystem.orbit_rows`` and their results go back to their points;
    a row's bracket does not depend on the chunk it arrives in.
    """
    lows = np.empty(system.size)
    ups = np.empty(system.size)
    for x, seq in system.orbit_rows(factors, N, _POINT_CHUNK_BUDGET):
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
        system.orbit_product([(values, 1)], slice(None), np.arange(d.start, d.stop)[:, None], out=shifted)
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


def _refuse_cube(system: FiniteSystem, order: int, tuples: float, N: int, oversample: int, budget,
                 what: str = "cube average") -> None:
    """Refuse a cube average from its counts, before its cube or shift tuples are built: the
    estimate charges per tuple and point the 2^order vertex reads and the kernel."""
    kernel = N * math.log2(max(oversample * N, 2)) * oversample + N
    check_budget(tuples * system.size * (kernel + float_power(2, order)), budget, what)


def _average_pipeline(
    system: FiniteSystem,
    assignment: CubeAssignment,
    N: int,
    schedule: ScheduleR,
    oversample: int,
    kernel: str,
    norm_p: int = 2,
    threads: int = 1,
    budget=None,
) -> Bracket:
    """Every cube average: the mean over h in prod_m [1, r_m(N)] of the
    kernel's bracket for the cube product at h, to the power 2/3.

    ``norm_p`` is 2 for every public average; the general-window check
    passes 1 for the L1 form of the strong kernel.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if any(len(g) != system.size for g in assignment.mapping.values()):
        raise ValueError("observable size does not match system")
    if len(schedule.entries) != assignment.order:
        raise ValueError(f"schedule must provide {assignment.order} entries for order {assignment.order + 1}")
    ranges = schedule.values(N)
    _refuse_cube(system, assignment.order, math.prod(map(float, ranges)), N, oversample, budget)
    tuples = list(itertools.product(*(range(1, r + 1) for r in ranges)))
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
    threads: int = 1,
    budget=None,
) -> Bracket:
    """Order-k average of f at length N with the classical sqrt schedule."""
    _refuse_cube(system, k - 1, float_power(max(1, math.isqrt(N)), k - 1), N, oversample, budget)
    return ww_average_alt(system, f, k, N, ScheduleR.sqrt_schedule(k - 1), oversample, threads, budget)


def ww_average_alt(
    system: FiniteSystem,
    f: Observable,
    k: int,
    N: int,
    schedule: ScheduleR,
    oversample: int = 16,
    threads: int = 1,
    budget=None,
) -> Bracket:
    """Order-k average with explicit per-coordinate shift schedules.

    With every schedule entry equal to ``("sqrt",)`` this is the classical
    average; ``ww_average`` delegates here, so the two agree bit for bit.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    _refuse_cube(system, k - 1, math.prod(map(float, schedule.values(N))), N, oversample, budget)
    assignment = CubeAssignment.diagonal(f, k - 1)
    return _average_pipeline(system, assignment, N, schedule, oversample, "strong", threads=threads, budget=budget)


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
    _refuse_cube(system, k - 1, float_power(max(1, math.isqrt(N)), k - 1), N, oversample, budget)
    assignment = CubeAssignment.diagonal(f, k - 1)
    return _average_pipeline(system, assignment, N, ScheduleR.sqrt_schedule(k - 1), oversample, "weak",
                             threads=threads, budget=budget)


def off_diagonal_average(
    system: FiniteSystem,
    assignment: CubeAssignment,
    N: int,
    oversample: int = 16,
    threads: int = 1,
    budget=None,
) -> Bracket:
    """Cube average with an independent observable at each vertex."""
    schedule = ScheduleR.sqrt_schedule(assignment.order)
    return _average_pipeline(system, assignment, N, schedule, oversample, "strong", threads=threads, budget=budget)


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
        src = tuple(b if z else 1 - b for b, z in zip(bits, zeta))  # the bit flip outside zeta
        shift = (R + 1) * sum(1 for b, z in zip(bits, zeta) if z == 0 and b == 0)
        g = shift_observable(system, assignment.vertex(src), shift)
        mapping[bits] = g.conj() if (sum(src) - sum(bits)) % 2 == 1 else g
    return CubeAssignment(mapping)
