"""Shifted-box lattice combinatorics.

A box family is the collection Box_n = prod_m [1-n, H_m-n] of integer
boxes for n = 0..q, together with their union Gamma_q.  The residence set
{n : h in Box_n} of a lattice point is always an interval; counting points
by the width of that interval has a closed formula, which is checked here
against direct enumeration, along with the two product cancellation
identities and the box/interval sum interchange.

All counts are exact integers; the normalized level bounds are compared
through `fractions.Fraction` and only converted to float in reports.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import check_budget, float_power

_ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class BoxFamily:
    """Boxes Box_n = prod_m [1-n, H_m-n] for n = 0..q."""

    H: tuple
    q: int

    def __post_init__(self):
        H = tuple(int(h) for h in self.H)
        if not H or any(h < 1 for h in H):
            raise ValueError("side lengths must be positive integers")
        q = int(self.q)
        if q <= min(H):
            raise ValueError("need q > min(H)")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "q", q)

    @property
    def k(self) -> int:
        return len(self.H)

    @property
    def H1(self) -> int:
        """Smallest side length."""
        return min(self.H)

    @property
    def H2(self) -> int:
        """Second smallest side length (with multiplicity)."""
        return sorted(self.H)[1] if self.k >= 2 else self.H[0]

    def box_points(self, n: int):
        """All lattice points of Box_n (empty for n outside [0, q])."""
        if not 0 <= n <= self.q:
            return set()
        ranges = [range(1 - n, h - n + 1) for h in self.H]
        return set(itertools.product(*ranges))


@dataclass(frozen=True)
class ResidenceInterval:
    """Interval [L, U] of box indices containing a fixed lattice point."""

    L: int
    U: int

    def __post_init__(self):
        if self.L > self.U:
            raise ValueError("empty residence interval")

    @property
    def width(self) -> int:
        return self.U - self.L + 1


def residence_interval(fam: BoxFamily, h):
    """Interval of n in [0, q] with h in Box_n, or None if there is none."""
    h = tuple(int(v) for v in h)
    if len(h) != fam.k:
        raise ValueError("point dimension does not match family")
    L = max(0, 1 - min(h))
    U = min(fam.q, min(H_m - h_m for H_m, h_m in zip(fam.H, h)))
    if L > U:
        return None
    return ResidenceInterval(L, U)


def exact_level_count(fam: BoxFamily, p: int) -> int:
    """# {h in Gamma_q : residence width = p} by the closed formula."""
    if not 1 <= p <= fam.H1:
        raise ValueError("level p must lie in [1, min(H)]")
    prod_a = prod_b = prod_c = 1
    for h in fam.H:
        prod_a *= max(h - p + 1, 0)
        prod_b *= max(h - p, 0)
        prod_c *= max(h - p - 1, 0)
    return 2 * (prod_a - prod_b) + (fam.q - p) * (prod_a - 2 * prod_b + prod_c)


def _width_table(fam: BoxFamily) -> np.ndarray:
    """Residence widths over the bounding region, 0 for points off Gamma_q."""
    sizes = [h + fam.q for h in fam.H]
    total = 1
    for s in sizes:
        total *= s
    if total > _ENUMERATION_CAP:
        raise ValueError(f"enumeration of {total} points exceeds cap {_ENUMERATION_CAP}")
    axes = [np.arange(1 - fam.q, h + 1) for h in fam.H]
    grids = np.meshgrid(*axes, indexing="ij")
    lo = np.zeros(grids[0].shape, dtype=np.int64)
    up = np.full(grids[0].shape, fam.q, dtype=np.int64)
    for g, h in zip(grids, fam.H):
        np.maximum(lo, 1 - g, out=lo)
        np.minimum(up, h - g, out=up)
    width = up - lo + 1
    return np.where(width > 0, width, 0)


def level_count_bruteforce(fam: BoxFamily, p: int) -> int:
    """Enumeration oracle for exact_level_count."""
    if not 1 <= p <= fam.H1:
        raise ValueError("level p must lie in [1, min(H)]")
    return int(np.count_nonzero(_width_table(fam) == p))


def level_histogram_bruteforce(fam: BoxFamily) -> dict:
    """All level counts at once: {p: #points with residence width p}."""
    widths = _width_table(fam)
    counts = np.bincount(widths.ravel(), minlength=fam.H1 + 1)
    return {p: int(counts[p]) for p in range(1, fam.H1 + 1)}


@dataclass(frozen=True)
class LevelBoundReport:
    p: int
    count: int
    lhs: float
    rhs: float
    slack: float
    regime: str


def level_bound_check(fam: BoxFamily, p: int, N: int) -> LevelBoundReport:
    """Normalized level count against the applicable closed bound.

    For p < min(H): count/(N prod H) <= 2^{k+1} (1/(N H1) + 1/(H1 H2)).
    For p = min(H): count/(N prod H) <= 2 (H2 - H1 + 1)/(H1 H2), which
    needs a genuine second-smallest side; in one dimension the same
    telescoping argument only yields the bound 2/H1, and that is what is
    checked there (the two-sided form is false for k = 1 once q > H1 + 2).
    """
    if N < fam.q + 1:
        raise ValueError("need N >= q + 1")
    count = exact_level_count(fam, p)
    vol = 1
    for h in fam.H:
        vol *= h
    lhs = Fraction(count, N * vol)
    if p == fam.H1:
        if fam.k == 1:
            rhs = Fraction(2, fam.H1)
        else:
            rhs = Fraction(2 * (fam.H2 - fam.H1 + 1), fam.H1 * fam.H2)
        regime = "top"
    else:
        rhs = 2 ** (fam.k + 1) * (Fraction(1, N * fam.H1) + Fraction(1, fam.H1 * fam.H2))
        regime = "interior"
    slack = rhs - lhs
    return LevelBoundReport(p, count, float(lhs), float(rhs), float(slack), regime)


def cancellation_identity(k: int, x, variant: int):
    """Both sides of the product cancellation identity of order k.

    variant 1: prod(x_m + 1) - prod(x_m)
             = sum over proper subsets S of {1..k} of prod_{i in S} x_i.
    variant 2: prod(x_m + 1) - 2 prod(x_m) + prod(x_m - 1)
             = 2 sum over proper subsets with k - |S| even.
    """
    if not 1 <= k <= 20:
        raise ValueError("k must lie in [1, 20]")
    x = list(x)
    if len(x) != k:
        raise ValueError("need one coordinate per dimension")
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    plus = minus = base = 1
    for v in x:
        plus *= v + 1
        base *= v
        minus *= v - 1
    rhs = 0
    for bits in itertools.product((0, 1), repeat=k):
        size = sum(bits)
        if size == k:
            continue
        if variant == 2 and (k - size) % 2 != 0:
            continue
        term = 1
        for b, v in zip(bits, x):
            if b:
                term *= v
        rhs += term
    if variant == 1:
        return plus - base, rhs
    return plus - 2 * base + minus, 2 * rhs


def interchange_check(fam: BoxFamily, integrand):
    """Both sides of sum_{n=0..q} sum_{h in Box_n} = sum_{h in Gamma_q} sum_{n=L_h..U_h}.

    ``integrand`` is a callable (n, h_tuple) -> value.
    """
    total = fam.q + 1
    for h in fam.H:
        total *= h + fam.q
    if total > _ENUMERATION_CAP:
        raise ValueError("enumeration budget exceeded")
    lhs = 0
    for n in range(fam.q + 1):
        for h in fam.box_points(n):
            lhs = lhs + integrand(n, h)
    rhs = 0
    axes = [range(1 - fam.q, h + 1) for h in fam.H]
    for h in itertools.product(*axes):
        res = residence_interval(fam, h)
        if res is None:
            continue
        for n in range(res.L, res.U + 1):
            rhs = rhs + integrand(n, h)
    return lhs, rhs


def level_sweep(k_values=(1, 2, 3), H_max: int = 5, q_max: int = 15, budget=None):
    """Rows comparing formula, enumeration, and bounds across a parameter grid.

    Yields dicts with keys k, H, q, p, exact, brute, bound_lhs, bound_rhs,
    slack; each family's bound is read at length N = q + 1.  The estimate
    counts (H_max (q_max + H_max))^k * q_max enumerated points per order k.
    """
    check_budget(sum(float_power(H_max * (q_max + H_max), k) * q_max for k in k_values), budget, "level_sweep")
    for k in k_values:
        for H in itertools.product(range(1, H_max + 1), repeat=k):
            fam_min = min(H)
            for q in range(fam_min + 1, q_max + 1):
                fam = BoxFamily(H, q)
                hist = level_histogram_bruteforce(fam)
                for p in range(1, fam_min + 1):
                    report = level_bound_check(fam, p, q + 1)
                    yield {
                        "k": k,
                        "H": "x".join(str(h) for h in H),
                        "q": q,
                        "p": p,
                        "exact": exact_level_count(fam, p),
                        "brute": hist[p],
                        "bound_lhs": report.lhs,
                        "bound_rhs": report.rhs,
                        "slack": report.slack,
                    }
