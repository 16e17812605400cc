"""Inequality checks, decay fits, domination witnesses, and Hilbert sums.

Everything downstream of the average/optimizer primitives lives here.  The
named-check registry evaluates each inequality of the catalogue on a concrete
scenario.  A row reads c_N = lhs / rhs, the slack rhs - lhs, and the outer
slack with each side at its other bracket endpoint, so a negative outer slack
is a refutation.  Fitted-constant checks pass on finite c_N, so they cannot
fail (read ``c_max`` and ``stable()``); constant-free checks pass on slack, or
outer slack, >= -tol.  offdiag_permute (exact equality) and weak_strong
(ordering rows on the outer slack, literal-constant rows at ratio <= 1) keep
their own rules.

Endpoint convention: the left side of an inequality is consumed at the upper
endpoint of its bracket and the right side at the lower endpoint, so a "pass"
is certified rather than optimistic.  The one systematic exception is the
uniform recurrence quantity, whose upper endpoint is only the triangle cap
||f||_2; wherever it appears the optimizer lower bound is used instead and the
check is labeled accordingly (on the right-hand side that can inflate the
fitted constant, never hide a failure).
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._util import check_budget, fsum, fsum_complex
from .averages import (
    _POINT_CHUNK_BUDGET,
    CubeAssignment,
    ScheduleR,
    _average_pipeline,
    _refuse_cube,
    _weak_kernel,
    off_diagonal_average,
    schedule_cap,
    weak_ww_average,
    ww_average,
    ww_average_alt,
    zeta_transformed_assignment,
)
from .recurrence import (
    ExponentVector,
    _orbit_scalars,
    companion_weights,
    intermediate_F,
    multiple_recurrence_average,
    polyphase_mrec_sup,
    uniform_mrec_bracket,
)
from .supbrackets import sup_modulated_average
from .systems import (
    FiniteSystem,
    Observable,
    conditional_expectation,
    cyclic_shift,
    product_system,
    random_mean_zero,
    spectral_coefficient,
    tensor_observable,
    two_cell_parity_partition,
)

__all__ = [
    "SeriesReport",
    "DecayFit",
    "PrecsimWitness",
    "CheckRow",
    "InequalityCheck",
    "HilbertSums",
    "HilbertVerdict",
    "PhaseWeights",
    "ReturnTimesWeights",
    "decay_fit",
    "precsim_fit",
    "available_checks",
    "check_defaults",
    "check_parameters",
    "run_named_check",
    "hilbert_partial_sums",
    "hilbert_criterion",
]


# -- result containers -------------------------------------------------------


@dataclass
class SeriesReport:
    """A nonnegative quantity sampled along increasing lengths N.

    ``entries`` holds ``(N, value)`` or ``(N, value, bracket)`` tuples with
    strictly increasing N and finite values >= 0.
    """

    label: str
    entries: list

    def __post_init__(self):
        prev = 0
        for e in self.entries:
            N, value = int(e[0]), float(e[1])
            if N <= prev:
                raise ValueError("entry lengths must be strictly increasing")
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"series value at N={N} must be finite and >= 0")
            prev = N


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power-law fit value ~ C * N^-alpha on a log-log grid."""

    alpha_hat: float
    C_hat: float
    r_squared: float
    window: tuple


@dataclass(frozen=True)
class PrecsimWitness:
    """Witness for f(N) <= C * (N^-alpha + g(phi(N))^gamma) over a window."""

    C: float
    alpha: float
    beta: float
    gamma: float
    phi_kind: str
    N_0: int
    residual: float


@dataclass(frozen=True)
class CheckRow:
    """One evaluated instance of an inequality.

    ``slack`` is the certified margin (rhs lower endpoint minus lhs upper
    endpoint after the endpoint policy); ``slack_outer`` widens both sides to
    the opposite endpoints, so a negative value there is an actual refutation
    rather than bracket looseness.  For exactly computed sides the two agree.
    """

    N: int
    lhs: float
    rhs_core: float
    c_N: float
    slack: float
    slack_outer: float
    label: str = ""


@dataclass
class InequalityCheck:
    name: str
    rows: list
    c_max: float
    verdict: bool
    endpoint_policy: str
    constant_free: bool = False
    tolerance: float = 0.0
    notes: str = ""

    def stable(self) -> bool:
        """True when the largest c_N sits at the smallest length (to a relative 1e-9)."""
        rows = sorted(self.rows, key=lambda r: r.N)
        if not rows:
            return False
        return rows[0].c_N >= self.c_max * (1.0 - 1e-9)


def _ratio(lhs: float, rhs: float) -> float:
    if rhs <= 0.0:
        return math.inf if lhs > 0.0 else 0.0
    return lhs / rhs


def _iroot(n: int, k: int) -> int:
    """Largest integer r with r**k <= n."""
    if n < 1:
        raise ValueError("need n >= 1")
    r = max(1, int(round(n ** (1.0 / k))))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _ceil_power(n: int, num: int, den: int) -> int:
    """Smallest integer m >= n**(num/den), decided in exact arithmetic."""
    m = max(1, int(round(n ** (num / den))))
    while m**den < n**num:
        m += 1
    while m > 1 and (m - 1) ** den >= n**num:
        m -= 1
    return m


def _autocorr(v: np.ndarray) -> np.ndarray:
    """corr[h] = sum_{n=0}^{N-h-1} conj(v[n+h]) v[n] for h = 0..N-1."""
    full = np.correlate(v, v, mode="full")  # full[N-1+h] = sum v[n+h] conj v[n]
    return np.conjugate(full[len(v) - 1 :])


# -- power-law fitting -------------------------------------------------------


def _entries_of(series) -> list:
    if isinstance(series, SeriesReport):
        return [(int(e[0]), float(e[1])) for e in series.entries]
    out = [(int(N), float(v)) for N, v in series]
    if any(b[0] <= a[0] for a, b in zip(out, out[1:])):
        raise ValueError("lengths must be strictly increasing")
    return out


def decay_fit(series) -> DecayFit:
    """Fit value ~ C * N^-alpha by least squares on (log N, log value).

    The window is the whole series.  A zero value anywhere short-circuits to
    the alpha = +inf sentinel; negative values are rejected.
    """
    entries = _entries_of(series)
    if len(entries) < 4:
        raise ValueError("decay fit needs at least 4 points")
    window = (entries[0][0], entries[-1][0])
    values = np.array([v for _, v in entries])
    if np.any(values < 0):
        raise ValueError("decay fit needs nonnegative values")
    if np.any(values == 0):
        return DecayFit(math.inf, 0.0, 1.0, window)
    x = np.log(np.array([N for N, _ in entries], dtype=np.float64))
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(float(-slope), float(math.exp(intercept)), r2, window)


_GRID_12 = tuple(i / 12.0 for i in range(1, 13))
_PRECSIM_CAP = 1e6  # largest fitted constant a domination witness may have
_PRECSIM_SLOPE_TOL = 1e-3  # largest log-log slope of the ratio at the window end


def precsim_fit(f_series, g_series):
    """Search for a domination witness f(N) <= C (N^-alpha + g(phi(N))^gamma).

    phi is the smallest-integer power map phi(N) = ceil(N^beta) (beta = 1 is
    the identity), with each of (alpha, beta, gamma) ranging over the twelfths
    i/12, i = 1..12.  A triple is feasible when the fitted constant
    C = max_N f(N) / (N^-alpha + g(phi(N))^gamma) stays below _PRECSIM_CAP
    and the ratio is not still growing polynomially at the window end (log-log
    slope <= _PRECSIM_SLOPE_TOL); the growth guard is what rejects a constant
    sequence against a decaying one, which no finite cap alone can do.  Ties
    resolve toward the smallest C, then largest alpha, smallest beta, largest
    gamma.  Returns None when no triple is feasible.
    """
    f_entries = _entries_of(f_series)
    g_map = dict(_entries_of(g_series))
    if not f_entries:
        raise ValueError("domination fit needs a nonempty series")
    if any(v < 0 for _, v in f_entries) or any(v < 0 for v in g_map.values()):
        raise ValueError("domination fit needs nonnegative series")

    lengths = [N for N, _ in f_entries]
    best = None
    for i, beta in enumerate(_GRID_12, start=1):
        phis = [_ceil_power(N, i, 12) for N in lengths]
        for phi in phis:
            if phi not in g_map:
                raise ValueError(f"domination fit needs the comparison series at N = {phi}")
        for gamma in _GRID_12:
            g_pow = [g_map[phi] ** gamma for phi in phis]
            for alpha in _GRID_12:
                denom = [N ** (-alpha) + gp for N, gp in zip(lengths, g_pow)]
                ratios = [v / d for (_, v), d in zip(f_entries, denom)]
                C = max(ratios)
                if C > _PRECSIM_CAP:
                    continue
                pts = [(math.log(N), math.log(r)) for N, r in zip(lengths, ratios) if r > 0.0]
                if len(pts) >= 2 and pts[0][0] != pts[-1][0]:
                    xs = np.array([p[0] for p in pts])
                    ys = np.array([p[1] for p in pts])
                    slope = float(np.polyfit(xs, ys, 1)[0])
                else:
                    slope = 0.0
                if slope > _PRECSIM_SLOPE_TOL:
                    continue
                key = (C, -alpha, beta, -gamma)
                if best is None or key < best[0]:
                    residual = max(v - C * d for (_, v), d in zip(f_entries, denom))
                    kind = "identity" if abs(beta - 1.0) < 1e-12 else f"power({beta:g})"
                    best = (key, PrecsimWitness(C, alpha, beta, gamma, kind, lengths[0] - 1, residual))
    return None if best is None else best[1]


# -- the named-check registry ------------------------------------------------

_SAMPLE_CHUNK = 1 << 16  # samples per chunk in the maximal and power-mean checks (512 KiB)

_POLICY_BRACKETS = "lhs at bracket upper, rhs at bracket lower"
_POLICY_EXACT = "both sides exact"
_POLICY_M_LHS = "lhs is the optimizer lower bound (certified upper is only the triangle cap)"
_POLICY_M_RHS = (
    "lhs at bracket upper; rhs consumes the optimizer lower bound, so the "
    "fitted constant may be inflated, never deflated"
)


class _Check(NamedTuple):
    """A check's row generator, which declares its scenario in its signature and
    yields CheckRows (and optionally a notes string), its policy and its verdict rule."""

    run: Callable
    policy: str
    tol: float | None = None  # None: a fitted-constant check
    outer: bool = False  # a constant-free verdict reads the outer slack
    verdict: Callable | None = None  # (rows, tol) -> bool, in place of the shared rule


def _row(N, lhs, rhs, label="", lhs_far=None, rhs_far=None) -> CheckRow:
    """A row: slack = rhs - lhs; the outer slack reads ``lhs_far`` and ``rhs_far`` where given."""
    outer = (rhs if rhs_far is None else rhs_far) - (lhs if lhs_far is None else lhs_far)
    return CheckRow(N, lhs, rhs, _ratio(lhs, rhs), rhs - lhs, outer, label)


def _scene(system, seed: int, *observables, size: int = 13):
    """The scenario defaults: ``cyclic_shift(size)`` for a missing system, and
    ``random_mean_zero(system, seed + i)`` for each observable i left as None."""
    system = system if system is not None else cyclic_shift(size)
    defaults = (f if f is not None else random_mean_zero(system, seed + i) for i, f in enumerate(observables))
    return system, *defaults


def _orbit_scene(system, functions, exponents, seed: int):
    """Defaults for the orbit checks: one seeded observable, exponents 1..J."""
    system = _scene(system, seed)[0]
    functions = functions if functions is not None else [random_mean_zero(system, seed)]
    exponents = exponents if exponents is not None else ExponentVector(tuple(range(1, len(functions) + 1)))
    return system, functions, exponents


def _cube_scene(system, assignment, seed: int):
    """Default cube assignment: seeded observables at the two vertices of {0,1}."""
    if assignment is not None:
        return _scene(system, seed)[0], assignment
    system, f0, f1 = _scene(system, seed, None, None)
    return system, CubeAssignment({(0,): f0, (1,): f1})


def _seeded(sequence, seed: int, length: int, nonnegative: bool = False):
    """``sequence``, or a seeded standard normal draw: complex, or |real| if nonnegative."""
    if sequence is not None:
        return sequence
    draw = np.random.default_rng(seed).standard_normal
    return np.abs(draw(length)) if nonnegative else draw(length) + 1j * draw(length)


def _length(sequence, length: int) -> float:
    """The length of ``sequence``, or of the draw that stands in for it, for a cost estimate."""
    return float(len(sequence) if sequence is not None else length)


def _check_vdc(sequence=None, H_values=None, seed: int = 0, length: int = 32, budget=None):
    """Second-moment averaging bound for a raw complex sequence.

    For every window size H between 1 and N the squared mean of the sequence
    is controlled by a weighted sum of autocorrelations; both sides are exact
    sums, so the slack is a hard number.
    """
    check_budget(_length(sequence, length) ** 2, budget, "vdc")  # a sum per H up to N, charged before the draw
    v = np.asarray(_seeded(sequence, seed, length), dtype=np.complex128)
    N = len(v)
    if N < 1:
        raise ValueError("sequence must be nonempty")
    corr = _autocorr(v)
    lhs = abs(fsum_complex(v.tolist()) / N) ** 2
    energy = fsum((np.abs(v) ** 2).tolist())
    for H in H_values if H_values is not None else range(1, N + 1):
        if not 1 <= H <= N:
            raise ValueError(f"H={H} outside [1, {N}]")
        # the lag-h sum is empty once h reaches N, so it contributes nothing
        weighted = fsum(((H + 1 - h) * corr[h].real for h in range(1, min(H, N - 1) + 1)))
        rhs = (N + H) / (N**2 * (H + 1)) * energy + 2 * (N + H) / (N**2 * (H + 1) ** 2) * weighted
        yield _row(H, lhs, rhs, f"H={H}")


def _check_vdc_sup(sequence=None, H_values=None, seed: int = 0, length: int = 32, oversample: int = 16,
                   budget=None):
    """Uniform-modulation version of the averaging bound.

    The left side is the certified upper endpoint of the supremum bracket for
    sup_t |(1/N) sum u_n e^{2 pi i n t}|^2; the right side replaces signed
    autocorrelations by their moduli, which buys enough room that bracket
    width never threatens the margin.
    """
    check_budget(_length(sequence, length) ** 2, budget, "vdc_sup")
    u = np.asarray(_seeded(sequence, seed, length), dtype=np.complex128)
    N = len(u)
    if N < 2:
        raise ValueError("sequence must have length >= 2")
    bracket = sup_modulated_average(u, oversample, budget)
    corr = _autocorr(u)
    energy = fsum((np.abs(u) ** 2).tolist())
    for H in H_values if H_values is not None else range(1, N):
        if not 1 <= H <= N - 1:
            raise ValueError(f"H={H} outside [1, {N - 1}]")
        mods = fsum((abs(corr[h]) / N for h in range(1, H + 1)))
        rhs = 2.0 / (N * (H + 1)) * energy + 4.0 / (H + 1) * mods
        yield _row(H, bracket.upper**2, rhs, f"H={H}", lhs_far=bracket.lower**2)


def _check_vdc_systems(system=None, f=None, N_values=(8, 16, 32), seed: int = 0, budget=None):
    """Mean-square ergodic average against one-sided spectral correlations."""
    system, f = _scene(system, seed, f)
    for N in N_values:
        lhs = multiple_recurrence_average(system, [f], ExponentVector((1,)), N, budget=budget) ** 2
        rhs = (2.0 / N) * fsum(
            ((N - n) / N * spectral_coefficient(system, f, n).real for n in range(N))
        )
        yield _row(N, lhs, rhs)


def _check_holder_averages(sequence=None, p_values=(0.5, 1.0, 2.0, 4.0), seed: int = 0, length: int = 64,
                           budget=None):
    """Power means of a nonnegative sequence are nondecreasing in the exponent.

    The sequence, or its seeded draw, is read in chunks of _SAMPLE_CHUNK
    values, drawn afresh for every exponent: the same values and the same
    exactly rounded sums as one whole array, in memory of one chunk.
    """
    check_budget(_length(sequence, length) * len(p_values), budget, "holder_averages")
    N = len(sequence) if sequence is not None else length
    a = None if sequence is None else np.asarray(sequence, dtype=np.float64)
    if a is not None and np.any(a < 0):
        raise ValueError("power means need nonnegative input")

    def chunks():
        draw = np.random.default_rng(seed).standard_normal
        for i in range(0, N, _SAMPLE_CHUNK):
            yield np.abs(draw(min(_SAMPLE_CHUNK, N - i))) if a is None else a[i : i + _SAMPLE_CHUNK]

    means = [fsum(x for c in chunks() for x in (c**p).tolist()) / N for p in p_values]
    levels = [m ** (1.0 / p) for m, p in zip(means, p_values)]
    for i in range(len(p_values) - 1):
        yield _row(i + 1, levels[i], levels[i + 1], f"p={p_values[i]:g}<={p_values[i + 1]:g}")


def _check_maximal(system=None, f=None, p: float = 2.0, N_cap=None, seed: int = 0, budget=None):
    """Maximal ergodic average bound with constant p / (p - 1).

    The running maximum is taken over all lengths up to ``N_cap`` (default
    four revolutions of the system), which only makes the left side smaller
    than the full supremum, so a pass is genuine.
    """
    system = _scene(system, seed)[0]
    vals = np.asarray(f.values if f is not None else _seeded(None, seed, system.size, nonnegative=True))
    if np.any(np.abs(vals.imag) > 1e-12) or np.any(vals.real < -1e-12):
        raise ValueError("maximal bound check expects nonnegative real input")
    if p <= 1:
        raise ValueError("exponent must exceed 1")
    N_cap = N_cap if N_cap is not None else 4 * system.size
    check_budget(float(N_cap) * system.size, budget, what="maximal")
    # lengths in chunks: a running sum and a running maximum per point
    total = np.zeros(system.size)
    m = np.full(system.size, -np.inf)
    step = max(1, _SAMPLE_CHUNK // system.size)
    for start in range(1, N_cap + 1, step):
        n = np.arange(start, min(start + step, N_cap + 1))[:, None]
        sums = vals.real[system.orbit_indices(slice(None), 1, n)]  # row i holds f o T^(start+i)
        sums[0] += total  # the carry: every sum adds in the order one pass over all n would
        np.cumsum(sums, axis=0, out=sums)
        total = sums[-1].copy()
        np.maximum(m, (sums / n).max(axis=0), out=m)
    lhs = fsum((system.weights * m**p).tolist()) ** (1.0 / p)
    rhs = p / (p - 1.0) * fsum((system.weights * vals.real**p).tolist()) ** (1.0 / p)
    yield _row(N_cap, lhs, rhs, f"p={p:g}")


def _check_bourgain(
    system=None, f=None, k: int = 1, N_values=(16, 32, 64), oversample: int = 16,
    restarts: int = 2, seed: int = 0, threads: int = 1, budget=None,
):
    """Uniform recurrence norm controlled by the order-k average."""
    system, f = _scene(system, seed, f)
    for N in N_values:
        m = uniform_mrec_bracket(system, f, k, N, restarts=restarts, seed=seed, budget=budget)
        w = ww_average(system, f, k, N, oversample, threads=threads, budget=budget)
        rhs = N ** (-1.0 / 2**k) + w.lower ** (1.0 / 2 ** (k - 1))
        yield _row(N, m.lower, rhs)


def _check_reverse_bourgain(
    system=None, f=None, k: int = 1, N_values=(16, 64, 256), oversample: int = 16,
    restarts: int = 2, seed: int = 0, brute: bool = False, threads: int = 1, budget=None,
):
    """Order-k average controlled by the recurrence norm at a reduced length.

    At k = 1 the sharper exponent pair (length sqrt(N), decay N^-1/6) is used;
    higher orders fall back to the fourth-root reduction with decay N^-1/24.
    With ``brute`` the recurrence value is the exact sign-class maximum, which
    removes the optimizer caveat on small systems.
    """
    system, f = _scene(system, seed, f)
    if brute:
        yield "recurrence value exact on the sign class"
    for N in N_values:
        W = ww_average(system, f, k, N, oversample, threads=threads, budget=budget)
        if k == 1:
            R, decay = max(1, math.isqrt(N)), N ** (-1.0 / 6.0)
        else:
            R, decay = _iroot(N, 4), N ** (-1.0 / 24.0)
        m = uniform_mrec_bracket(system, f, k, R, restarts=restarts, seed=seed,
                                 brute_force=brute, budget=budget)
        yield _row(N, W.upper, decay + m.lower ** (1.0 / 6.0), lhs_far=W.lower)


def _check_sublinearity(
    system=None, f1=None, f2=None, k: int = 1, N_values=(64, 256), oversample: int = 16,
    seed: int = 0, threads: int = 1, budget=None,
):
    """Average of a sum against the averages of the parts at length N^(1/4)."""
    system, f1, f2 = _scene(system, seed, f1, f2)
    total = Observable(np.asarray(f1.values) + np.asarray(f2.values))
    for N in N_values:
        lhs = ww_average(system, total, k, N, oversample, threads=threads, budget=budget).upper
        R = _iroot(N, 4)
        expo = 1.0 / (3 * 2**k)
        parts = [
            ww_average(system, g, k, R, oversample, threads=threads, budget=budget).lower ** expo
            for g in (f1, f2)
        ]
        yield _row(N, lhs, N ** (-1.0 / (3 * 2 ** (k + 3))) + parts[0] + parts[1])


def _check_offdiag_control(
    system=None, assignment=None, N_values=(64, 256), oversample: int = 16,
    seed: int = 0, threads: int = 1, budget=None,
):
    """Off-diagonal cube average against the best single-vertex average."""
    system, assignment = _cube_scene(system, assignment, seed)
    k = assignment.order + 1
    expo = 1.0 / (3 * 2**k)
    for N in N_values:
        lhs = off_diagonal_average(system, assignment, N, oversample, threads=threads, budget=budget).upper
        R = _iroot(N, 4)
        best = min(
            ww_average(system, assignment.vertex(bits), k, R, oversample,
                       threads=threads, budget=budget).lower
            for bits in itertools.product((0, 1), repeat=assignment.order)
        )
        yield _row(N, lhs, N ** (-1.0 / (3 * 2 ** (k + 3))) + best**expo)


def _check_offdiag_permute(
    system=None, assignment=None, zeta=None, N: int = 64, oversample: int = 16,
    seed: int = 0, threads: int = 1, budget=None,
):
    """Reindexing invariance of the off-diagonal average, an exact identity.

    Both endpoints must agree bit for bit: the reindexed assignment produces
    the same multiset of per-shift values and every reduction is an
    exactly-rounded sum, so even the float results coincide.
    """
    system, assignment = _cube_scene(system, assignment, seed)
    zeta = zeta if zeta is not None else (0,) * assignment.order
    base = off_diagonal_average(system, assignment, N, oversample, threads=threads, budget=budget)
    moved = off_diagonal_average(
        system, zeta_transformed_assignment(system, assignment, zeta, N), N,
        oversample, threads=threads, budget=budget,
    )
    yield _row(N, base.lower, moved.lower, "lower")
    yield _row(N, base.upper, moved.upper, "upper")


def _check_cond_exp(
    system=None, f=None, partition=None, k: int = 1, N_values=(64, 256),
    oversample: int = 16, seed: int = 0, threads: int = 1, budget=None,
):
    """Averaging a projection onto an invariant partition loses nothing."""
    system, f = _scene(system, seed, f, size=12)
    partition = partition if partition is not None else two_cell_parity_partition(system)
    if not partition.is_shift_invariant(system):
        raise ValueError("partition must be invariant under the map")
    proj = conditional_expectation(system, f, partition)
    for N in N_values:
        lhs = ww_average(system, proj, k, N, oversample, threads=threads, budget=budget).upper
        R = _iroot(N, 4)
        base = ww_average(system, f, k, R, oversample, threads=threads, budget=budget).lower
        yield _row(N, lhs, N ** (-1.0 / (3 * 2 ** (k + 1))) + base ** (1.0 / (3 * 2**k)))


def _weak_strong_verdict(rows, tol):
    """Ordering rows pass on the outer slack; literal-constant rows at ratio <= 1, unless wide."""
    return all(r.slack_outer >= -tol if r.label == "order" else r.label == "explicit-wide" or r.c_N <= 1.0
               for r in rows)


def _check_weak_strong(
    system=None, f=None, k: int = 1, N_values=(64, 256), oversample: int = 16,
    seed: int = 0, threads: int = 1, budget=None,
):
    """Weak vs strong averages: ordering, plus the explicit two-term bound.

    The ordering rows compare brackets, so the verdict uses the refutation
    slack.  The explicit rows carry literal constants (cube-root of 2 and
    2^(5/6)) and must come in at ratio <= 1 whenever both brackets are
    narrower than one percent; nothing is fitted.
    """
    system, f = _scene(system, seed, f)
    for N in N_values:
        weak = weak_ww_average(system, f, k, N, oversample, threads=threads, budget=budget)
        strong = ww_average(system, f, k, N, oversample, threads=threads, budget=budget)
        yield _row(N, weak.upper, strong.lower, "order", lhs_far=weak.lower, rhs_far=strong.upper)

        lifted = weak_ww_average(system, f, k + 1, N, oversample, threads=threads, budget=budget)
        rhs = 2 ** (1.0 / 3.0) * N ** (-1.0 / 6.0) + 2 ** (5.0 / 6.0) * lifted.lower ** (1.0 / 8.0)
        narrow = strong.rel_width < 0.01 and lifted.rel_width < 0.01
        yield _row(N, strong.upper, rhs, "explicit" if narrow else "explicit-wide", lhs_far=strong.lower)


def _check_spectral_weak(system=None, f=None, N_values=(16, 32), oversample: int = 16, seed: int = 0,
                         budget=None):
    """Mean square of correlation coefficients against the weak supremum.

    Needs sup|f| <= 1; the right side is the raw supremum of the L2 norm
    (no two-thirds power), evaluated by the certified kernel.
    """
    system, g = _scene(system, seed, f)
    f = f if f is not None else Observable(np.asarray(g.values) / max(1.0, g.sup_norm))
    if f.sup_norm > 1.0 + 1e-9:
        raise ValueError("spectral comparison needs sup|f| <= 1")
    for N in N_values:
        coeffs = [spectral_coefficient(system, f, n) for n in range(N)]
        lhs = fsum(abs(c) ** 2 for c in coeffs) / N
        _refuse_cube(system, 0, 1.0, N, oversample, budget, "spectral_weak")
        lo, up = _weak_kernel(system, np.asarray(f.values, dtype=np.complex128), N, oversample)
        yield _row(N, lhs, lo, rhs_far=up)


def _check_weak_product(
    system_a=None, system_b=None, f=None, g=None, k: int = 1, N_values=(32, 64),
    oversample: int = 16, seed: int = 0, threads: int = 1, budget=None,
):
    """Weak average of a tensor product never beats either factor."""
    system_a, f = _scene(system_a, seed, f, size=5)
    system_b, g = _scene(system_b, seed + 1, g, size=7)
    prod = product_system(system_a, system_b)
    fg = tensor_observable(f, g)
    for N in N_values:
        wp = weak_ww_average(prod, fg, k, N, oversample, threads=threads, budget=budget)
        wf = weak_ww_average(system_a, f, k, N, oversample, threads=threads, budget=budget)
        wg = weak_ww_average(system_b, g, k, N, oversample, threads=threads, budget=budget)
        yield _row(N, wp.upper, min(wf.lower, wg.lower), lhs_far=wp.lower, rhs_far=min(wf.upper, wg.upper))


def _check_strong_product(
    system_a=None, system_b=None, f=None, g=None, k: int = 1, N_values=(32, 64),
    oversample: int = 16, seed: int = 0, threads: int = 1, budget=None,
):
    """Strong average of a tensor product against the better factor, one order up."""
    system_a, f = _scene(system_a, seed, f, size=5)
    system_b, g = _scene(system_b, seed + 1, g, size=7)
    prod = product_system(system_a, system_b)
    fg = tensor_observable(f, g)
    for N in N_values:
        lhs = ww_average(prod, fg, k, N, oversample, threads=threads, budget=budget).upper
        best = min(
            ww_average(system_a, f, k + 1, N, oversample, threads=threads, budget=budget).lower,
            ww_average(system_b, g, k + 1, N, oversample, threads=threads, budget=budget).lower,
        )
        yield _row(N, lhs, N ** (-1.0 / 6.0) + best ** (1.0 / 8.0))


def _check_alt_upper(
    system=None, f=None, k: int = 2, schedule=None, N_values=(64, 256),
    oversample: int = 16, seed: int = 0, threads: int = 1, budget=None,
):
    """Alternative-schedule average against the classical one at the capped length."""
    system, f = _scene(system, seed, f)
    schedule = schedule if schedule is not None else ScheduleR.linear_schedule(k - 1)
    for N in N_values:
        lhs = ww_average_alt(system, f, k, N, schedule, oversample, threads=threads, budget=budget).upper
        R = schedule_cap(schedule, N)
        base = ww_average(system, f, k, R, oversample, threads=threads, budget=budget).lower
        yield _row(N, lhs, R ** (-1.0 / (3 * 2 ** (k + 1))) + base ** (1.0 / (3 * 2**k)))


def _check_alt_bb(
    system=None, f=None, k: int = 2, schedule=None, beta: int = 2, N_values=(64, 256),
    oversample: int = 16, restarts: int = 2, seed: int = 0, threads: int = 1, budget=None,
):
    """Recurrence norm against the alternative-schedule average at length N^(1/beta)."""
    if k < 2:
        raise ValueError("this comparison needs order k >= 2")
    system, f = _scene(system, seed, f)
    schedule = schedule if schedule is not None else ScheduleR.sqrt_schedule(k - 1)
    if beta < 1:
        raise ValueError("beta must be a positive integer")
    expo = 1.0 / 2 ** (k - 1)
    for N in N_values:
        for m in range(k - 1):
            if schedule.value(m, N) > N**beta:
                raise ValueError("schedule grows faster than N^beta")
        n_red = _iroot(N, beta)
        m = uniform_mrec_bracket(system, f, k, N, restarts=restarts, seed=seed, budget=budget)
        tail = fsum(
            (1.0 / schedule.value(j, n_red) + schedule.value(j, n_red) / N) ** expo
            for j in range(k - 1)
        )
        base = ww_average_alt(system, f, k, n_red, schedule, oversample,
                              threads=threads, budget=budget).lower
        yield _row(N, m.lower, tail + N ** (-1.0 / (3 * beta * 2 ** (k - 2))) + base**expo)


def _check_shrinking(
    system=None, f=None, beta: int = 2, N_values=(64, 256), oversample: int = 16,
    seed: int = 0, threads: int = 1, budget=None,
):
    """Length reduction for order-one averages with constant one.

    W at length N is at most W at length N^(1/beta) plus the explicit price
    (beta / N^(1/beta))^(2/3); no constant is fitted, so the certified slack
    itself must stay nonnegative.
    """
    if beta < 2:
        raise ValueError("beta must be an integer >= 2")
    system, f = _scene(system, seed, f)
    for N in N_values:
        lhs = ww_average(system, f, 1, N, oversample, threads=threads, budget=budget).upper
        n_red = _iroot(N, beta)
        base = ww_average(system, f, 1, n_red, oversample, threads=threads, budget=budget).lower
        yield _row(N, lhs, base + (beta / N ** (1.0 / beta)) ** (2.0 / 3.0))


def _check_poly_ww(
    system=None, functions=None, exponents=None, phase_degree: int = 1,
    N_values=(32, 64), oversample: int = 16, seed: int = 0, threads: int = 1, budget=None,
):
    """Polynomial-phase supremum against the average of matching total order."""
    system, functions, exponents = _orbit_scene(system, functions, exponents, seed)
    J = len(functions)
    order = phase_degree + J - 1
    expo = 2 ** (phase_degree + J - 2)
    for N in N_values:
        if N <= exponents.first_abs**2:
            raise ValueError("need N > a_1^2")
        lhs = polyphase_mrec_sup(system, functions, exponents, phase_degree, N,
                                 oversample, budget=budget).upper
        base = ww_average(system, functions[0], order, N, oversample,
                          threads=threads, budget=budget).lower
        yield _row(N, lhs, max(1, math.isqrt(N)) ** (-1.0 / expo) + base ** (1.0 / expo))


def _companion_norms(system, functions, exponents, system_y, g_list, b_steps, N: int) -> np.ndarray:
    """Per point x, the L2 norm over y of (1/N) sum_n prod_j f_j(T^{a_j n} x) W_n(y).

    Points x go in chunks of about _POINT_CHUNK_BUDGET entries of the
    (x, y) matrix, so only the companion weights W are held whole.  numpy
    forms a product with one row or one column as a matrix-vector product,
    which rounds differently from a matrix product, and differently again
    on fewer rows.  So no chunk holds one point of several, and a companion
    system of one point takes every x at once, as the whole product does.
    """
    W = companion_weights(system_y, g_list, b_steps, N)
    factors = [(f.values, a) for f, a in zip(functions, exponents.entries)]
    n = np.arange(1, N + 1)[:, None]
    M = system.size
    lhs = np.empty(M)
    step, x0 = (max(2, _POINT_CHUNK_BUDGET // system_y.size) if system_y.size > 1 else M), 0
    while x0 < M:
        x1 = M if M - x0 <= step + 1 else x0 + step
        x = np.arange(x0, x1)
        A = system.orbit_product(factors, x, n).T @ W  # point x by companion point y
        A /= N
        lhs[x] = np.sqrt((np.abs(A) ** 2 * system_y.weights[None, :]).sum(axis=1))
        x0 = x1
    return lhs


def _check_intermediate_F_ptwise(
    system=None, system_y=None, functions=None, exponents=None, g_list=None,
    b_steps=None, N_values=(32,), oversample: int = 16, seed: int = 0, budget=None,
):
    """Companion-weighted average at each base point against the dominator.

    For every x the L2 norm over the companion system of the weighted average
    is compared with the pointwise dominator at x; the row records the worst
    point.
    """
    yield "rhs is the dominator's lower endpoint"
    system, functions, exponents = _orbit_scene(system, functions, exponents, seed)
    system_y = _scene(system_y, seed, size=5)[0]
    g_list = g_list if g_list is not None else [random_mean_zero(system_y, seed + 7)]
    b_steps = tuple(b_steps) if b_steps is not None else tuple(range(1, len(g_list) + 1))
    g_list = [
        g if g.sup_norm <= 1.0 + 1e-9 else Observable(np.asarray(g.values) / g.sup_norm)
        for g in g_list
    ]
    K = len(g_list)
    for N in N_values:
        if N <= exponents.first_abs**2:
            raise ValueError("need N > a_1^2")
        lhs_x = _companion_norms(system, functions, exponents, system_y, g_list, b_steps, N)
        dom = intermediate_F(system, functions, exponents, K, N, oversample, budget=budget)
        flo = np.asarray(dom.lower.values).real
        i = int(np.argmax(lhs_x / np.where(flo > 0, flo, np.inf)))
        yield _row(N, float(lhs_x[i]), float(flo[i]), f"x={i}")


def _check_intermediate_F_integral(
    system=None, functions=None, exponents=None, K: int = 1, N_values=(32,),
    oversample: int = 16, seed: int = 0, threads: int = 1, budget=None,
):
    """Integrated dominator against the average of total order J + K - 1."""
    system, functions, exponents = _orbit_scene(system, functions, exponents, seed)
    J = len(functions)
    expo = 2 ** (J + K - 2)
    for N in N_values:
        dom = intermediate_F(system, functions, exponents, K, N, oversample, budget=budget)
        lhs = fsum((system.weights * np.asarray(dom.upper.values).real).tolist())
        base = ww_average(system, functions[0], J + K - 1, N, oversample,
                          threads=threads, budget=budget).lower
        yield _row(N, lhs, max(1, math.isqrt(N)) ** (-1.0 / expo) + base ** (1.0 / expo))


def _check_general_rbb(
    system=None, assignment=None, H=None, N: int = 64, oversample: int = 16,
    restarts: int = 2, seed: int = 0, threads: int = 1, budget=None,
):
    """General-window cube average in L1 against recurrence norms.

    The shift windows H_1..H_{k-1} are free, H_k <= N is the extra averaging
    window, and the right side mixes the two smallest windows with recurrence
    norms of the full-weight vertex observable at small lengths.
    """
    system, assignment = _cube_scene(system, assignment, seed)
    k = assignment.order + 1
    H = tuple(int(h) for h in H) if H is not None else (3,) * k
    if len(H) != k:
        raise ValueError(f"need {k} window sizes for order {k}")
    if any(h < 1 for h in H) or H[-1] > N:
        raise ValueError("windows must be >= 1 with the last one at most N")
    windows = ScheduleR(tuple(("table", {N: h}) for h in H[: k - 1]))
    lhs = _average_pipeline(system, assignment, N, windows, oversample,
                            "strong", norm_p=1, threads=threads, budget=budget).upper
    H1, H2 = sorted(H)[:2]
    g1 = assignment.vertex((1,) * (k - 1))
    m_values = [
        uniform_mrec_bracket(system, g1, k, p, restarts=restarts, seed=seed, budget=budget).lower
        for p in range(1, H1 + 1)
    ]
    rhs = (
        H[-1] ** (-1.0 / 3.0)
        + (H1 / N) ** (1.0 / 6.0)
        + (fsum(m_values) / H2) ** (1.0 / 6.0)
        + ((H2 - H1 + 1) / H2) ** (1.0 / 6.0) * m_values[-1] ** (1.0 / 6.0)
    )
    yield _row(N, lhs, rhs, f"H={H}")


def _check_hilbert_cauchy(sequence=None, sigma: float = 0.9, pairs=None, seed: int = 0, length: int = 48,
                          budget=None):
    """Difference of weighted partial sums against the summation-by-parts bound."""
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")
    check_budget(_length(sequence, length) ** 2, budget, "hilbert_cauchy")  # a sum per pair (N, M)
    a = np.asarray(_seeded(sequence, seed, length), dtype=np.complex128)
    L = len(a)
    if L < 2:
        raise ValueError("sequence must have length >= 2")
    n = np.arange(1, L + 1, dtype=np.float64)
    A = np.cumsum(a) / n
    S = np.cumsum(a / n**sigma)
    for N, M in pairs if pairs is not None else [(N, L) for N in range(1, L)]:
        if not 1 <= N < M <= L:
            raise ValueError(f"need 1 <= N < M <= {L}")
        lhs = abs(S[M - 1] - S[N - 1])
        mid = fsum((abs(A[j - 1]) / j**sigma for j in range(N, M)))
        edge = abs(M ** (1.0 - sigma) * A[M - 1] - N ** (1.0 - sigma) * A[N - 1])
        yield _row(M, lhs, mid + edge, f"{N}->{M}")


_REGISTRY = {
    "vdc": _Check(_check_vdc, _POLICY_EXACT, tol=1e-9),
    "vdc_sup": _Check(_check_vdc_sup, _POLICY_BRACKETS, tol=1e-9),
    "vdc_systems": _Check(_check_vdc_systems, _POLICY_EXACT, tol=1e-10),
    "holder_averages": _Check(_check_holder_averages, _POLICY_EXACT, tol=1e-9),
    "maximal": _Check(_check_maximal, _POLICY_EXACT, tol=1e-9),
    "bourgain": _Check(_check_bourgain, _POLICY_M_LHS),
    "reverse_bourgain": _Check(_check_reverse_bourgain, _POLICY_M_RHS),
    "sublinearity": _Check(_check_sublinearity, _POLICY_BRACKETS),
    "offdiag_control": _Check(_check_offdiag_control, _POLICY_BRACKETS),
    "offdiag_permute": _Check(_check_offdiag_permute, _POLICY_EXACT, tol=0.0,
                              verdict=lambda rows, tol: all(r.slack == 0.0 for r in rows)),
    "cond_exp": _Check(_check_cond_exp, _POLICY_BRACKETS),
    "weak_strong": _Check(_check_weak_strong, _POLICY_BRACKETS, tol=1e-12, verdict=_weak_strong_verdict),
    "spectral_weak": _Check(_check_spectral_weak, _POLICY_BRACKETS, tol=1e-12, outer=True),
    "weak_product": _Check(_check_weak_product, _POLICY_BRACKETS, tol=1e-12, outer=True),
    "strong_product": _Check(_check_strong_product, _POLICY_BRACKETS),
    "alt_upper": _Check(_check_alt_upper, _POLICY_BRACKETS),
    "alt_bb": _Check(_check_alt_bb, _POLICY_M_LHS),
    "shrinking": _Check(_check_shrinking, _POLICY_BRACKETS, tol=1e-9),
    "poly_ww": _Check(_check_poly_ww, _POLICY_BRACKETS),
    "intermediate_F_ptwise": _Check(_check_intermediate_F_ptwise, _POLICY_BRACKETS),
    "intermediate_F_integral": _Check(_check_intermediate_F_integral, _POLICY_BRACKETS),
    "general_rbb": _Check(_check_general_rbb, _POLICY_M_RHS),
    "hilbert_cauchy": _Check(_check_hilbert_cauchy, _POLICY_EXACT, tol=1e-9),
}


def available_checks() -> list:
    return sorted(_REGISTRY)


def _lookup(name: str) -> _Check:
    if name not in _REGISTRY:
        raise KeyError(f"unknown check {name!r}; available: {', '.join(available_checks())}")
    return _REGISTRY[name]


def check_parameters(name: str) -> tuple:
    """The scenario names the check ``name`` reads: its declared parameters."""
    return tuple(check_defaults(name))


def check_defaults(name: str) -> dict:
    """Each parameter the check ``name`` declares, with its default."""
    return {p: v.default for p, v in inspect.signature(_lookup(name).run).parameters.items()}


def run_named_check(name: str, **scenario) -> InequalityCheck:
    """Evaluate a named inequality on a scenario (sensible defaults built in)."""
    check = _lookup(name)
    items = list(check.run(**scenario))
    rows = [r for r in items if not isinstance(r, str)]
    notes = "".join(r for r in items if isinstance(r, str))
    if check.verdict is not None:
        verdict = check.verdict(rows, check.tol)
    elif check.tol is None:
        verdict = all(math.isfinite(r.c_N) for r in rows)
    else:
        verdict = all((r.slack_outer if check.outer else r.slack) >= -check.tol for r in rows)
    c_max = max((r.c_N for r in rows), default=math.inf)
    constant_free = check.tol is not None
    return InequalityCheck(name, rows, c_max, verdict, check.policy, constant_free, check.tol or 0.0, notes)


# -- Hilbert transforms along orbits -----------------------------------------


@dataclass(frozen=True)
class PhaseWeights:
    """Deterministic weights w_n = exp(2 pi i (t_1 n + ... + t_k n^k))."""

    t: tuple

    def sequence(self, N: int) -> np.ndarray:
        n = np.arange(1, N + 1, dtype=np.float64)
        phase = np.zeros(N, dtype=np.float64)
        power = np.ones(N, dtype=np.float64)
        for tm in self.t:
            power = power * n
            phase += tm * power
        return np.exp(2j * np.pi * phase)


@dataclass(frozen=True)
class ReturnTimesWeights:
    """Weights w_n = prod_k g_k(S^{b_k n} y) sampled along a companion orbit."""

    system_y: FiniteSystem
    y_point: int
    g_list: tuple
    steps: tuple

    def sequence(self, N: int) -> np.ndarray:
        if not 0 <= self.y_point < self.system_y.size:
            raise ValueError("companion point out of range")
        if len(self.g_list) != len(self.steps):
            raise ValueError("need one companion observable per step")
        if any(len(g) != self.system_y.size for g in self.g_list):
            raise ValueError("companion size does not match system")
        factors = [(g.values, b) for g, b in zip(self.g_list, self.steps)]
        return self.system_y.orbit_product(factors, self.y_point, np.arange(1, N + 1))


@dataclass
class HilbertSums:
    """Partial sums S_N = sum_{n<=N} w_n prod_j f_j(T^{a_j n} x) / n^sigma."""

    sigma: float
    entries: list  # (N, complex value)

    @property
    def values(self) -> np.ndarray:
        return np.array([e[1] for e in self.entries], dtype=np.complex128)

    @property
    def final(self) -> complex:
        return self.entries[-1][1]


def hilbert_partial_sums(
    system: FiniteSystem,
    x_point: int,
    functions,
    exponents: ExponentVector,
    sigma: float,
    N_max: int,
    weights=None,
    budget=None,
) -> HilbertSums:
    """All partial sums of the weighted one-sided transform at a base point.

    ``weights`` is None for unit weights, a :class:`PhaseWeights` for a
    polynomial modulation, or a :class:`ReturnTimesWeights` for companion
    sampling.  Unit companion observables reproduce the unweighted sums bit
    for bit, since the weight array is exactly ones.
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")
    if not 0 <= x_point < system.size:
        raise ValueError("base point out of range")
    if len(functions) != len(exponents):
        raise ValueError("need one observable per exponent")
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    check_budget(float(N_max) * (system.size + 2), budget, "hilbert_partial_sums")
    scalars = _orbit_scalars(system, functions, exponents, x_point, N_max)
    if weights is None:
        w = np.ones(N_max, dtype=np.complex128)
    else:
        w = weights.sequence(N_max)
    terms = w * scalars / np.arange(1.0, N_max + 1) ** sigma
    sums = np.cumsum(terms)
    return HilbertSums(sigma, [(int(i + 1), complex(sums[i])) for i in range(N_max)])


@dataclass
class HilbertVerdict:
    """Finite-window convergence reading for the weighted transform.

    ``accept`` combines two rate-aware conditions on the averages A_N: the
    weighted tail sums must decay geometrically across octaves (or vanish
    outright), and the rescaled sequence N^(1-sigma) A_N must have shrinking
    oscillation.  Plain epsilon thresholds cannot see convergence of a slow
    p-series in any window of practical size, so rates stand in for limits;
    the thresholds used are recorded in ``detail``.
    """

    sigma: float
    tail_sum: float
    scaled_window: list  # (N, N^(1-sigma) A_N) over the window
    cauchy_sup: float
    accept: bool
    detail: str = ""


_TAIL_RATIO_MAX = 0.97  # largest octave-to-octave ratio of the tail sums that counts as decay
_OSC_CONTRACTION = 0.5  # factor by which the scaled oscillation must shrink from head to last octave
_HILBERT_ATOL = 1e-6  # a last octave sum or oscillation at most this counts as vanished


def hilbert_criterion(averages, sigma: float, window=None) -> HilbertVerdict:
    """Decide convergence of sum a_n / n^sigma from the averages A_N.

    ``averages`` must cover every length 1..L (values |A_N|, nonnegative), so
    the underlying sequence can be reconstructed exactly via
    a_n = n A_n - (n - 1) A_{n-1}.  The window needs at least 16 points and
    three doublings.  The tail sums decay when their octave ratio is at most
    _TAIL_RATIO_MAX, the oscillation shrinks when its last octave is at most
    _OSC_CONTRACTION times the head's, and either reading passes below
    _HILBERT_ATOL.
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")
    entries = _entries_of(averages)
    L = len(entries)
    if [N for N, _ in entries] != list(range(1, L + 1)):
        raise ValueError("averages must cover every length 1..L")
    A = np.array([v for _, v in entries], dtype=np.float64)
    if np.any(A < 0):
        raise ValueError("averages must be nonnegative")
    lo, hi = window if window is not None else (1, L)
    if not 1 <= lo < hi <= L:
        raise ValueError("window must lie inside the covered lengths")
    if hi - lo + 1 < 16:
        raise ValueError("window must contain at least 16 points")
    if hi < 8 * lo:
        raise ValueError("window must span at least three doublings")

    n = np.arange(1, L + 1, dtype=np.float64)
    a = n * A - np.concatenate(([0.0], (n[:-1]) * A[:-1]))
    S = np.cumsum(a / n**sigma)
    seg = S[lo - 1 : hi]
    cauchy_sup = float(seg.max() - seg.min())

    # dyadic blocks anchored at the top of the window, so every later block
    # is a genuine halving and the leading transient stays in the early ones
    blocks = []
    end = hi
    while end >= lo:
        start = max(lo, end // 2 + 1)
        blocks.append((start, end))
        end = start - 1
    blocks.reverse()
    term = A / n**sigma
    s = [fsum(term[b0 - 1 : b1].tolist()) for b0, b1 in blocks]
    mid = len(s) // 2
    if s[-1] <= 0.0:
        r_hat = 0.0
    elif s[mid] <= 0.0:
        r_hat = 1.0
    else:
        r_hat = (s[-1] / s[mid]) ** (1.0 / (len(s) - 1 - mid))
    cond_tail = s[-1] <= _HILBERT_ATOL or r_hat <= _TAIL_RATIO_MAX

    v = n ** (1.0 - sigma) * A
    osc = [float(v[b0 - 1 : b1].max() - v[b0 - 1 : b1].min()) for b0, b1 in blocks]
    osc_head = max(osc[: max(1, len(osc) // 2)])
    cond_osc = osc[-1] <= max(_HILBERT_ATOL, _OSC_CONTRACTION * osc_head)

    window_tail = fsum(term[lo - 1 : hi].tolist())
    if r_hat < 1.0:
        tail_sum = window_tail + s[-1] * r_hat / (1.0 - r_hat)
    else:
        tail_sum = math.inf
    scaled = [(int(N), float(v[N - 1])) for N in range(lo, hi + 1)]
    detail = (
        f"octave sums {['%.3g' % x for x in s]} tail ratio {r_hat:.4f} (max {_TAIL_RATIO_MAX}); "
        f"scaled oscillation head {osc_head:.3g} last {osc[-1]:.3g} "
        f"(contraction {_OSC_CONTRACTION}, floor {_HILBERT_ATOL:g})"
    )
    return HilbertVerdict(sigma, tail_sum, scaled, cauchy_sup, bool(cond_tail and cond_osc), detail)
