"""Certified brackets for suprema of modulated averages over phases.

All three operations share one scheme: evaluate the target on a uniform
phase grid anchored at t = 0 (the grid maximum is a rigorous lower bound,
since the supremum is over a superset), then convert the grid maximum into
a rigorous upper bound.

Grid evaluation
---------------
Modulated averages are read on the K = oversample * N point grid t = j / K
without a K-point transform.  Writing j = m * oversample + r, the value at
t is entry m of the N-point inverse DFT of the twisted row
u_n e^{2 pi i n r / K}, whose 1/N normalisation is already the average; so
each offset r costs one N-point transform and no zero padding.  One
kernel, ``_grid_sup_rows``, does this for batches of rows in blocks that
stay in cache, keeping per row the grid maximum and its first index in
grid order; every strong average, the degree-2 polynomial phase search
(one row per t_2 grid value) and the recurrence suprema go through it.

Coarse to fine: the kernel transforms the even offsets r = 0, 2, 4, ... of
every row, then an odd offset only where a certified bound lets one of its
points reach the maximum v found so far.  An odd grid point t lies midway
between two even ones at distance 1/K: (m, r - 1) and (m, r + 1), or
(m, O - 2) and (m + 1 mod N, 0) for r = O - 1 with O = oversample even.
Let p be the row's average as a function of t, and p~ it recentred to
degree n_c = N // 2 (|p~| = |p|).  For the real polynomial
q = Re(alpha p~) with alpha aligning the phase at t, the midpoint
interpolation remainder (h^2 / 8) sup |q''| with h = 2 / K and Bernstein's
inequality sup |q''| <= (2 pi n_c)^2 sup |p| give

    |p(t)|  <=  (|p(t - 1/K)| + |p(t + 1/K)|) / 2  +  beta * S,
    beta = 2 pi^2 n_c^2 / K^2  <=  pi^2 / (2 O^2),

where S = min(v sec(2 pi n_c / K), triangle cap) bounds sup |p|, since
every t is within 1/K of an even point.  An odd offset is transformed only
if some m on it has |p_L| + |p_R| >= 2 (v - beta S - 1e-9 cap); the margin
covers the rounding of the transforms (Higham, Accuracy and Stability of
Numerical Algorithms, sec. 24.1: a few units of log2(N) * eps * sqrt(N) *
cap per entry) many times over.  Every point left out lies strictly below
the maximum, and every value compared is the one the full grid computes
(same twist, same N-point transform), so the maximum and its first grid
index are those of the full grid, bit for bit.  At oversample 16 a random
row needs about 1.8 of its 8 odd offsets.

Upper bound certificates
------------------------
For an exponential sum g with integer frequencies, write n_c for the
centered degree (half the frequency spread, since a unimodular modulation
recenters the frequencies without changing |g|).  If psi is a real
trigonometric polynomial of degree n with sup-norm M attained at t*, then
psi(t* + d) >= M cos(2 pi n d) for |d| <= 1/(2n); applying this to
Re(alpha g) with alpha aligning the phase at the argmax gives

    sup |g|  <=  (grid max of |g|) / cos(pi n_c / K)

for a K-point grid with K > 2 n_c.  Two cheaper bounds are intersected
with it: a first-order step bound (grid max plus derivative bound times
half spacing) and the triangle-inequality cap (mean absolute coefficient),
so flat inputs get zero-width brackets.  At the default 16x oversampling
the secant factor is below 1.005, i.e. bracket widths under half a percent.

Multi-phase suprema iterate the same argument one coordinate at a time, so
the certified factor is a product of per-coordinate secants (degree k <= 2;
higher degrees return flagged lower bounds only).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import _Memo, check_budget, fsum_complex

_MAX_CERTIFIED_DEGREE = 2
_MIN_OVERSAMPLE = 4
_GRID_BLOCK = 1 << 15  # complex entries per transform block (512 KiB)
_POLY_CHUNK = 1 << 18  # complex entries per chunk of twisted rows in sup_polyphase
_TWIST_BYTES = 8 << 20  # capacity of the twist-table cache

_twists = _Memo(_TWIST_BYTES)


@dataclass(frozen=True)
class Bracket:
    """Two-sided enclosure of a supremum, with the grid argmax as a hint."""

    lower: float
    upper: float
    argmax_hint: tuple
    certified: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("bracket endpoints must be finite")
        if self.upper < self.lower - 1e-15 * max(1.0, abs(self.lower)):
            raise ValueError(f"inverted bracket [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def rel_width(self) -> float:
        return self.width / max(abs(self.lower), 1e-300)

    def map_monotone(self, fn) -> "Bracket":
        """Apply a nondecreasing function to both endpoints."""
        return Bracket(float(fn(self.lower)), float(fn(self.upper)), self.argmax_hint, self.certified)

    @staticmethod
    def exact(value: float, hint: tuple = ()) -> "Bracket":
        return Bracket(float(value), float(value), hint)


@dataclass(frozen=True)
class PhaseSpec:
    """Polynomial phase t_1 n + t_2 n^2 + ... + t_k n^k.

    ``fixed`` pins the coefficient vector for single-point evaluation;
    leaving it None means the supremum over all coefficients is requested.
    """

    degree: int
    fixed: tuple | None = None

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("phase degree must be >= 0")
        if self.fixed is not None:
            fixed = tuple(float(t) for t in self.fixed)
            if len(fixed) != self.degree:
                raise ValueError("fixed coefficients must match the phase degree")
            object.__setattr__(self, "fixed", fixed)


def _validate_oversample(oversample: int) -> int:
    oversample = int(oversample)
    if oversample < _MIN_OVERSAMPLE:
        raise ValueError(f"oversample must be >= {_MIN_OVERSAMPLE} (got {oversample})")
    return oversample


def _secant(degree: int, grid: int) -> float:
    if degree == 0:
        return 1.0
    x = math.pi * degree / grid
    if x >= math.pi / 2:
        raise ValueError("grid too coarse for the secant certificate")
    return 1.0 / math.cos(x)


def modulated_mean(u, coefficients) -> complex:
    """(1/N) sum_{n=1..N} u_n exp(2 pi i (t_1 n + ... + t_k n^k)), exactly."""
    u = np.asarray(u, dtype=np.complex128)
    N = u.size
    if N == 0:
        raise ValueError("empty sequence")
    n = np.arange(1, N + 1, dtype=float)
    phase = np.zeros(N)
    for j, t in enumerate(coefficients, start=1):
        phase = phase + float(t) * n**j
    terms = u * np.exp(2j * np.pi * phase)
    return fsum_complex(terms.tolist()) / N


# -- grid kernels ------------------------------------------------------------


def _twist_table(N: int, oversample: int):
    """Read-only n = 1..N and the twists e^{2 pi i n r / K}, r < oversample.

    Kept in a least-recently-used table capped at _TWIST_BYTES: for a single
    short row the table costs about as much as the transforms.
    """
    key = (N, oversample)
    hit = _twists.get(key)
    if hit is None:
        K = oversample * N
        n = np.arange(1, N + 1)
        twist = np.exp((2j * math.pi / K) * (np.arange(oversample)[:, None] * n % K))
        n.flags.writeable = False
        twist.flags.writeable = False
        hit = (n, twist)
        _twists.put(key, hit, n.nbytes + twist.nbytes)
    return hit


def _grid_sup_rows(U: np.ndarray, oversample: int):
    """Shared kernel: per-row bracket data for sup_t |(1/N) sum u_n e^{2 pi i n t}|.

    U has shape (rows, N) with the sequence index n = 1..N along axis 1.
    Returns (lower, upper, argmax_t) arrays of shape (rows,): the maximum
    over the grid t = j / K, K = oversample * N, the certified upper bound,
    and t at the first j that reaches the maximum.

    Grid point j = m * oversample + r is entry m of the N-point inverse DFT
    of u_n e^{2 pi i n r / K} placed at position n - 1 (the placement only
    multiplies the entry by e^{-2 pi i m / N}, which leaves its modulus
    alone), and the 1/N of the inverse transform is the average itself.
    Every row goes through the even offsets r; an odd offset is transformed
    only where the midpoint certificate (module docstring) lets one of its
    points reach the row's maximum, and every other odd point lies strictly
    below it, so the outputs are those of the full grid.  Transforms go in
    blocks of about _GRID_BLOCK entries, from U made C-contiguous, so a
    row's results do not depend on the batch it arrives in.  A block's
    moduli at the even offsets are kept until its odd offsets are screened:
    for rows longer than _GRID_BLOCK / ceil(O / 2) that is about
    8 (O + 1) N bytes of scratch.
    """
    U = np.ascontiguousarray(U, dtype=np.complex128)  # rows are gathered again below
    rows, N = U.shape
    K = oversample * N
    n, twist = _twist_table(N, oversample)
    even = twist[0::2]
    ne = even.shape[0]
    if ne * N <= _GRID_BLOCK:
        row_block, e_block = _GRID_BLOCK // (ne * N), ne
    else:
        row_block, e_block = 1, max(1, _GRID_BLOCK // N)
    row_block = min(row_block, rows)
    pair_block = max(1, _GRID_BLOCK // N)
    buf = np.empty(max(row_block * e_block, min(pair_block, rows * ne)) * N, dtype=np.complex128)
    # |.| at the even offsets of a row block, then a row holding the
    # neighbours (m + 1 mod N, 0) of (m, O - 2); and sums of adjacent rows
    ext = np.empty(max(row_block * (ne + 1), min(pair_block, rows * ne)) * N)
    sums = np.empty(row_block * ne * N)
    # per row and offset r: the maximum over m and its first m (odd offsets
    # left untransformed keep -1)
    cand_v = np.full((rows, oversample), -1.0)
    cand_m = np.zeros((rows, oversample), dtype=np.intp)
    pair_max = np.empty((rows, ne))  # column c: max over m of the sums at odd offset 2c + 1
    # (row, column) index grids; a max over m is read at its argmax, which is
    # cheaper than a second reduction when N is small
    at_row, at_col = np.arange(row_block)[:, None], np.arange(ne)
    deriv = np.empty(rows)
    cap = np.empty(rows)
    for s in range(0, rows, row_block):
        V = U[s : s + row_block]
        b = V.shape[0]
        E = ext[: b * (ne + 1) * N].reshape(b, ne + 1, N)
        for e0 in range(0, ne, e_block):
            nr = min(e_block, ne - e0)
            X = buf[: b * nr * N].reshape(b, nr, N)
            np.multiply(V[:, None, :], even[None, e0 : e0 + nr], out=X)
            np.fft.ifft(X, axis=2, out=X)
            np.abs(X, out=E[:, e0 : e0 + nr])
        if oversample % 2 == 0:  # (m, O - 1) lies between (m, O - 2) and (m + 1 mod N, 0)
            E[:, ne, :-1] = E[:, 0, 1:]
            E[:, ne, -1] = E[:, 0, 0]
        else:  # O - 1 is even: no odd offset wraps
            E[:, ne] = -np.inf
        m = E.argmax(axis=2)[:, :ne]  # over all of E: argmax copies a non-contiguous slice
        cand_m[s : s + b, 0::2] = m
        cand_v[s : s + b, 0::2] = E[at_row[:b], at_col, m]
        S = np.add(E[:, :-1], E[:, 1:], out=sums[: b * ne * N].reshape(b, ne, N))
        pair_max[s : s + b] = S[at_row[:b], at_col, S.argmax(axis=2)]
        absV = np.abs(V)
        deriv[s : s + b] = (absV * n).sum(axis=1)
        cap[s : s + b] = absV.sum(axis=1)
    deriv *= 2.0 * math.pi / N
    cap /= N
    # an odd point can reach the maximum only if its neighbours' mean plus
    # the midpoint remainder does; the margin covers transform rounding
    lower = cand_v[:, 0::2].max(axis=1)
    n_c = N // 2
    beta = 2.0 * (math.pi * n_c / K) ** 2
    s_up = np.minimum(lower * _secant(2 * n_c, K), cap)
    floor = 2.0 * (lower - beta * s_up - 1e-9 * cap)
    pair_row, pair_col = np.nonzero(pair_max >= floor[:, None])
    if pair_row.size:
        pair_r = 2 * pair_col + 1
        tw = np.empty(min(pair_block, pair_row.size) * N, dtype=np.complex128)
        for p0 in range(0, pair_row.size, pair_block):
            row, r = pair_row[p0 : p0 + pair_block], pair_r[p0 : p0 + pair_block]
            X = buf[: row.size * N].reshape(row.size, N)
            T = tw[: X.size].reshape(X.shape)
            # gathered in place: mode="raise" would buffer the output
            np.take(U, row, axis=0, out=X, mode="clip")
            np.take(twist, r, axis=0, out=T, mode="clip")
            np.multiply(X, T, out=X)
            np.fft.ifft(X, axis=1, out=X)
            vals = np.abs(X, out=ext[: X.size].reshape(X.shape))
            cand_v[row, r] = vals.max(axis=1)
            cand_m[row, r] = vals.argmax(axis=1)
    # the largest value wins, then the first grid index j = m * oversample + r
    lower = cand_v.max(axis=1)
    cand_m *= oversample
    cand_m += np.arange(oversample)
    best_j = np.where(cand_v == lower[:, None], cand_m, K).min(axis=1)
    upper = np.minimum(np.minimum(lower * _secant(N // 2, K), lower + deriv / (2 * K)), cap)
    upper = np.maximum(upper, lower)  # guard against rounding inversions
    return lower, upper, best_j / K


def sup_modulated_average(u, oversample: int = 16, budget: float | None = None) -> Bracket:
    """Bracket for sup over t of |(1/N) sum_{n=1..N} u_n e^{2 pi i n t}|."""
    oversample = _validate_oversample(oversample)
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("sequence must be a nonempty 1-d array")
    K = oversample * u.size
    check_budget(K * max(1.0, math.log2(K)), budget, "sup_modulated_average")
    lower, upper, arg = _grid_sup_rows(u[None, :], oversample)
    return Bracket(float(lower[0]), float(upper[0]), (float(arg[0]),))


def sup_norm_trig(coefficients, oversample: int = 16, budget: float | None = None) -> Bracket:
    """Bracket for the supremum of a real trigonometric polynomial.

    ``coefficients`` is an odd-length array c_{-D}..c_D (frequency d at index
    d + D) and must be Hermitian, so the polynomial q(t) = sum c_d e^{2 pi i d t}
    is real-valued.  The upper bound certifies sup q through the sup-norm:
    sup q <= ||q||_inf <= (grid max of |q|) * sec(pi D / K).
    """
    oversample = _validate_oversample(oversample)
    c = np.asarray(coefficients, dtype=np.complex128)
    if c.ndim != 1 or c.size % 2 != 1:
        raise ValueError("coefficients must be a 1-d array of odd length")
    D = c.size // 2
    herm = c[::-1].conj()
    scale = max(1.0, float(np.max(np.abs(c))))
    if np.max(np.abs(c - herm)) > 1e-10 * scale:
        raise ValueError("coefficients are not Hermitian; polynomial would not be real")
    K = oversample * c.size
    check_budget(K * max(1.0, math.log2(K)), budget, "sup_norm_trig")
    # q(t_j) = Re(b_0 + sum_{d>=1} b_d e^{2 pi i d j / K}) with b_d = 2 c_d
    b = np.zeros(K, dtype=np.complex128)
    b[0] = c[D].real
    b[1 : D + 1] = 2.0 * c[D + 1 :]
    vals = (np.fft.ifft(b) * K).real
    j = int(np.argmax(vals))
    lower = float(vals[j])
    grid_abs = float(np.max(np.abs(vals)))
    d_idx = np.abs(np.arange(-D, D + 1))
    deriv = 2.0 * math.pi * float((d_idx * np.abs(c)).sum())
    cap = float(np.abs(c).sum())
    upper = min(grid_abs * _secant(D, K), lower + deriv / (2 * K), cap)
    upper = max(upper, lower)
    return Bracket(lower, upper, (j / K,))


def sup_polyphase(u, degree: int, oversample: int = 16, budget: float | None = None) -> Bracket:
    """Bracket for sup over (t_1..t_k) of |(1/N) sum u_n e^{2 pi i p(n)}|
    with p(n) = t_1 n + ... + t_k n^k.

    Degrees 0..2 are certified; higher degrees return a flagged lower bound
    whose upper endpoint is the triangle-inequality cap.
    """
    oversample = _validate_oversample(oversample)
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("sequence must be a nonempty 1-d array")
    N = u.size
    if degree < 0:
        raise ValueError("degree must be >= 0")
    cap = float(np.abs(u).sum() / N)
    if degree == 0:
        val = abs(fsum_complex((u / N).tolist()))
        return Bracket(val, val, ())
    if degree == 1:
        lower, upper, arg = _grid_sup_rows(u[None, :], oversample)
        return Bracket(float(lower[0]), float(upper[0]), (float(arg[0]),))
    grids = [oversample * N**j for j in range(1, degree + 1)]
    total = 1.0
    for g in grids:
        total *= g
    check_budget(total * max(1.0, math.log2(grids[0])), budget, "sup_polyphase")
    if degree == 2:
        return _sup_polyphase_2(u, oversample, cap)
    return _sup_polyphase_coarse(u, degree, oversample, cap, budget)


def _sup_polyphase_2(u: np.ndarray, oversample: int, cap: float) -> Bracket:
    N = u.size
    K1, K2 = oversample * N, oversample * N * N
    n = np.arange(1, N + 1)
    lower = np.empty(K2)
    arg = np.empty(K2)
    chunk = max(1, _POLY_CHUNK // N)
    for start in range(0, K2, chunk):
        j2 = np.arange(start, min(start + chunk, K2))
        # rows: u_n twisted by the quadratic phase at each t_2 grid value
        twisted = u[None, :] * np.exp(2j * np.pi * np.outer(j2 / K2, n * n % K2))
        lower[start : start + chunk], _, arg[start : start + chunk] = _grid_sup_rows(twisted, oversample)
    best_j2 = int(np.argmax(lower))
    best = float(lower[best_j2])
    n1c, n2c = N // 2, (N * N) // 2
    sec = _secant(n1c, K1) * _secant(n2c, K2)
    absu = np.abs(u)
    deriv1 = (2.0 * math.pi / N) * float((absu * n).sum())
    deriv2 = (2.0 * math.pi / N) * float((absu * n * n).sum())
    upper = min(best * sec, best + deriv1 / (2 * K1) + deriv2 / (2 * K2), cap)
    upper = max(upper, best)
    return Bracket(best, upper, (float(arg[best_j2]), best_j2 / K2))


def _sup_polyphase_coarse(u: np.ndarray, degree: int, oversample: int, cap: float, budget) -> Bracket:
    """Lower-bound-only search for degree >= 3 (not certified)."""
    N = u.size
    grids = [oversample * N**j for j in range(1, degree + 1)]
    total = 1
    for g in grids:
        total *= g
    check_budget(float(total) * N, budget, "sup_polyphase coarse search")
    n = np.arange(1, N + 1, dtype=float)
    # the outer grids in plain nested order, innermost axis via FFT; the
    # twisted rows go through the kernel in chunks, first maximum kept
    outer_axes = [np.arange(g) / g for g in grids[1:]]
    combos = np.stack([m.ravel() for m in np.meshgrid(*outer_axes, indexing="ij")], axis=1)
    chunk = max(1, _POLY_CHUNK // N)
    best = -1.0
    best_t: tuple = ()
    for start in range(0, combos.shape[0], chunk):
        rows = combos[start : start + chunk]
        phase = np.zeros((rows.shape[0], N))
        for j in range(2, degree + 1):
            phase = phase + rows[:, j - 2, None] * n**j
        lower, _, arg = _grid_sup_rows(u[None, :] * np.exp(2j * np.pi * phase), oversample)
        i = int(np.argmax(lower))
        if float(lower[i]) > best:
            best = float(lower[i])
            best_t = (float(arg[i]), *map(float, rows[i]))
    return Bracket(best, max(cap, best), best_t, certified=False)
