"""Certified brackets for suprema of modulated averages over phases.

Every supremum here is bracketed one way: evaluate the target on a
uniform phase grid anchored at t = 0 (the grid maximum is a rigorous lower
bound, since the supremum is over a superset), then convert the grid
maximum into a rigorous upper bound.

Grid evaluation
---------------
Modulated averages are read on the K = oversample * N point grid t = j / K
without a K-point transform.  Writing j = m * oversample + r, the value at
t is entry m of the N-point inverse DFT of the twisted row
u_n e^{2 pi i n r / K}, whose 1/N normalisation is already the average; so
each offset r costs one N-point transform and no zero padding.  One
kernel, ``_grid_sup_rows``, does this for batches of rows in blocks that
stay in cache, keeping per row the grid maximum and its first index in
grid order; every strong average, the polynomial-phase search below and
the recurrence suprema go through it.

Coarse to fine: the kernel transforms the base offsets r = 0 (mod s), s
the largest power of two <= O / 4 (about a 4N-point grid), and then only
the other offsets a certified bound lets reach the maximum v found so far.
Both bounds below rest on the same facts.  Base entry (m, r) is
e^{-2 pi i m / N} p(t_j), p the row's average as a function of t and
j = m O + r.  p~(t) = e^{-2 pi i c t} p(t) with c = (N + 1) / 2 has
|p~| = |p| and frequencies of modulus at most n_c = N // 2, so for a
target t and q = Re(alpha p~) aligned there (q(t) = |p(t)|), Bernstein's
inequality (p~ is of exponential type 2 pi n_c and bounded on the real
line) gives sup |q^(k)| <= (2 pi n_c)^k S for any S >= sup |p|.  Every t
lies within s / 2K of a base point, so S = min(v sec(pi n_c s / K),
triangle cap) with v the base maximum.

Rows of length _SCREEN_MIN_N or more use a sixth-order bound.  A gap between base points adjacent in grid order
(s steps apart, fewer past the last base offset) has, by linear
interpolation of q, every point at most
max(|b_L|, |b_R|) + (s^2 / 4) beta S with beta = 2 pi^2 n_c^2 / K^2, so
only gaps with an end above v - margin - (s^2 / 4) beta v sec(pi n_c s / K)
are screened further, by the transform block that holds the row's base
offsets, so the screen's scratch stays within a block.  At a point t of such a gap, with t_k the six base
points around it in grid order (on lines m - 1 .. m + 1, unwrapped across
t = 1, where the values repeat), Lagrange interpolation of q gives

    |p(t)|  <=  |sum_k lambda_k p~(t_k)|  +  prod_k |t - t_k| (2 pi n_c)^6 S / 720,

where lambda_k p~(t_k) e^{2 pi i (c t - m / N)}, whose sum over k has the
same modulus, is the base entry at t_k times the factor
lambda_k e^{-2 pi i c (t_k - t)} e^{2 pi i (m_k - m) / N}, which depends
only on the offset of t and the node (``_screen_table``).  An offset
whose bounds are all at most v - margin is left out; the rest are
transformed best first, in rounds of one offset per row, the one with the
largest bound, so every transform raises v before the next screen.

Shorter rows, where a transform costs less than screening its gaps,
refine over dyadic levels instead: for h = s / 2, ..., 1 the offsets r = h
(mod 2h), each only for the rows where the bound lets it reach v.  A point
of offset r lies a = h grid steps right of offset r - h and b = h steps
left of offset r + h, or, when r + h >= O, b = O - r steps left of
(m + 1, 0), and linear interpolation gives

    |p(t)|  <=  (b |p_L| + a |p_R|) / (a + b)  +  a b beta S,

with S = min(v sec(2 pi n_c h / K), triangle cap), since every t lies
within h / K of the spacing-2h offsets, whose points are all at most v
(those left out were certified below it).  Over the neighbour offsets'
maxima in m the bound covers a whole offset, which is transformed for a
row only if the bound reaches v - 1e-9 cap and otherwise keeps it as its
maximum for the next level.  On either path the margin 1e-9 cap covers
transform rounding (Higham, Accuracy and Stability of Numerical
Algorithms, sec. 24.1) many times over; it is 0 only on a zero row, whose
first maximum is the base point j = 0.  Every point left out lies strictly
below the maximum and every value compared is the one the full grid
computes (same twist, same N-point transform), so the outputs are those of
the full grid, bit for bit.

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

Polynomial phases
-----------------
``_polyphase_rows`` searches sup over (t_1..t_d) of |(1/N) sum u_n
e^{2 pi i (t_1 n + ... + t_d n^d)}| for a batch of rows: each point of the
outer grid t_j = m_j / (O N^j), j = 2..d, twists a row by
e^{2 pi i sum_j t_j n^j}, and all twisted rows go through the kernel in
chunks of _POLY_CHUNK entries, each row keeping its first maximum in nested
grid order.  The secant argument holds one coordinate at a time, so degree
2 is certified by the product of the two coordinates' secants (with the
step bound and the cap); degree 3 and above return the grid maximum,
flagged, with the cap as upper endpoint.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._util import _Memo, check_budget, fsum_complex

_MAX_CERTIFIED_DEGREE = 2
_MIN_OVERSAMPLE = 4
_GRID_BLOCK = 1 << 15  # complex entries per transform block (512 KiB)
_SCREEN_MIN_N = 128  # shortest rows refined through the sixth-order screen (measured cut-over)
_POLY_CHUNK = 1 << 18  # complex entries per chunk of twisted rows in _polyphase_rows
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


@functools.lru_cache(maxsize=32)
def _refinement(oversample: int):
    """(order, base, levels): offset order[c] (a column) sits in slot c of
    the kernel's tables, the first ``base`` slots are the base, and level
    (h, slots, source, weights) bounds each new slot by the weighted sum of
    its two neighbours and beta S in slot O (module docstring)."""
    s = 1 << ((oversample // 4).bit_length() - 1)
    order = list(range(0, oversample, s))
    base, levels = len(order), []
    for h in [s >> i for i in range(1, s.bit_length())]:
        new = range(h, oversample, 2 * h)
        source = np.full((3, len(new)), oversample)
        weights = np.empty((3, len(new), 1))
        for i, r in enumerate(new):
            b = min(h, oversample - r)  # past the last offset the right neighbour is (m + 1, 0)
            source[:2, i] = order.index(r - h), order.index(r + h) if r + h < oversample else 0
            weights[:, i, 0] = b / (h + b), h / (h + b), h * b
        source.flags.writeable = weights.flags.writeable = False
        levels.append((h, slice(len(order), len(order) + len(new)), source, weights))
        order += new
    order = np.array(order)[:, None]
    order.flags.writeable = False
    return order, base, tuple(levels)


def _twist_table(N: int, oversample: int):
    """Read-only n = 1..N and the twists e^{2 pi i n r / K}, one row per
    offset r in the kernel's order (``_refinement``).

    Kept in a least-recently-used table capped at _TWIST_BYTES: for a single
    short row the table costs about as much as the transforms.
    """
    key = (N, oversample)
    hit = _twists.get(key)
    if hit is None:
        K = oversample * N
        n = np.arange(1, N + 1)
        twist = np.exp((2j * math.pi / K) * (_refinement(oversample)[0] * n % K))
        n.flags.writeable = False
        twist.flags.writeable = False
        hit = (n, twist)
        _twists.put(key, hit, n.nbytes + twist.nbytes)
    return hit


def _ifft_max(X: np.ndarray):
    """Transform the rows of X in place; their moduli and, per row, the largest and its first index."""
    A = np.abs(np.fft.ifft(X, axis=1, out=X))
    m = A.argmax(axis=1)
    return A, A[np.arange(m.size), m], m  # read at the argmax: cheaper than a second reduction on short rows


@functools.lru_cache(maxsize=32)
def _screen_table(N: int, oversample: int):
    """(slots, weights, rem, sec, lin) of the sixth-order screen (module docstring).

    Row i describes the gap right of base slot i: ``slots[i]`` holds the
    slots of its offsets (slot O pads short gaps), ``weights[i, a]`` the
    factors of its six nodes, base points i - 2 .. i + 3 in grid order, at
    its a-th offset, and ``rem[i, a]`` the remainder there over S.  S is
    min(v sec, cap) for base maximum v, and lin S bounds a gap's linear
    remainder.
    """
    order, nb, _ = _refinement(oversample)
    base = order[:nb, 0]
    gaps = np.diff(base, append=oversample)
    K, n_c = oversample * N, N // 2
    g = np.arange(nb)[:, None] + np.arange(-2, 4)
    shift = g // nb  # nodes on lines m - 1 and m + 1; across t = 1 the values wrap
    pos = shift * oversample + base[g % nb]
    slot_of = np.argsort(order[:, 0])
    slots = np.full((nb, gaps.max() - 1), oversample)
    weights = np.zeros(slots.shape + (6,), dtype=np.complex128)
    rem = np.zeros(slots.shape)
    for i in range(nb):
        for a, r in enumerate(range(base[i] + 1, base[i] + gaps[i])):
            d = pos[i] - r  # target to node, in grid steps
            lagrange = [np.prod(-np.delete(d, k) / (d[k] - np.delete(d, k))) for k in range(6)]
            weights[i, a] = lagrange * np.exp((2j * math.pi / K) * (shift[i] * oversample - (N + 1) / 2 * d))
            rem[i, a] = np.prod(np.abs(d) * (2 * math.pi * n_c / K)) / 720
            slots[i, a] = slot_of[r]
    for a in (slots, weights, rem):
        a.flags.writeable = False
    s = base[1]
    return slots, weights, rem, _secant(n_c * s, K), s * s / 4 * 2.0 * (math.pi * n_c / K) ** 2


def _gap_nodes(F: np.ndarray, p: np.ndarray):
    """Base values at grid-order neighbours -3 .. 3 of base points p.

    F holds base transforms, shape (base slots, rows, N), and p indexes it
    flat.  Returns the values, shape (points, 7), and each point's slot and
    row: columns 1..6 are the nodes of the gap right of the point, columns
    0..5 those of the gap left of it.
    """
    nb, rows, N = F.shape
    i, rm = np.divmod(p, rows * N)
    m = rm % N
    q, slot = np.divmod(i[:, None] + np.arange(-3, 4), nb)
    return F.reshape(-1)[slot * (rows * N) + (rm - m)[:, None] + (m[:, None] + q) % N], i, rm // N


def _gap_bounds(nodes: np.ndarray, i: np.ndarray, S: np.ndarray, table):
    """Sixth-order bounds at the offsets of gaps right of base slots i, from
    their six nodes and S >= sup |p| per gap (shape (gaps, 1)); one row of
    ``table``'s slots per gap."""
    _, weights, rem, *_ = table
    bounds = np.empty((i.size, weights.shape[1]))
    for kind, (w, r) in enumerate(zip(weights, rem)):  # gathering weights[i] takes 96 bytes a gap and offset
        at = i == kind
        bounds[at] = np.abs(np.einsum("gk,ak->ga", nodes[at], w)) + r * S[at]
    return bounds


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
    Every row goes through the base offsets; rows of length _SCREEN_MIN_N
    or more then transform, best first, the (row, offset) pairs the
    sixth-order screen cannot rule out, and shorter rows refine over
    dyadic levels (module docstring), so the outputs
    are those of the full grid.  Transforms go in blocks of about
    _GRID_BLOCK entries, each holding all base offsets of its rows, from U
    made C-contiguous, so a row's results do not depend on the batch it
    arrives in.
    """
    U = np.ascontiguousarray(U, dtype=np.complex128)  # rows are gathered again below
    rows, N = U.shape
    K = oversample * N
    n, twist = _twist_table(N, oversample)
    order, nb, levels = _refinement(oversample)
    screen = _screen_table(N, oversample) if rows and N >= _SCREEN_MIN_N else None
    pair_block = max(1, _GRID_BLOCK // N)
    row_block = max(1, pair_block // nb)
    n_c = N // 2
    beta = 2.0 * (math.pi * n_c / K) ** 2
    if screen:
        slots, _, _, sec_s, lin = screen
        floor_ratio = 1.0 - lin * sec_s  # v less the linear remainder of a gap, over v
        pending = np.full((oversample + 1) * rows, -np.inf)  # per slot and row: the largest bound not yet transformed
        found, held = [], 0
    # per slot c (offset order[c]) and row: the maximum over m and its first
    # m, or for an offset left out the bound that excluded it (dyadic
    # levels) or -inf (screen); slot O holds beta S for the level being
    # screened
    cand_v = np.zeros((oversample + 1, rows))
    cand_m = np.zeros((oversample, rows), dtype=np.intp)
    deriv, cap = np.empty(rows), np.empty(rows)
    for start in range(0, rows, row_block):
        blk = slice(start, start + row_block)
        V = U[blk]
        absV = np.abs(V)
        deriv[blk] = np.add.reduce(absV * n, axis=1)
        cap[blk] = np.add.reduce(absV, axis=1)
        cap[blk] /= N
        F = V * twist[:nb, None, :]  # u first: the bits depend on it
        A, v, m = _ifft_max(F.reshape(-1, N))
        cand_v[:nb, blk] = v.reshape(nb, -1)
        cand_m[:nb, blk] = m.reshape(nb, -1)
        if screen:
            # the gaps next to base points above the floor keep the nodes of
            # their sixth-order bounds; every other gap is certified
            v = np.maximum.reduce(cand_v[:nb, blk], axis=0)  # the block holds all base offsets of its rows
            floor = v * floor_ratio - 1e-9 * cap[blk]
            A = A.reshape(-1)
            p = (A > floor.min()).nonzero()[0]  # a scalar floor first: a broadcast one costs 4 times more
            nodes, i, row = _gap_nodes(F, p[A[p] > floor[p // N % len(floor)]])
            found.append((nodes, i, row + start, np.minimum(v * sec_s, cap[blk])[row]))
            held += nodes.size
            if held >= _GRID_BLOCK or start + row_block >= rows:
                # bounded once the kept nodes fill a block, not per block,
                # whose few gaps (about 33 on a strong-avg chunk) cost less
                # than the calls that bound them
                nodes, i, row, S = (np.concatenate(a) for a in zip(*found))
                for gap, cols in ((i, slice(1, 7)), ((i - 1) % nb, slice(0, 6))):
                    at = slots[gap] * rows + row[:, None]  # flat: ufunc.at is 10 times slower on an index tuple
                    np.maximum.at(pending, at.ravel(), _gap_bounds(nodes[:, cols], gap, S[:, None], screen).ravel())
                found, held = [], 0
        del F, A  # before the next block allocates its own
    deriv *= 2.0 * math.pi / N
    lower = np.maximum.reduce(cand_v[:nb], axis=0)
    margin = 1e-9 * cap  # covers transform rounding (module docstring)
    if screen:
        pending = pending.reshape(oversample + 1, rows)
        cand_v[nb:] = -np.inf  # offsets left out stay below every maximum
        # best first: each row's largest bound, then the rest against the raised maximum
        live = np.arange(rows)
        while live.size:
            c = pending[:oversample, live].argmax(axis=0)
            keep = pending[c, live] > lower[live] - margin[live]
            live, c = live[keep], c[keep]
            for p0 in range(0, live.size, pair_block):
                row, slot = live[p0 : p0 + pair_block], c[p0 : p0 + pair_block]
                X = U.take(row, axis=0)
                X *= twist.take(slot, axis=0)
                v, cand_m[slot, row] = _ifft_max(X)[1:]  # drops the moduli at once
                cand_v[slot, row] = v
                lower[row] = np.maximum(lower[row], v)
            pending[c, live] = -np.inf
    else:
        beta_cap = beta * cap
        for h, slots, source, weights in levels:
            np.minimum(lower * (beta * _secant(2 * n_c * h, K)), beta_cap, out=cand_v[oversample])
            level_v, level_m, level_twist = cand_v[slots], cand_m[slots], twist[slots]
            terms = cand_v.take(source, axis=0)  # each new slot's two neighbours and beta S
            terms *= weights
            np.add.reduce(terms, axis=0, out=level_v)
            del terms  # before the transforms allocate theirs
            pair_c, pair_row = (level_v >= lower - margin).nonzero()
            for p0 in range(0, pair_row.size, pair_block):
                c, row = pair_c[p0 : p0 + pair_block], pair_row[p0 : p0 + pair_block]
                X = U.take(row, axis=0)
                X *= level_twist.take(c, axis=0)
                v, level_m[c, row] = _ifft_max(X)[1:]
                level_v[c, row] = v
                np.maximum.at(lower, row, v)
    # the largest value wins, then the first grid index j = m * oversample + r
    first = cand_v[:oversample] == lower
    best_j = np.minimum.reduce(cand_m * oversample + order, axis=0, where=first, initial=K)
    upper = np.minimum(np.minimum(lower * _secant(N // 2, K), lower + deriv / (2 * K)), cap)
    upper = np.maximum(upper, lower)  # guard against rounding inversions
    return lower, upper, best_j / K


def sup_modulated_average(u, oversample: int = 16, budget: float | None = None) -> Bracket:
    """Bracket for sup over t of |(1/N) sum_{n=1..N} u_n e^{2 pi i n t}|."""
    return sup_polyphase(u, 1, oversample, budget)


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
    if degree == 0:
        val = abs(fsum_complex((u / N).tolist()))
        return Bracket(val, val, ())
    # log2 K_1 per grid point for the transforms, or N for the phase terms
    # of an uncertified search where that is more
    total = float(math.prod(oversample * N**j for j in range(1, degree + 1)))
    uncertified = degree > _MAX_CERTIFIED_DEGREE
    check_budget(total * max(1.0, math.log2(oversample * N), N if uncertified else 1), budget, "sup_polyphase")
    lower, upper, hint = _polyphase_rows(u[None, :], degree, oversample)
    return Bracket(float(lower[0]), float(upper[0]), tuple(map(float, hint[0])), not uncertified)


def _polyphase_rows(U: np.ndarray, degree: int, oversample: int):
    """(grid maxima, upper bounds, first maximising (t_1..t_d) in nested order)
    of the polynomial-phase suprema of the rows of U, shape (rows, N); the
    last has shape (rows, degree).  Degree 1 is ``_grid_sup_rows``."""
    if degree == 1:
        lower, upper, arg = _grid_sup_rows(U, oversample)
        return lower, upper, arg[:, None]
    rows, N = U.shape
    grids = [oversample * N**j for j in range(2, degree + 1)]
    G = math.prod(grids)
    n = np.arange(1, N + 1, dtype=float)
    lower = np.full(rows, -1.0)
    hint = np.empty((rows, degree))
    chunk = max(1, _POLY_CHUNK // N)
    for start in range(0, rows * G, chunk):
        row, m = np.divmod(np.arange(start, min(start + chunk, rows * G)), G)
        outer = [mj / g for mj, g in zip(np.unravel_index(m, grids), grids)]
        phase = np.zeros((row.size, N))
        for j, t in enumerate(outer, start=2):
            phase = phase + t[:, None] * n**j
        low, _, arg = _grid_sup_rows(U[row] * np.exp(2j * np.pi * phase), oversample)  # u first: the bits depend on it
        # the chunk holds consecutive rows; each keeps its first maximum in
        # the chunk if that beats the earlier chunks'
        starts = np.r_[0, np.diff(row).nonzero()[0] + 1]
        top = np.maximum.reduceat(low, starts)[row - row[0]]
        first = np.minimum.reduceat(np.where(low == top, np.arange(row.size), row.size), starts)
        first = first[low[first] > lower[row[first]]]
        lower[row[first]] = low[first]
        hint[row[first]] = np.column_stack([arg[first]] + [t[first] for t in outer])
    absU = np.abs(U)
    cap = absU.sum(axis=1) / N
    if degree > _MAX_CERTIFIED_DEGREE:
        return lower, np.maximum(cap, lower), hint
    K1, K2 = oversample * N, grids[0]
    sec = _secant(N // 2, K1) * _secant((N * N) // 2, K2)
    deriv1 = (2.0 * math.pi / N) * (absU * n).sum(axis=1)
    deriv2 = (2.0 * math.pi / N) * (absU * n * n).sum(axis=1)
    upper = np.minimum(np.minimum(lower * sec, lower + deriv1 / (2 * K1) + deriv2 / (2 * K2)), cap)
    return lower, np.maximum(upper, lower), hint
