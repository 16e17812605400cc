"""Thirteen-point verification battery for the whole library.

Each criterion function is self-contained, deterministic, and returns a
``(name, passed, detail)`` triple; :func:`run_all` drives them in order and
is what the ``selftest`` subcommand calls.  The batteries re-derive every
expected value from an independent construction (brute-force enumeration,
closed-form series, dense reference grids), never from the code under test.

Criterion 13 re-runs a scaled probe of every computational engine twice per
thread count and compares the formatted values bit for bit, which is the
strongest reproducibility statement ``repr`` can express.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ._util import clear_memo
from .boxes import (
    BoxFamily,
    cancellation_identity,
    exact_level_count,
    interchange_check,
    level_histogram_bruteforce,
    level_sweep,
)
from .systems import (
    Observable,
    constant_observable,
    cyclic_shift,
    ghk_seminorm,
    identity_system,
    product_system,
    random_mean_zero,
    random_permutation,
    tensor_observable,
    two_cell_parity_partition,
)
from .supbrackets import sup_modulated_average, sup_norm_trig, sup_polyphase
from .averages import ScheduleR, ww_average, ww_average_alt, weak_ww_average
from .recurrence import ExponentVector, uniform_mrec_bracket
from .analysis import (
    PhaseWeights,
    ReturnTimesWeights,
    SeriesReport,
    decay_fit,
    hilbert_criterion,
    hilbert_partial_sums,
    run_named_check,
)


def _line(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


# -- 1 & 2: lattice box counts ----------------------------------------------


def criterion_01():
    """Closed-form level counts equal enumeration over the full grid."""
    t0 = time.perf_counter()
    rows = list(level_sweep())
    mismatches = sum(1 for r in rows if r["exact"] != r["brute"])
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 10.0
    detail = f"{len(rows)} grid rows, {mismatches} mismatches, {dt:.2f}s (< 10s)"
    return "01 level-count formula", ok, detail


def criterion_02():
    """Level counts partition the union and recover the total box mass."""
    import itertools

    families = 0
    bad_union = bad_mass = 0
    for k in (1, 2, 3):
        for H in itertools.product(range(1, 6), repeat=k):
            for q in range(min(H) + 1, 16):
                fam = BoxFamily(H, q)
                families += 1
                hist = level_histogram_bruteforce(fam)
                union = sum(hist.values())
                counts = [exact_level_count(fam, p) for p in range(1, fam.H1 + 1)]
                if sum(counts) != union:
                    bad_union += 1
                mass = (q + 1) * math.prod(H)
                if sum(p * c for p, c in zip(range(1, fam.H1 + 1), counts)) != mass:
                    bad_mass += 1
    ok = bad_union == 0 and bad_mass == 0
    detail = f"{families} families; union mismatches {bad_union}, mass mismatches {bad_mass}"
    return "02 partition identities", ok, detail


def criterion_03():
    """Telescoping product identities across orders and input types."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(1000):
        k = int(rng.integers(1, 9))
        if i % 3 == 0:
            x = rng.integers(-5, 6, size=k).astype(np.float64)
        elif i % 3 == 1:
            x = rng.standard_normal(k)
        else:
            x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        lhs, rhs = cancellation_identity(k, list(x), 1 + i % 2)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    ok = worst <= 1e-9
    return "03 cancellation identities", ok, f"1000 inputs, k <= 8, worst rel err {worst:.2e}"


def criterion_04():
    """Box-sum and residence-sum orderings agree on exact integer tables."""
    combos = []
    for k, shapes in ((1, [(1,), (3,), (5,)]), (2, [(2, 2), (3, 5)]), (3, [(2, 2, 2)])):
        for H in shapes:
            for q in (min(H) + 1, min(H) + 4):
                combos.append((k, H, q))
    rng = np.random.default_rng(4)
    tables = bad = 0
    for _, H, q in combos:
        fam = BoxFamily(H, q)
        for _ in range(100):
            coefs = rng.integers(-99, 100, size=len(H) + 2)
            mod = int(rng.integers(5, 97))

            def integrand(n, h, c=coefs, m=mod):
                acc = int(c[0]) * n + int(c[-1])
                for ci, hi in zip(c[1:-1], h):
                    acc += int(ci) * hi
                return acc % m - m // 2

            lhs, rhs = interchange_check(fam, integrand)
            tables += 1
            if lhs != rhs:
                bad += 1
    ok = bad == 0
    return "04 sum interchange", ok, f"{tables} integer tables over {len(combos)} (k,H,q), {bad} mismatches"


# -- 5 & 6: scalar inequality batteries --------------------------------------


def criterion_05():
    """Averaging difference bounds on raw sequences and on orbit averages."""
    rng = np.random.default_rng(5)
    worst_raw = math.inf
    for _ in range(10000):
        N = int(rng.integers(2, 65))
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        plain = run_named_check("vdc", sequence=v)
        modulated = run_named_check("vdc_sup", sequence=v)
        worst_raw = min(
            worst_raw,
            min(r.slack for r in plain.rows),
            min(r.slack for r in modulated.rows),
        )
    systems = {p: cyclic_shift(p) for p in (5, 13, 31)}
    worst_sys = math.inf
    for i in range(1000):
        p = (5, 13, 31)[i % 3]
        f = random_mean_zero(systems[p], 500 + i)
        chk = run_named_check("vdc_systems", system=systems[p], f=f)
        worst_sys = min(worst_sys, min(r.slack for r in chk.rows))
    ok = worst_raw >= -1e-9 and worst_sys >= -1e-10
    detail = (
        f"10000 sequences min slack {worst_raw:.2e} (>= -1e-9); "
        f"1000 observables min slack {worst_sys:.2e} (>= -1e-10)"
    )
    return "05 averaging difference bounds", ok, detail


def criterion_06():
    """Power means rise with the exponent; maximal averages obey p/(p-1)."""
    rng = np.random.default_rng(6)
    worst_mono = math.inf
    for _ in range(1000):
        length = int(rng.integers(8, 129))
        seq = np.abs(rng.standard_normal(length))
        chk = run_named_check("holder_averages", sequence=seq)
        worst_mono = min(worst_mono, min(r.slack for r in chk.rows))
    worst_max = math.inf
    for i in range(1000):
        size = int(rng.integers(4, 33))
        system = random_permutation(size, 600 + i)
        f = Observable(np.abs(rng.standard_normal(size)))
        chk = run_named_check("maximal", system=system, f=f, p=2.0)
        worst_max = min(worst_max, chk.rows[0].slack)
    ok = worst_mono >= -1e-9 and worst_max >= -1e-9
    detail = (
        f"1000 monotonicity fixtures min slack {worst_mono:.2e}; "
        f"1000 maximal fixtures (p=2) min slack {worst_max:.2e}"
    )
    return "06 power-mean and maximal bounds", ok, detail


# -- 7: certified supremum brackets ------------------------------------------


def criterion_07():
    """Dense 64x references stay inside every 16x bracket, widths <= 1%."""
    rng = np.random.default_rng(7)
    escapes = 0
    widths = {"modulated": 0.0, "norm_trig": 0.0, "polyphase": 0.0}

    def check(op, bracket, reference):
        nonlocal escapes
        scale = max(1.0, abs(bracket.upper))
        if not (bracket.lower - 1e-12 * scale <= reference <= bracket.upper + 1e-12 * scale):
            escapes += 1
        widths[op] = max(widths[op], bracket.rel_width)

    for _ in range(1000):
        N = int(rng.integers(4, 65))
        u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        check("modulated", sup_modulated_average(u, 16), sup_modulated_average(u, 64).lower)

    for _ in range(1000):
        L = int(rng.integers(3, 26))
        v = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        # autocorrelation coefficients of v: the polynomial is |poly(v)|^2 / L,
        # the nonnegative shape these brackets exist to certify
        coef = np.correlate(v, v, "full") / L
        check("norm_trig", sup_norm_trig(coef, 16), sup_norm_trig(coef, 64).lower)

    for i in range(1000):
        degree = 1 if i % 10 < 7 else 2
        N = int(rng.integers(4, 49)) if degree == 1 else int(rng.integers(4, 8))
        u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        check("polyphase", sup_polyphase(u, degree, 16), sup_polyphase(u, degree, 64).lower)

    wide = max(widths.values())
    ok = escapes == 0 and wide <= 0.01
    detail = (
        f"3000 inputs, {escapes} reference escapes; max rel widths "
        + ", ".join(f"{k} {v:.3%}" for k, v in widths.items())
    )
    return "07 certified sup brackets", ok, detail


# -- 8 & 9: product systems and the degree-2 seminorm ------------------------


def criterion_08():
    """Weak <= strong, tensor products, and the literal-constant bound."""
    rng = np.random.default_rng(8)
    systems = {p: cyclic_shift(p) for p in (5, 7, 11)}
    scenarios = failures = 0
    explicit_rows = wide_rows = 0
    worst_order = math.inf
    for i in range(100):
        k = 1 + i % 2
        N = int(rng.choice([32, 64, 128] if k == 2 else [64, 128, 256]))
        p, q = (int(x) for x in rng.choice([5, 7, 11], size=2))
        f = random_mean_zero(systems[p], 800 + 2 * i)
        g = random_mean_zero(systems[q], 801 + 2 * i)
        wp = run_named_check(
            "weak_product", system_a=systems[p], system_b=systems[q], f=f, g=g,
            k=k, N_values=(N,),
        )
        prod = product_system(systems[p], systems[q])
        ws = run_named_check("weak_strong", system=prod, f=tensor_observable(f, g), k=k, N_values=(N,))
        scenarios += 1
        if not (wp.verdict and ws.verdict):
            failures += 1
        for row in ws.rows:
            if row.label == "order":
                worst_order = min(worst_order, row.slack_outer)
            elif row.label == "explicit":
                explicit_rows += 1
            elif row.label == "explicit-wide":
                wide_rows += 1
    ok = failures == 0 and worst_order >= -1e-12
    detail = (
        f"{scenarios} product scenarios, {failures} verdict failures; "
        f"ordering min outer slack {worst_order:.2e}; literal-constant rows "
        f"{explicit_rows} checked, {wide_rows} excused as wide"
    )
    return "08 product and ordering bounds", ok, detail


def criterion_09():
    """Degree-2 seminorm at full window equals the quartic spectral sum."""
    worst = 0.0
    draws = 0
    for p in (5, 13, 31):
        system = cyclic_shift(p)
        for i in range(100):
            f = random_mean_zero(system, 900 + i)
            lhs = ghk_seminorm(system, f, 2, p)
            fhat = np.fft.fft(np.asarray(f.values)) / p
            rhs = float(np.sum(np.abs(fhat) ** 4) ** 0.25)
            worst = max(worst, abs(lhs - rhs))
            draws += 1
    ok = worst <= 1e-8
    return "09 degree-2 seminorm identity", ok, f"{draws} observables, worst abs err {worst:.2e}"


# -- 10 & 11: decay windows and fitted constants -----------------------------


def criterion_10():
    """Order-1 decay on a long cycle; linear shift schedule tracks classical."""
    t0 = time.perf_counter()
    system = cyclic_shift(521)
    f = random_mean_zero(system, 10)
    entries = []
    for N in (16, 23, 32, 45, 64, 91, 128):
        w = ww_average(system, f, 1, N)
        entries.append((N, w.upper, w))
    fit = decay_fit(SeriesReport("order-1 window", entries))

    linear = ScheduleR.linear_schedule(1)
    worst_ratio = 1.0
    for N in (16, 32, 64, 128):
        alt = ww_average_alt(system, f, 2, N, linear).upper
        classical = ww_average(system, f, 2, N).upper
        worst_ratio = max(worst_ratio, alt / classical, classical / alt)
    dt = time.perf_counter() - t0
    ok = fit.alpha_hat >= 0.15 and worst_ratio <= 3.0 and dt < 60.0
    detail = (
        f"alpha_hat {fit.alpha_hat:.3f} (>= 0.15, r^2 {fit.r_squared:.3f}); "
        f"linear-vs-classical worst ratio {worst_ratio:.3f} (<= 3); {dt:.1f}s (< 60s)"
    )
    return "10 decay window", ok, detail


def criterion_11():
    """Fitted constants peak at the left edge of the window and stay small.

    The conditional-expectation leg cannot satisfy the peak-at-left claim on
    any cyclic scenario: the projection onto the two alternating cells is an
    exact period-2 eigenfunction, so the left side of that bound is the same
    number at every N while the right side decays.  The leg is reported
    honestly and fails; see the shipped notes for the two-line argument.
    """
    window = (64, 128, 256, 512, 1024)
    system = cyclic_shift(521)
    f = random_mean_zero(system, 2)
    f2 = random_mean_zero(system, 3)
    legs = []

    for name, kwargs in (
        ("bourgain k=1", dict(system=system, f=f, k=1, N_values=window, seed=2)),
        ("bourgain k=2", dict(system=system, f=f, k=2, N_values=window, seed=2)),
        ("reverse_bourgain k=1", dict(system=system, f=f, k=1, N_values=window, seed=2)),
        ("sublinearity k=1", dict(system=system, f1=f, f2=f2, k=1, N_values=window, seed=2)),
    ):
        chk = run_named_check(name.split()[0], **kwargs)
        good = chk.stable() and chk.c_max < 1e3
        legs.append((name, good, f"c_max {chk.c_max:.3f} at N={chk.rows[0].N}" if good
                     else f"c_N peaks late, c_max {chk.c_max:.3f}"))

    even = cyclic_shift(524)
    chk = run_named_check(
        "cond_exp", system=even, f=random_mean_zero(even, 2),
        partition=two_cell_parity_partition(even), k=1, N_values=window, seed=2,
    )
    good = chk.stable() and chk.c_max < 1e3
    legs.append(("cond_exp k=1", good,
                 f"c_max {chk.c_max:.3f}" if good else
                 f"c_N rises {chk.rows[0].c_N:.4f}->{chk.rows[-1].c_N:.4f} "
                 "(projection is an exact eigenfunction; lhs is N-free)"))

    small = cyclic_shift(8)
    brute = run_named_check(
        "reverse_bourgain", system=small, f=random_mean_zero(small, 2),
        k=1, N_values=(16, 64), seed=2, brute=True,
    )
    legs.append(("reverse_bourgain brute", brute.verdict and brute.c_max < 1e3,
                 f"c_max {brute.c_max:.3f}, {brute.notes}"))

    ok = all(good for _, good, _ in legs)
    detail = "; ".join(f"{name} {_line(good)} ({note})" for name, good, note in legs)
    return "11 fitted-constant stability", ok, detail


# -- 12: orbit transform suite -----------------------------------------------


def criterion_12():
    """Convergence verdicts, the alternating-series value, and unit weights."""
    L = 1024
    window = (64, L)
    issues = []

    report = SeriesReport("p-series", [(N, N ** -0.5) for N in range(1, L + 1)])
    if not hilbert_criterion(report, 0.9, window).accept:
        issues.append("decaying averages rejected")

    report = SeriesReport("constant", [(N, 1.0) for N in range(1, L + 1)])
    if hilbert_criterion(report, 1.0, window).accept:
        issues.append("harmonic growth accepted")

    theta = (math.sqrt(5.0) - 1.0) / 2.0
    n = np.arange(1, L + 1)
    rotation = np.abs(np.cumsum(np.exp(2j * np.pi * theta * n)) / n)
    report = SeriesReport("rotation", list(zip(range(1, L + 1), rotation.tolist())))
    if not hilbert_criterion(report, 0.9, window).accept:
        issues.append("equidistributed averages rejected")

    one = identity_system(1)
    ones = [constant_observable(one)]
    expo = ExponentVector((1,))
    twisted = hilbert_partial_sums(one, 0, ones, expo, 0.9, L, weights=PhaseWeights((theta,)))
    vals = twisted.values

    def diam(seg):
        return float(seg.real.max() - seg.real.min()) + float(seg.imag.max() - seg.imag.min())

    early, late = diam(vals[63:128]), diam(vals[511:1024])
    if late > 0.5 * early:
        issues.append(f"twisted sums not settling ({late:.3f} vs {early:.3f})")

    alternating = hilbert_partial_sums(one, 0, ones, expo, 1.0, L, weights=PhaseWeights((0.5,)))
    err = abs(alternating.final - (-math.log(2.0)))
    if err > 1e-3:
        issues.append(f"alternating series off by {err:.2e}")

    rng = np.random.default_rng(12)
    worst = math.inf
    for i in range(1000):
        length = int(rng.integers(8, 513))
        v = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        pairs = sorted({(int(rng.integers(1, length)), length) for _ in range(3)})
        chk = run_named_check(
            "hilbert_cauchy", sequence=v, sigma=(0.5, 0.9, 1.0)[i % 3], pairs=pairs
        )
        worst = min(worst, min(r.slack for r in chk.rows))
    if worst < -1e-9:
        issues.append(f"partial-sum bound violated ({worst:.2e})")

    companion = cyclic_shift(7)
    unit = ReturnTimesWeights(companion, 0, (constant_observable(companion),), (1,))
    base = cyclic_shift(13)
    fs = [random_mean_zero(base, 120)]
    weighted = hilbert_partial_sums(base, 3, fs, expo, 0.9, 256, weights=unit)
    plain = hilbert_partial_sums(base, 3, fs, expo, 0.9, 256)
    gap = float(np.max(np.abs(weighted.values - plain.values)))
    if gap != 0.0:
        issues.append(f"unit companion weights drifted by {gap:.2e}")

    ok = not issues
    detail = "; ".join(issues) if issues else (
        f"three families classified, alternating value err {err:.2e}, "
        f"1000 partial-sum fixtures min slack {worst:.2e}, unit weights exact"
    )
    return "12 orbit transform suite", ok, detail


# -- 13: determinism ----------------------------------------------------------


def _digest(threads: int) -> list:
    """Scaled probe of every engine; formatted values for bit comparison."""
    parts = []

    rows = list(level_sweep(k_values=(1, 2), H_max=3, q_max=6))
    parts.append(repr([(r["exact"], r["brute"], r["slack"]) for r in rows]))

    rng = np.random.default_rng(131)
    vals = []
    for i in range(25):
        k = int(rng.integers(1, 9))
        x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        vals.append(cancellation_identity(k, list(x), 1 + i % 2))
    parts.append(repr(vals))

    fam = BoxFamily((2, 3), 5)
    parts.append(repr(interchange_check(fam, lambda n, h: (n + 1) * (h[0] + 2 * h[1] + 7))))

    rng = np.random.default_rng(132)
    slacks = []
    for _ in range(15):
        N = int(rng.integers(2, 49))
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        slacks.append(min(r.slack for r in run_named_check("vdc", sequence=v).rows))
        slacks.append(min(r.slack for r in run_named_check("vdc_sup", sequence=v).rows))
    parts.append(repr(slacks))

    hol = run_named_check("holder_averages", seed=133)
    mx = run_named_check("maximal", system=random_permutation(12, 7), seed=134)
    parts.append(repr([(r.lhs, r.rhs_core) for r in hol.rows + mx.rows]))

    rng = np.random.default_rng(135)
    brackets = []
    for N, degree in ((24, 1), (6, 2)):
        u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        b = sup_polyphase(u, degree, 16)
        brackets.append((b.lower, b.upper))
    u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    b = sup_modulated_average(u, 16)
    brackets.append((b.lower, b.upper))
    parts.append(repr(brackets))

    sys97 = cyclic_shift(97)
    f97 = random_mean_zero(sys97, 13)
    strong = ww_average(sys97, f97, 2, 64, threads=threads)
    weak = weak_ww_average(sys97, f97, 2, 64, threads=threads)
    parts.append(repr((strong.lower, strong.upper, weak.lower, weak.upper)))

    sa, sb = cyclic_shift(5), cyclic_shift(7)
    wp = run_named_check(
        "weak_product", system_a=sa, system_b=sb, f=random_mean_zero(sa, 21),
        g=random_mean_zero(sb, 22), k=2, N_values=(32,), threads=threads,
    )
    parts.append(repr([(r.lhs, r.rhs_core, r.c_N) for r in wp.rows]))

    thirteen = cyclic_shift(13)
    parts.append(repr(ghk_seminorm(thirteen, random_mean_zero(thirteen, 9), 2, 13)))

    entries = [(N, ww_average(sys97, f97, 1, N, threads=threads).upper) for N in (16, 24, 32, 48)]
    fit = decay_fit(SeriesReport("probe", entries))
    parts.append(repr((fit.alpha_hat, fit.C_hat, fit.r_squared)))

    stab = run_named_check(
        "bourgain", system=sys97, f=f97, k=2, N_values=(32, 64), seed=13, threads=threads
    )
    parts.append(repr([r.c_N for r in stab.rows]))

    eight = cyclic_shift(8)
    m = uniform_mrec_bracket(eight, random_mean_zero(eight, 3), 2, 16, restarts=2, seed=3)
    parts.append(repr((m.lower, m.upper)))

    one = identity_system(1)
    s = hilbert_partial_sums(
        one, 0, [constant_observable(one)], ExponentVector((1,)), 1.0, 256,
        weights=PhaseWeights((0.5,)),
    )
    rng = np.random.default_rng(136)
    tails = []
    for _ in range(10):
        length = int(rng.integers(8, 65))
        v = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        pairs = [(int(rng.integers(1, length)), length)]
        tails.append(min(r.slack for r in run_named_check("hilbert_cauchy", sequence=v, pairs=pairs).rows))
    series = SeriesReport("probe", [(N, N ** -0.5) for N in range(1, 257)])
    verdict = hilbert_criterion(series, 0.9, window=(16, 256))
    parts.append(repr((s.final, tails, verdict.accept, verdict.tail_sum, verdict.cauchy_sup)))

    return parts


def criterion_13():
    """Bit-identical engine outputs across repeat runs and thread counts."""
    runs = {}
    for threads in (1, 8):
        for attempt in (1, 2):
            clear_memo()  # every run recomputes, so a repeat cannot be served from memory
            runs[(threads, attempt)] = _digest(threads)
    base = runs[(1, 1)]
    diverged = sorted(
        f"threads={t} run={a} part={i}"
        for (t, a), parts in runs.items()
        for i, part in enumerate(parts)
        if part != base[i]
    )
    ok = not diverged
    detail = (
        f"{len(base)} probe digests x 2 runs x threads {{1, 8}} all bit-identical"
        if ok else "diverged: " + "; ".join(diverged)
    )
    return "13 determinism", ok, detail


_CRITERIA = (
    (1, criterion_01),
    (2, criterion_02),
    (3, criterion_03),
    (4, criterion_04),
    (5, criterion_05),
    (6, criterion_06),
    (7, criterion_07),
    (8, criterion_08),
    (9, criterion_09),
    (10, criterion_10),
    (11, criterion_11),
    (12, criterion_12),
    (13, criterion_13),
)


def run_all(only: str | None = None) -> list:
    """Run the numbered criteria; ``only`` is a comma list of numbers."""
    if only is None:
        selected = _CRITERIA
    else:
        wanted = {int(tok) for tok in only.replace(" ", "").split(",") if tok}
        unknown = wanted - {num for num, _ in _CRITERIA}
        if unknown:
            raise ValueError(f"unknown criteria {sorted(unknown)}; valid numbers are 1..13")
        selected = [c for c in _CRITERIA if c[0] in wanted]
    return [fn() for _, fn in selected]
