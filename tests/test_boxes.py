"""Box-family combinatorics against brute enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwlab.boxes import (
    BoxFamily,
    cancellation_identity,
    exact_level_count,
    interchange_check,
    level_bound_check,
    level_count_bruteforce,
    level_histogram_bruteforce,
    level_sweep,
    residence_interval,
)


def test_frozen_level_counts():
    # hand-enumerated residence widths for H=(3,), q=5: [1,2,3,3,3,3,2,1]
    fam = BoxFamily((3,), 5)
    assert exact_level_count(fam, 1) == 2
    assert exact_level_count(fam, 2) == 2
    assert exact_level_count(fam, 3) == 4
    fam2 = BoxFamily((2, 2), 4)
    assert exact_level_count(fam2, 2) == 4


def test_level_count_matches_bruteforce_small():
    fam = BoxFamily((2, 3), 6)
    hist = level_histogram_bruteforce(fam)
    for p in range(1, fam.H1 + 1):
        assert exact_level_count(fam, p) == hist[p] == level_count_bruteforce(fam, p)


def test_level_p_out_of_range():
    fam = BoxFamily((3, 2), 5)
    with pytest.raises(ValueError):
        exact_level_count(fam, 0)
    with pytest.raises(ValueError):
        exact_level_count(fam, fam.H1 + 1)


def test_family_requires_q_above_min_side():
    with pytest.raises(ValueError):
        BoxFamily((2, 4), 2)


def test_residence_interval_consistency():
    fam = BoxFamily((2, 2), 4)
    res = residence_interval(fam, (1, 1))
    assert res is not None and (res.L, res.U) == (0, 1) and res.width == 2
    assert residence_interval(fam, (-fam.q, fam.H[1])) is None


families = st.integers(1, 3).flatmap(
    lambda k: st.tuples(
        st.tuples(*([st.integers(1, 4)] * k)),
        st.integers(2, 9),
    )
)


@settings(max_examples=60, deadline=None)
@given(families)
def test_formula_equals_enumeration(params):
    H, q = params
    if q <= min(H):
        q = min(H) + 1
    fam = BoxFamily(H, q)
    hist = level_histogram_bruteforce(fam)
    for p in range(1, fam.H1 + 1):
        assert exact_level_count(fam, p) == hist[p]


@settings(max_examples=60, deadline=None)
@given(families)
def test_mass_identity(params):
    H, q = params
    if q <= min(H):
        q = min(H) + 1
    fam = BoxFamily(H, q)
    total = sum(p * exact_level_count(fam, p) for p in range(1, fam.H1 + 1))
    assert total == (q + 1) * int(np.prod(H))


def test_cancellation_frozen_example():
    lhs, rhs = cancellation_identity(2, [2, 2], 1)
    assert lhs == rhs == 5
    lhs, rhs = cancellation_identity(2, [2, 2], 2)
    assert lhs == rhs == 2


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda k: st.tuples(*([st.integers(-6, 6)] * k))
    ),
    st.sampled_from([1, 2]),
)
def test_cancellation_exact_on_integers(x, variant):
    lhs, rhs = cancellation_identity(len(x), list(x), variant)
    assert lhs == rhs


def test_interchange_with_weighted_table():
    fam = BoxFamily((2, 3), 5)
    lhs, rhs = interchange_check(fam, lambda n, h: (n + 3) * (2 * h[0] - h[1] + 11))
    assert lhs == rhs


def test_level_bound_holds_on_sweep():
    rows = list(level_sweep(k_values=(1, 2), H_max=3, q_max=8))
    assert rows, "sweep produced no rows"
    assert all(r["exact"] == r["brute"] for r in rows)
    assert min(r["slack"] for r in rows) >= -1e-9


def test_bound_report_fields():
    rep = level_bound_check(BoxFamily((2, 2), 4), 1, 8)
    assert rep.lhs <= rep.rhs + 1e-12
    assert rep.slack == rep.rhs - rep.lhs
