"""Tests for the benchmark's own machinery: ``python -m pytest bench``."""
from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(scope="module")
def modules():
    return worker.import_wwlab()


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    rec = tracing.Recorder(clock=lambda: next(ticks))
    a = rec.open("cli.run_experiment")          # [0, 10]
    b = rec.open("averages.ww_average")         # [1, 3]
    rec.close(b)
    c = rec.open("averages.ww_average")         # [4, 8]
    d = rec.open("systems.orbit_table")         # [5, 6]
    rec.close(d)
    rec.close(c)
    rec.close(a)
    own = tracing.self_times(rec.spans)
    assert own == {a[0]: 4.0, b[0]: 2.0, c[0]: 3.0, d[0]: 1.0}
    metrics = tracing.layer_metrics(rec.spans)
    assert metrics["cli.run_experiment.s"] == 4.0
    assert metrics["averages.ww_average.s"] == 5.0        # self time, both calls
    assert metrics["systems.orbit_table.s"] == 1.0        # inclusive time
    assert metrics["averages.ww_average.calls"] == 2


def test_spans_must_close_in_order():
    rec = tracing.Recorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_repeat_key_flags_same_evaluation_not_changed_N(modules):
    systems, averages = modules["systems"], modules["averages"]
    system = systems.cyclic_shift(13)
    f = systems.random_mean_zero(system, 1)
    key = lambda *a, **kw: tracing.evaluation_key("ww", averages.ww_average, a, kw)  # noqa: E731
    assert key(system, f, 1, 8) == key(systems.cyclic_shift(13), f, 1, 8, threads=2)
    assert key(system, f, 1, 8) != key(system, f, 1, 9)
    assert key(system, f, 1, 8) != key(system, systems.random_mean_zero(system, 2), 1, 8)


def test_installed_wrappers_count_repeats_and_uninstall(modules):
    systems, averages = modules["systems"], modules["averages"]
    original = averages.ww_average
    rec = tracing.Recorder()
    uninstall = tracing.install(modules, rec)
    try:
        system = systems.cyclic_shift(13)
        f = systems.random_mean_zero(system, 1)
        for N in (4, 4, 9):
            modules["analysis"].ww_average(system, f, 1, N)
    finally:
        uninstall()
    assert averages.ww_average is original
    metrics = tracing.layer_metrics(rec.spans)
    assert metrics["analysis.repeat_evals"] == 1
    assert metrics["analysis.evaluations"] == 3
    assert metrics["supbrackets.grid_sup_rows.calls"] == 3
    assert metrics["systems.orbit_table.calls"] == 3
    # the second N=4 call returns the cached table, which allocates nothing
    assert metrics["systems.orbit_table.bytes"] == 13 * 8 * (5 + 10)


def test_install_refuses_a_missing_name(modules):
    trimmed = dict(modules, cli=type("Module", (), {})())
    with pytest.raises(AttributeError):
        tracing.install(trimmed, tracing.Recorder())


def _bracket_case():
    configs = [{"op": "ww", "schedule": [64]}, {"op": "check", "schedule": [64]}]
    result = [{"rows": [{"N": 64, "lower": 0.30, "upper": 0.31}], "summary": {}, "error": None},
              {"rows": [{"N": 64, "lower": 0.5, "upper": 0.4, "c": 1.2}],
               "summary": {"verdict": True}, "error": None}]
    return configs, result


def test_shifted_bracket_is_rejected_and_counted():
    configs, result = _bracket_case()
    key, check_key = (checks.config_digest(c) for c in configs)
    stored = {key: [[64, 0.30, 0.31]], check_key: [[64, 0.5, 0.4]]}
    assert checks.reference_rows(configs, result) == stored
    assert checks.count_failures(configs, [result, result], stored) == (4, 0, [])
    shifted = {key: [[64, 0.32, 0.33]]}
    attempted, failed, problems = checks.count_failures(configs, [result, result], shifted)
    assert (attempted, failed) == (4, 2)
    assert "misses reference" in problems[0]


@pytest.mark.parametrize("ref, row, reason", [
    ((0.30, 0.31), (0.2999, 0.3131), "wider"),      # 32% wider, still overlapping
    ((0.30, 0.31), (0.3010, 0.3090), None),         # tighter is fine
    ((0.30, 0.31), (0.2999, 0.3119), None),         # 20% wider is within WIDTH_SLACK
    ((0.10, 0.90), (0.0996, 0.90), "lower end"),    # an ascent that stopped early
    ((0.10, 0.90), (0.1002, 0.60), None),           # a higher value or a tighter cap
])
def test_looser_bracket_is_rejected(ref, row, reason):
    config = {"op": "mrec", "schedule": [64]}
    result = {"rows": [{"N": 64, "lower": row[0], "upper": row[1]}], "summary": {}, "error": None}
    problems = checks.row_problems(config, result, [[64, *ref]])
    assert [reason in p for p in problems] == ([True] if reason else [])


def test_lower_check_lhs_is_rejected():
    config = {"op": "check", "schedule": [64]}
    row = {"N": 64, "lower": 0.3, "upper": 0.9, "c": 0.3}
    result = {"rows": [row], "summary": {"verdict": True}, "error": None}
    assert checks.row_problems(config, result, [[64, 0.3, 0.9]]) == []
    problems = checks.row_problems(config, result, [[64, 0.3006, 0.9]])
    assert len(problems) == 1 and "lower end" in problems[0]


def test_non_finite_inverted_and_differing_rows_fail():
    configs, result = _bracket_case()
    bad = [dict(result[0], rows=[{"N": 64, "lower": 0.31, "upper": 0.30}]), result[1]]
    assert checks.count_failures(configs, [bad])[1] == 1
    nan = [dict(result[0], rows=[{"N": 64, "lower": float("nan"), "upper": 0.3}]), result[1]]
    assert checks.count_failures(configs, [nan])[1] == 1
    drift = [dict(result[0], rows=[{"N": 64, "lower": 0.30, "upper": 0.3100001}]), result[1]]
    assert checks.count_failures(configs, [result, drift])[1] == 1
    raised = [result[0], {"rows": [], "summary": {}, "error": "BudgetExceeded: too big"}]
    assert checks.count_failures(configs, [raised])[1] == 1


def test_orbit_walk_reproduces_library_values(modules):
    cli = modules["cli"]
    base = {"kind": "random_permutation", "size": 257, "seed": 3}
    companion = {"kind": "random_permutation", "size": 61, "seed": 4}
    configs = [
        {"op": "hilbert", "system": base, "x_point": 5, "sigma": 0.9, "schedule": [16, 200],
         "extra": {"phase_t": [0.5]}},
        {"op": "hilbert", "system": base, "system_b": companion, "x_point": 7,
         "functions": [{"kind": "random", "seed": 1}, {"kind": "random", "seed": 2}],
         "sigma": 0.9, "schedule": [50], "extra": {"exponents": [1, 2], "return_weights":
                                                   {"g": {"kind": "random", "seed": 5}}}},
        {"op": "return_times", "system": base, "system_b": companion, "x_point": 3,
         "schedule": [20, 40], "extra": {"poly": [0, 0, 1]}},
    ]
    walker = checks.OrbitWalker(modules)
    for config in configs:
        record = cli.run_experiment(cli.ExperimentConfig.from_dict(config))
        result = {"rows": record.rows, "summary": record.summary, "error": None}
        assert checks.walk_problems(walker, config, result) == []
        moved = dict(result, rows=[dict(r, re=r.get("re", 0) + 1e-9, lower=r["lower"] + 1e-9)
                                   for r in record.rows])
        assert checks.walk_problems(walker, config, moved)
