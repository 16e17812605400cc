"""Config parsing, the experiment runner, caching, reports, and exit codes."""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wwlab.analysis
from wwlab import cli
from wwlab.analysis import CheckRow, run_named_check
from wwlab.cli import (
    ConfigError,
    ExperimentConfig,
    ReportError,
    cache_lookup,
    cache_store,
    emit_report,
    main,
    parse_function,
    parse_schedule,
    parse_system,
    run_experiment,
)
from wwlab.recurrence import ExponentVector
from wwlab.systems import cyclic_shift, product_system, random_mean_zero, tensor_observable


# -- shorthand parsing --------------------------------------------------------


def test_parse_system_shorthands():
    assert parse_system("cyclic:521") == {"kind": "cyclic_shift", "p": 521}
    assert parse_system("identity:4") == {"kind": "identity", "size": 4}
    assert parse_system("random:64:3") == {"kind": "random_permutation", "size": 64, "seed": 3}
    assert parse_system("rotation:89:1") == {"kind": "rotation_approx", "p": 89, "j": 1}
    with pytest.raises(ConfigError):
        parse_system("torus:3")
    with pytest.raises(ConfigError):
        parse_system("cyclic:abc")


def test_parse_function_shorthands():
    assert parse_function("random:7") == {"kind": "random", "seed": 7}
    assert parse_function("character:2") == {"kind": "character", "j": 2}
    assert parse_function("table:1,2") == {"kind": "table", "values": [[1.0, 0.0], [2.0, 0.0]]}
    with pytest.raises(ConfigError):
        parse_function("blob:1")
    with pytest.raises(ConfigError):
        parse_function("table:1,zz")


def test_parse_schedule_forms():
    assert parse_schedule("16,32,64") == [16, 32, 64]
    assert parse_schedule("16..256x2") == [16, 32, 64, 128, 256]
    assert parse_schedule("16..64x1.5") == [16, 24, 36, 54]
    with pytest.raises(ConfigError):
        parse_schedule("16..8x2")
    with pytest.raises(ConfigError):
        parse_schedule("a,b")


# -- configuration ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(op="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(op="check")  # missing name
    with pytest.raises(ConfigError):
        ExperimentConfig(op="check", check_name="nonexistent")
    with pytest.raises(ConfigError):
        ExperimentConfig(op="ww", schedule=[32, 16])
    with pytest.raises(ConfigError):
        ExperimentConfig(op="ww", oversample=2)


def test_config_round_trip_and_hash():
    cfg = ExperimentConfig(
        op="ww",
        system={"kind": "cyclic_shift", "p": 7},
        functions=[{"kind": "random", "seed": 3}],
        schedule=[8, 16],
    )
    back = ExperimentConfig.from_dict(json.loads(cfg.canonical_json()))
    assert back.config_hash == cfg.config_hash
    assert len(cfg.config_hash) == 16

    other = ExperimentConfig.from_dict({**cfg.canonical_dict(), "seed": 1})
    assert other.config_hash != cfg.config_hash

    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"op": "ww", "threads": 8})


# -- the runner ---------------------------------------------------------------


def test_ww_of_unit_table_on_one_point_system():
    cfg = ExperimentConfig(
        op="ww",
        system={"kind": "identity", "size": 1},
        functions=[{"kind": "table", "values": [[1.0, 0.0]]}],
        schedule=[4, 8],
    )
    record = run_experiment(cfg)
    assert [r["N"] for r in record.rows] == [4, 8]
    for row in record.rows:
        assert row["lower"] == 1.0
        assert row["upper"] == 1.0


def test_check_vdc_through_runner():
    cfg = ExperimentConfig(
        op="check",
        check_name="vdc",
        functions=[{"kind": "table", "values": [[1.0, 0.0]] * 4}],
        schedule=[4],
        extra={"H": 1},
    )
    record = run_experiment(cfg)
    assert record.summary["verdict"] is True
    assert record.rows[0]["slack"] == 0.09375


def _check_rows(name, **fields):
    return run_experiment(ExperimentConfig(op="check", check_name=name, **fields)).rows


_CYCLE_13 = {"kind": "cyclic_shift", "p": 13}


def _random(*seeds):
    return [{"kind": "random", "seed": s} for s in seeds]


@pytest.mark.parametrize("name, count", [
    ("sublinearity", 1), ("poly_ww", 1), ("intermediate_F_integral", 1), ("offdiag_control", 2),
])
def test_check_reads_the_given_observables(name, count):
    # these checks declare no `f`: --f reaches f1, functions or the cube assignment
    rows = [_check_rows(name, system=_CYCLE_13, functions=_random(*range(s, s + count)), schedule=[64])
            for s in (2, 99)]
    assert rows[0] != rows[1]


def test_check_routes_match_the_library():
    a, b = cyclic_shift(5), cyclic_shift(7)
    rows = _check_rows("weak_product", system={"kind": "cyclic_shift", "p": 5},
                       system_b={"kind": "cyclic_shift", "p": 7}, functions=_random(1, 2), schedule=[32])
    lib = run_named_check("weak_product", system_a=a, system_b=b, f=random_mean_zero(a, 1),
                          g=random_mean_zero(b, 2), N_values=(32,))
    assert [(r["lower"], r["upper"]) for r in rows] == [(r.lhs, r.rhs_core) for r in lib.rows]
    # no observable given: the check draws its own nonnegative default
    rows = _check_rows("maximal", system={"kind": "cyclic_shift", "p": 64})
    assert rows[0]["lower"] == run_named_check("maximal", system=cyclic_shift(64)).rows[0].lhs
    # one observable per vertex, in the order of the default assignment's seeds
    assert _check_rows("offdiag_control", system=_CYCLE_13, functions=_random(0, 1)) == \
        _check_rows("offdiag_control", system=_CYCLE_13)
    assert _check_rows("general_rbb", extra={"H": [2, 3]})[0]["label"] == "H=(2, 3)"
    lib = run_named_check("poly_ww", exponents=ExponentVector((2,)), N_values=(32,))
    assert _check_rows("poly_ww", extra={"exponents": [2]}, schedule=[32])[0]["lower"] == lib.rows[0].lhs
    # tensor observables live on the product system, which takes the check's `system`
    tensor = {"kind": "tensor", "left": _random(1)[0], "right": _random(2)[0]}
    rows = _check_rows("weak_strong", system={"kind": "cyclic_shift", "p": 5},
                       system_b={"kind": "cyclic_shift", "p": 7}, functions=[tensor], schedule=[32])
    lib = run_named_check("weak_strong", system=product_system(a, b),
                          f=tensor_observable(random_mean_zero(a, 1), random_mean_zero(b, 2)), N_values=(32,))
    assert [r["lower"] for r in rows] == [r.lhs for r in lib.rows]


@pytest.mark.parametrize("name, fields, scenario", [
    ("alt_bb", {}, {}),  # k = 2 by default: k = 1 is refused
    ("alt_upper", {}, {}),  # k = 2, not 1
    ("reverse_bourgain", {}, {}),  # N = 16, 64, 256, not 16, 32, 64
    ("hilbert_cauchy", {}, {}),  # sigma = 0.9, not 1.0
    # given values still reach the check
    ("alt_upper", {"k": 3, "schedule": [64], "seed": 4}, {"k": 3, "N_values": (64,), "seed": 4}),
])
def test_check_config_routes_only_the_values_it_gives(name, fields, scenario):
    lib = run_named_check(name, **scenario)
    rows = _check_rows(name, **fields)
    assert [(r["N"], r["lower"], r["upper"]) for r in rows] == [(r.N, r.lhs, r.rhs_core) for r in lib.rows]


def test_check_flags_left_out_take_the_check_defaults(tmp_path):
    assert main(["run", "--op", "check:alt_bb", "--no-cache", "--out", str(tmp_path)]) == 0
    # the other operations keep the config defaults, and their config hashes
    given = {"k": 1, "schedule": [16, 32, 64], "oversample": 16, "seed": 0, "sigma": 1.0}
    assert ExperimentConfig(op="ww", system=_CYCLE_13).config_hash == \
        ExperimentConfig(op="ww", system=_CYCLE_13, **given).config_hash == "fa63788b5830a3c1"


@pytest.mark.parametrize("argv, reason", [
    (["check:vdc", "--system", "cyclic:3", "--f", "table:1,2,3"], "reads no system"),
    (["check:vdc", "--f", "random:3"], "one table"),
    (["check:bourgain", "--system", "cyclic:13", "--system-b", "cyclic:5"], "reads no system_b"),
    (["check:bourgain", "--system", "cyclic:13", "--f", "random:1", "--f", "random:2"], "not 2"),
    (["check:offdiag_control", "--system", "cyclic:13", "--f", "random:1", "--f", "random:2",
      "--f", "random:3"], "vertex"),
    (["check:bourgain", "--extra", '{"bogus": 1}'], "'bogus'"),
    (["check:cond_exp", "--extra", '{"partition": [0, 1]}'], "'partition'"),
    (["check:maximal", "--system", "cyclic:13", "--f", "random:2"], "nonnegative"),
    (["check:general_rbb", "--H", "3"], "window sizes"),  # read: order 2 needs two windows
])
def test_check_inputs_are_read_or_refused(tmp_path, capsys, argv, reason):
    assert main(["run", "--op", *argv, "--no-cache", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err


@pytest.mark.parametrize("argv, key", [
    (["polyphase", "--system", "cyclic:13", "--N", "8", "--extra", '{"exponents": 5}'], "'exponents'"),
    (["boxsweep", "--extra", '{"k_values": 5}'], "'k_values'"),
    (["hilbert", "--system", "cyclic:13", "--N", "8", "--extra", '{"phase_t": 0.5}'], "'phase_t'"),
    (["return_times", "--system", "cyclic:13", "--system-b", "cyclic:5", "--N", "8",
      "--extra", '{"poly": 3}'], "'poly'"),
    (["hilbert", "--system", "cyclic:13", "--system-b", "cyclic:5", "--N", "8",
      "--extra", '{"return_weights": {"steps": 1}}'], "return_weights key 'steps'"),
])
def test_scalar_extra_where_a_list_belongs_exits_2(tmp_path, capsys, argv, key):
    assert main(["run", "--op", *argv, "--no-cache", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must be a list" in err


@pytest.mark.parametrize("op, extra, key", [
    ("hilbert", '{"return_weights": 5}', "extra.return_weights"),
    ("return_times", '{"g": 5}', "extra.g"),
    ("hilbert", '{"return_weights": {"g": 5, "steps": [1]}}', "extra.return_weights.g"),
])
def test_scalar_extra_where_an_object_belongs_exits_2(tmp_path, capsys, op, extra, key):
    argv = ["run", "--op", op, "--system", "cyclic:13", "--system-b", "cyclic:5", "--N", "8", "--extra", extra]
    assert main([*argv, "--no-cache", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must be a JSON object" in err


@pytest.mark.parametrize("argv", [
    ["run", "--op", "ww", "--system", "cyclic:13", "--f", "random"],
    ["run", "--op", "ww", "--system", "cyclic:13", "--f", "random:x"],
    ["run", "--op", "ww", "--system", "cyclic:13", "--f", "character"],
    ["run", "--op", "mrec", "--system", "cyclic:13", "--extra", "[1]"],
    ["run", "--config", "list.json"],
    ["run", "--op", "hilbert", "--system", "cyclic:13", "--sigma", "2", "--N", "8"],  # refused by the library
    ["run", "--op", "mrec_sup", "--system", "cyclic:13"],  # polyphase at degree 1
    ["selftest", "--criteria", "99"],
])
def test_malformed_input_exits_2(tmp_path, capsys, argv):
    (tmp_path / "list.json").write_text("[1, 2]")
    argv = [str(tmp_path / a) if a == "list.json" else a for a in argv]
    if argv[0] == "run":
        argv += ["--no-cache", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_check_budget_reaches_the_maximal_check(tmp_path, capsys):
    assert main(["run", "--op", "check:maximal", "--budget", "1", "--no-cache", "--out", str(tmp_path)]) == 2
    assert "budget refusal" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--op", "ww", "--system", "cyclic:89", "--k", "1", "--N", "64"],
    ["--op", "hilbert", "--system", "cyclic:89", "--f", "random:4", "--sigma", "0.9", "--x", "3", "--N", "64,512"],
    ["--op", "return_times", "--system", "cyclic:89", "--system-b", "cyclic:31", "--N", "64"],
    ["--op", "check:spectral_weak", "--system", "cyclic:89", "--N", "64"],
    ["--op", "check:vdc_sup"],
    ["--op", "check:vdc_systems"],
])
def test_budget_reaches_every_op(tmp_path, capsys, argv):
    assert main(["run", *argv, "--budget", "1", "--no-cache", "--out", str(tmp_path)]) == 2
    assert "budget refusal" in capsys.readouterr().err


_ROW_KEYS = {"N", "lower", "upper"}
_BOXSWEEP = '{"k_values": [1, 2], "H_max": 3, "q_max": 6}'


# every op but check (tested above) on cyclic:13: its flags, row keys and summary keys
_OP_RUNS = {
    "ww": (["--k", "2", "--N", "16,32"], _ROW_KEYS, set()),
    "weak_ww": (["--k", "2", "--N", "16,32"], _ROW_KEYS, set()),
    "offdiag": (["--k", "2", "--f", "random:1", "--f", "random:2", "--N", "16"], _ROW_KEYS, set()),
    "mrec": (["--k", "2", "--N", "8,16"], _ROW_KEYS | {"method"}, set()),
    "polyphase": (["--degree", "2", "--N", "4,8"], _ROW_KEYS, set()),
    "return_times": (["--system-b", "cyclic:7", "--N", "8,16"], _ROW_KEYS, {"x_point"}),
    "hilbert": (["--x", "3", "--N", "8,16", "--extra", '{"phase_t": [0.5]}'], _ROW_KEYS | {"re", "im"}, {"sigma"}),
    "decay": (["--N", "8,16,32,64"], _ROW_KEYS, {"fit"}),
    "precsim": (["--f", "random:1", "--f", "random:2", "--N", "8,16,32"], _ROW_KEYS | {"side"}, {"witness"}),
    "boxsweep": (["--extra", _BOXSWEEP], {"k", "H", "q", "p", "exact", "brute", "bound_lhs", "bound_rhs", "slack"},
                 {"rows", "mismatches", "verdict"}),
}


def _cached_records(out_dir):
    return [json.loads(path.read_text()) for path in sorted((out_dir / "cache").glob("*.json"))]


def test_every_op_has_a_run_case():
    assert set(_OP_RUNS) == set(cli._OPS) - {"check"}


@pytest.mark.parametrize("op", sorted(_OP_RUNS))
def test_every_op_runs_from_the_command_line(tmp_path, op):
    flags, row_keys, summary_keys = _OP_RUNS[op]
    assert main(["run", "--op", op, "--system", "cyclic:13", *flags, "--out", str(tmp_path)]) == 0
    [record] = _cached_records(tmp_path)
    assert record["rows"] and {key for row in record["rows"] for key in row} == row_keys
    assert set(record["summary"]) == summary_keys


def test_boxsweep_subcommand_matches_the_run_op(tmp_path):
    assert main(["boxsweep", "--k-values", "1,2", "--H-max", "3", "--q-max", "6", "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--op", "boxsweep", "--extra", _BOXSWEEP, "--out", str(tmp_path / "b")]) == 0
    [a], [b] = _cached_records(tmp_path / "a"), _cached_records(tmp_path / "b")
    assert a["rows"] and a["rows"] == b["rows"]


def test_sweep_runs_every_seed_and_order(tmp_path, capsys):
    argv = ["sweep", "--op", "ww", "--system", "cyclic:13", "--N", "16", "--seeds", "1,2", "--k-values", "1,2"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("== seed") == 4
    assert sorted((r["config"]["seed"], r["config"]["k"]) for r in _cached_records(tmp_path)) == \
        [(1, 1), (1, 2), (2, 1), (2, 2)]


def _walk(system, y, a, N):
    """T^{a n} y for n = 1..N, found by walking the forward map."""
    orbit = [y]
    while (z := int(system.forward[orbit[-1]])) != y:
        orbit.append(z)
    return [orbit[(a * n) % len(orbit)] for n in range(1, N + 1)]


def test_hilbert_return_weights_take_every_companion_step():
    base, companion = cyclic_shift(13), cyclic_shift(7)
    f, g = random_mean_zero(base, 1), random_mean_zero(companion, 9)

    def rows(steps):
        weights = {"g": _random(9)[0], "y_point": 5, "steps": steps}
        return run_experiment(ExperimentConfig(
            op="hilbert", system=_CYCLE_13, system_b={"kind": "cyclic_shift", "p": 7}, functions=_random(1),
            x_point=3, schedule=list(range(1, 9)), extra={"return_weights": weights})).rows

    w = g.values[_walk(companion, 5, 1, 8)]  # multiplied as an orbit product is: the first factor, then *= the next
    w *= g.values[_walk(companion, 5, 2, 8)]
    expected = np.cumsum(w * f.values[_walk(base, 3, 1, 8)] / np.arange(1.0, 9) ** 1.0)
    got = rows([1, 2])
    assert [complex(r["re"], r["im"]) for r in got] == expected.tolist()
    assert got != rows([1])


def test_record_content_ignores_wall_time():
    cfg = ExperimentConfig(
        op="ww",
        system={"kind": "cyclic_shift", "p": 5},
        functions=[{"kind": "character", "j": 1}],
        schedule=[5],
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.content() == b.content()


def test_runner_rejects_missing_system():
    cfg = ExperimentConfig(op="mrec", functions=[{"kind": "table", "values": [[1.0, 0.0]]}])
    with pytest.raises(ConfigError):
        run_experiment(cfg)


# -- cache --------------------------------------------------------------------


def _tiny_record():
    cfg = ExperimentConfig(
        op="ww",
        system={"kind": "identity", "size": 2},
        functions=[{"kind": "table", "values": [[1.0, 0.0], [1.0, 0.0]]}],
        schedule=[4],
    )
    return run_experiment(cfg)


def test_cache_round_trip(tmp_path):
    rec = _tiny_record()
    path = cache_store(str(tmp_path), rec)
    assert path.endswith(f"{rec.config_hash}.json")
    hit = cache_lookup(str(tmp_path), rec.config_hash)
    assert hit is not None
    assert hit.content() == rec.content()


def test_cache_miss(tmp_path):
    assert cache_lookup(str(tmp_path), "0" * 16) is None


def test_cache_version_mismatch_recomputes(tmp_path):
    rec = _tiny_record()
    rec.library_version = "0.0.0-stale"
    cache_store(str(tmp_path), rec)
    notices = []
    assert cache_lookup(str(tmp_path), rec.config_hash, log=notices.append) is None
    assert any("version" in msg for msg in notices)


def test_cache_recomputes_records_from_other_numerics(tmp_path, monkeypatch):
    rec = _tiny_record()
    path = cache_store(str(tmp_path), rec)
    assert cache_lookup(str(tmp_path), rec.config_hash).numerics_digest == cli.numerics_digest()
    monkeypatch.setattr(cli, "numerics_digest", lambda: "0" * 32)
    notices = []
    assert cache_lookup(str(tmp_path), rec.config_hash, log=notices.append) is None
    assert any("numerics" in msg for msg in notices)
    # a record written before records carried a digest is recomputed too
    monkeypatch.undo()
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    del data["numerics_digest"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert cache_lookup(str(tmp_path), rec.config_hash, log=notices.append) is None
    # the digest stays out of the deterministic content
    assert "numerics_digest" not in rec.content()


def test_numerics_digest_is_not_computed_at_import():
    code = "import wwlab.cli as c; print(c.numerics_digest.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "0"


def test_cache_quarantines_corrupt_records(tmp_path):
    rec = _tiny_record()
    path = cache_store(str(tmp_path), rec)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    notices = []
    assert cache_lookup(str(tmp_path), rec.config_hash, log=notices.append) is None
    assert any("quarantined" in msg for msg in notices)
    leftovers = list(tmp_path.glob("*.corrupt-*"))
    assert len(leftovers) == 1


# -- reports ------------------------------------------------------------------


def test_emit_report_csv(tmp_path):
    rec = _tiny_record()
    (path,) = emit_report([rec], "csv", str(tmp_path))
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "config_hash,N,lower,upper"
    assert len(lines) == 1 + len(rec.rows)
    assert lines[1].startswith(rec.config_hash)


def test_emit_report_json_and_plotdata(tmp_path):
    rec = _tiny_record()
    (jpath,) = emit_report([rec], "json", str(tmp_path))
    data = json.load(open(jpath, encoding="utf-8"))
    assert data[0]["config_hash"] == rec.config_hash
    (ppath,) = emit_report([rec], "plotdata", str(tmp_path))
    payload = json.load(open(ppath, encoding="utf-8"))
    assert payload[0]["points"]  # log-log rows present


def test_emit_report_requires_records(tmp_path):
    with pytest.raises(ReportError):
        emit_report([], "csv", str(tmp_path))
    with pytest.raises(ReportError):
        emit_report([_tiny_record()], "yaml", str(tmp_path))


# -- command line -------------------------------------------------------------


def test_main_run_and_cache_hit(tmp_path, capsys):
    argv = [
        "run", "--op", "ww", "--system", "identity:4",
        "--f", "table:1,1,1,1", "--N", "4,8", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "config" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "cache hit" in second


def test_main_config_error_exit_code(tmp_path, capsys):
    assert main(["run", "--op", "nope", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_bad_flag_exit_code():
    assert main(["run", "--not-a-flag"]) == 2


def test_main_failing_check_exit_code(tmp_path, monkeypatch, capsys):
    def refuted():  # a constant-free row with negative slack fails the shared rule
        yield CheckRow(1, 2.0, 1.0, 2.0, -1.0, -1.0)

    monkeypatch.setitem(wwlab.analysis._REGISTRY, "stub", wwlab.analysis._Check(refuted, "exact", tol=0.0))
    code = main(["run", "--op", "check:stub", "--no-cache", "--out", str(tmp_path)])
    assert code == 1
    assert "verdict: False" in capsys.readouterr().out


_LONG_SEQUENCE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from wwlab.cli import main
sys.exit(main(["run", "--op", sys.argv[1], "--extra", sys.argv[2], "--no-cache", "--out", sys.argv[3]]))
"""


@pytest.mark.parametrize("op, length", [(op, length) for op in ("check:vdc", "check:vdc_sup", "check:hilbert_cauchy")
                                        for length in (10**8, 2**40)] + [("check:holder_averages", 2**40)])
def test_pure_sequence_checks_refuse_long_sequences_before_drawing(tmp_path, op, length):
    # each would draw `length` points before any other check; under the child's
    # 1 GiB address-space cap that ended in a numpy MemoryError traceback (exit 1)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    env.pop("WWLAB_BUDGET", None)
    out = subprocess.run([sys.executable, "-c", _LONG_SEQUENCE, op, json.dumps({"length": length}), str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 2, out.stderr
    assert "budget refusal" in out.stderr


def test_main_report_round_trip(tmp_path, capsys):
    run = [
        "run", "--op", "ww", "--system", "cyclic:5", "--f", "character:1",
        "--N", "5,10", "--out", str(tmp_path),
    ]
    assert main(run) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "report.csv" in out


def test_main_selftest_single_criterion(capsys):
    assert main(["selftest", "--criteria", "2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "1/1 criteria passed" in out


# -- the config schema ---------------------------------------------------------


def _spec(kind, **fields):
    return {"kind": kind, **fields}


_C521 = _spec("cyclic_shift", p=521)
_R16384 = _spec("random_permutation", size=16384, seed=7)
_R4096 = _spec("random_permutation", size=4096, seed=8)
_WINDOW = {"system": _C521, "functions": [_spec("random", seed=2)], "seed": 2, "k": 1, "schedule": [64, 128, 256, 512]}
_RETURN_EXTRA = {"exponents": [1, 2], "return_weights": {"g": _spec("random", seed=9), "y_point": 5, "steps": [1]}}


def _pointwise(x):
    return [
        {"op": "hilbert", "system": _R16384, "seed": 0, "x_point": x, "sigma": 0.9, "schedule": [64, 4096],
         "extra": {"phase_t": [0.5]}},
        {"op": "hilbert", "system": _R16384, "system_b": _R4096, "functions": _random(11, 12), "x_point": x,
         "sigma": 0.9, "schedule": [64, 4096], "extra": _RETURN_EXTRA},
    ]


# the seed-0 configs of the benchmark workloads (bench/workloads.py) and their config hashes
_BENCH_CONFIGS = [
    ({"op": "ww", "system": _spec("random_permutation", size=8192, seed=1), "functions": _random(1), "k": 1,
      "schedule": [256, 1024]}, "6bf1332b52afa01e"),
    ({"op": "ww", "system": _C521, "functions": _random(3), "k": 2, "schedule": [64, 256]}, "64a87d2e36f65507"),
    ({"op": "weak_ww", "system": _C521, "seed": 0, "k": 2, "schedule": [256]}, "2a0fcac2dd2de51b"),
    ({"op": "ww", "system": _spec("cyclic_shift", p=97), "functions": _random(5), "k": 3, "schedule": [64]},
     "41dbb0f9c6675e8b"),
    ({"op": "mrec", "system": _C521, "functions": _random(2), "seed": 2, "k": 1, "schedule": [64, 256]},
     "e7523df2e8cdd0de"),
    ({"op": "mrec", "system": _spec("cyclic_shift", p=131), "functions": _random(4), "seed": 4, "k": 2,
      "schedule": [64]}, "204a8133cf4c0bab"),
    (dict(_WINDOW, op="check", check_name="bourgain"), "28db50cbb22272d1"),
    (dict(_WINDOW, op="check", check_name="reverse_bourgain"), "df65446306269086"),
    *zip(_pointwise(3) + _pointwise(5464) + _pointwise(10925), [
        "e7b7a2c3ffc9318b", "461e3e39d4b86bc5", "7ec8d906d98b6a60", "33dc3c4df5d7ad13", "de7056d6e1ccc1c9",
        "ceb16d44e7c3d97a"]),
    ({"op": "return_times", "system": _R16384, "system_b": _R4096, "seed": 0, "x_point": 3, "schedule": [256, 1024],
      "extra": {"poly": [0, 0, 1]}}, "9beea7fc3da084eb"),
]


@pytest.mark.parametrize("config, digest", _BENCH_CONFIGS)
def test_benchmark_config_hashes_are_pinned(config, digest):
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config))).config_hash == digest


@pytest.mark.parametrize("field, value, message", [
    ("seed", 1.5, "seed must be an integer"),
    ("degree", 2.5, "degree must be an integer"),
    ("oversample", 16.5, "oversample must be an integer"),
    ("k", True, "k must be an integer"),
    ("schedule", [8.7], "schedule[0] must be an integer"),
    ("schedule", [16, 8], "strictly increasing"),
    ("sigma", 0, "sigma must be a finite number in (0, 1]"),
    ("functions", [5], "functions[0] must be a JSON object"),
    ("functions", [{"kind": "random"}], "needs 'seed'"),
    ("functions", [{"kind": "random", "seed": 1, "j": 2}], "unknown key 'j'"),
    ("system", {"kind": "cyclic_shift", "p": 13, "size": 4}, "system: unknown key 'size'"),
    ("system", {"kind": "cyclic_shift", "p": 1 << 21}, "system key 'p' must be an integer in [1, 1048576]"),
    ("system", {"kind": "product", "a": {"kind": "identity", "size": 2}, "b": 5}, "system.b must be a JSON object"),
    ("extra", {"restarts": 2}, "extra: unknown key 'restarts'"),
    ("check_name", "bourgain", "only op 'check' reads a check_name"),
])
def test_malformed_config_values_are_refused(tmp_path, capsys, field, value, message):
    config = {"op": "ww", "system": _CYCLE_13, "functions": _random(1), "schedule": [8], field: value}
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(tmp_path / "c.json"), "--no-cache", "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


# one small config per op; the fuzz test sets one field, extra key or spec field of it to any JSON value
_FUZZ_BASES = {
    "ww": {"k": 2}, "weak_ww": {"k": 2}, "decay": {}, "precsim": {"functions": _random(1, 2)},
    "offdiag": {"k": 2, "functions": _random(1, 2)}, "mrec": {}, "polyphase": {"degree": 2},
    "return_times": {"system_b": {"kind": "cyclic_shift", "p": 5}},
    "hilbert": {"system_b": {"kind": "cyclic_shift", "p": 5}, "extra": {"return_weights": {}}},
    "boxsweep": {"extra": {"k_values": [1, 2], "H_max": 3, "q_max": 6}},
    "check": {"check_name": "bourgain"},
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5,
)


def _fuzz_targets(op):
    """Paths into a config of op: every field, extra key, and system and function spec field."""
    extras = cli._EXTRAS.get(op) or [p for p in cli.check_parameters("bourgain") if p not in cli._OBJECT_PARAMS]
    nested = [("extra", "return_weights", key) for key in ("g", "y_point", "steps")] if op == "hilbert" else []
    specs = [("system", key) for key in ("kind", "p", "seed", "x")] + \
        [("functions", 0, key) for key in ("kind", "seed", "values", "left", "x")]
    return [(f,) for f in ExperimentConfig.__dataclass_fields__] + [("extra", key) for key in extras] + nested + specs


_FUZZ_TARGETS = st.sampled_from(sorted(_FUZZ_BASES)).flatmap(
    lambda op: st.tuples(st.just(op), st.sampled_from(_fuzz_targets(op))))


@settings(max_examples=150)
@given(_FUZZ_TARGETS, _JSON)
def test_any_json_value_exits_0_or_2(target, value):
    op, path = target
    config = {"op": op, "system": _CYCLE_13, "functions": _random(1), "schedule": [8], **_FUZZ_BASES[op]}
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        assert main(["run", "--config", path, "--no-cache", "--budget", "1e7", "--out", out]) in (0, 2)
