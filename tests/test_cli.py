"""Config parsing, the experiment runner, caching, reports, and exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import wwlab.analysis
from wwlab import cli
from wwlab.analysis import CheckRow, InequalityCheck
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
    def always_fails():
        row = CheckRow(1, 2.0, 1.0, 2.0, -1.0, -1.0)
        return InequalityCheck("stub", [row], 2.0, False, "exact")

    monkeypatch.setitem(wwlab.analysis._REGISTRY, "stub", always_fails)
    code = main(["run", "--op", "check:stub", "--no-cache", "--out", str(tmp_path)])
    assert code == 1
    assert "verdict: False" in capsys.readouterr().out


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
