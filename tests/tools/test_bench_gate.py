"""Tests for the CI perf-regression gate (tools/bench_gate.py)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_gate",
    Path(__file__).resolve().parents[2] / "tools" / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("bench_gate", bench_gate)
_SPEC.loader.exec_module(bench_gate)


def _doc(**overrides):
    doc = {"bench": "demo", "cpu_count": 4, "some_s": 1.0,
           "contracts": {}}
    doc.update(overrides)
    return doc


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRatioCeilings:
    def test_within_ceiling_passes(self):
        fresh = _doc(on_off_ratio=1.2,
                     contracts={"ratio_ceilings": {"on_off_ratio": 3.0}})
        assert bench_gate.check_ratio_contracts(fresh) == []

    def test_exceeding_ceiling_fails(self):
        fresh = _doc(on_off_ratio=3.5,
                     contracts={"ratio_ceilings": {"on_off_ratio": 3.0}})
        failures = bench_gate.check_ratio_contracts(fresh)
        assert len(failures) == 1
        assert "on_off_ratio" in failures[0]
        assert "ceiling" in failures[0]

    def test_missing_metric_fails(self):
        fresh = _doc(contracts={"ratio_ceilings": {"nope_ratio": 2.0}})
        failures = bench_gate.check_ratio_contracts(fresh)
        assert len(failures) == 1
        assert "missing" in failures[0]

    def test_no_contracts_is_clean(self):
        assert bench_gate.check_ratio_contracts(_doc()) == []

    def test_composes_with_warm_fraction(self):
        fresh = _doc(warm_fraction=0.5, on_off_ratio=9.0,
                     contracts={"ratio_ceilings": {"warm_fraction": 0.1,
                                                   "on_off_ratio": 3.0}})
        failures = bench_gate.check_ratio_contracts(fresh)
        assert len(failures) == 2


class TestRatioFloors:
    def test_above_floor_passes(self):
        fresh = _doc(speedup=2.5,
                     contracts={"ratio_floors": {"speedup": 2.0}})
        assert bench_gate.check_ratio_contracts(fresh) == []

    def test_below_floor_fails(self):
        fresh = _doc(speedup=1.5,
                     contracts={"ratio_floors": {"speedup": 2.0}})
        failures = bench_gate.check_ratio_contracts(fresh)
        assert len(failures) == 1
        assert "speedup" in failures[0] and "floor" in failures[0]

    def test_missing_metric_fails(self):
        fresh = _doc(contracts={"ratio_floors": {"speedup": 2.0}})
        failures = bench_gate.check_ratio_contracts(fresh)
        assert len(failures) == 1
        assert "missing" in failures[0]

    def test_floor_absent_on_small_hosts_is_not_enforced(self):
        # the parallel-runner bench declares its speedup floor only
        # where the host has the CPUs to meet it
        fresh = _doc(speedup=0.5,
                     contracts={"ratio_ceilings": {"warm_fraction": 0.1}},
                     warm_fraction=0.01)
        assert bench_gate.check_ratio_contracts(fresh) == []

    def test_composes_with_ceilings(self):
        fresh = _doc(speedup=1.0, warm_fraction=0.5,
                     contracts={"ratio_ceilings": {"warm_fraction": 0.1},
                                "ratio_floors": {"speedup": 2.0}})
        failures = bench_gate.check_ratio_contracts(fresh)
        assert len(failures) == 2


class TestMainExitCodes:
    def test_ok_run(self, tmp_path, capsys):
        doc = _doc(on_off_ratio=1.1,
                   contracts={"ratio_ceilings": {"on_off_ratio": 3.0}})
        rc = bench_gate.main([
            "--baseline", _write(tmp_path, "base.json", doc),
            "--fresh", _write(tmp_path, "fresh.json", doc)])
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_ratio_breach_exits_1(self, tmp_path, capsys):
        base = _doc(on_off_ratio=1.1,
                    contracts={"ratio_ceilings": {"on_off_ratio": 3.0}})
        fresh = _doc(on_off_ratio=4.0,
                     contracts={"ratio_ceilings": {"on_off_ratio": 3.0}})
        rc = bench_gate.main([
            "--baseline", _write(tmp_path, "base.json", base),
            "--fresh", _write(tmp_path, "fresh.json", fresh)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err

    def test_absolute_regression_exits_1(self, tmp_path, capsys):
        base = _doc(some_s=1.0)
        fresh = _doc(some_s=2.0)
        rc = bench_gate.main([
            "--baseline", _write(tmp_path, "base.json", base),
            "--fresh", _write(tmp_path, "fresh.json", fresh),
            "--tolerance", "1.5"])
        assert rc == 1

    def test_cross_host_skips_absolute_but_keeps_ratio(self, tmp_path,
                                                       capsys):
        base = _doc(cpu_count=64, some_s=0.001)
        fresh = _doc(cpu_count=4, some_s=9.0, on_off_ratio=4.0,
                     contracts={"ratio_ceilings": {"on_off_ratio": 3.0}})
        rc = bench_gate.main([
            "--baseline", _write(tmp_path, "base.json", base),
            "--fresh", _write(tmp_path, "fresh.json", fresh)])
        captured = capsys.readouterr()
        assert "skipped" in captured.out
        assert rc == 1  # the machine-independent ratio still gates

    def test_bench_name_mismatch_exits_2(self, tmp_path):
        rc = bench_gate.main([
            "--baseline", _write(tmp_path, "base.json",
                                 _doc(bench="a")),
            "--fresh", _write(tmp_path, "fresh.json", _doc(bench="b"))])
        assert rc == 2

    def test_unreadable_baseline_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            bench_gate.main([
                "--baseline", str(tmp_path / "missing.json"),
                "--fresh", _write(tmp_path, "fresh.json", _doc())])
        assert exc.value.code == 2
