"""Tests of the benchmark itself: its checks catch planted wrong answers,
its layer tracer accounts self time, and it refuses to run without the
program.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.apps.registry import all_variants  # noqa: E402

VARIANTS = {v.label: v for v in all_variants()}


def _failed(cells) -> int:
    return run._tally(cells)[1]


def test_metric_tables_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.PER_LAYER
    assert set(workloads.WORKLOADS) == {w["name"] for w in bench["workloads"]}


def test_matrix_check_catches_a_wrong_cell(tmp_path, monkeypatch):
    wl = workloads.Matrix64(7, tmp_path, nranks=8, variants=[
        VARIANTS["VASP-POSIX"], VARIANTS["FLASH-HDF5 fbs"]])
    wl.setup()
    assert _failed(wl.run_pass()) == 0

    real = workloads.runner.cell_summary

    def wrong(variant, *args, **kwargs):
        cell = real(variant, *args, **kwargs)
        if variant.application == "FLASH":
            cell["conflicts"]["commit"]["flags"]["WAW-D"] = True
        return cell

    monkeypatch.setattr(workloads.runner, "cell_summary", wrong)
    cells = wl.run_pass()
    attempted, failed, problems = run._tally(cells)
    assert (attempted, failed) == (3, 1)
    assert "commit flags" in problems[0]


def test_synth_check_catches_a_dropped_conflict(tmp_path, monkeypatch):
    wl = workloads.Synth250k(42, tmp_path, n_ops=5_000)
    wl.setup()
    wl.reference()
    assert _failed(wl.run_pass()) == 0

    real = workloads.repro.core.report.detect_conflicts

    def drop_first(*args, **kwargs):
        cs = real(*args, **kwargs)
        return dataclasses.replace(cs, conflicts=cs.conflicts[1:])

    monkeypatch.setattr(workloads.repro.core.report, "detect_conflicts",
                        drop_first)
    cells = wl.run_pass()
    attempted, failed, _ = run._tally(cells)
    assert attempted == 4 and failed >= 1


def test_consumer_check_catches_an_unpredicted_corruption(tmp_path,
                                                          monkeypatch):
    wl = workloads.Consumers16(7, tmp_path, nranks=8,
                               variants=[VARIANTS["VASP-POSIX"]])
    wl.setup()
    assert _failed(wl.run_pass()) == 0

    real = workloads.replay.replay_trace

    def corrupting(trace, config):
        result = real(trace, config)
        result.corrupted_files.append("/never/predicted")
        return result

    monkeypatch.setattr(workloads.replay, "replay_trace", corrupting)
    attempted, failed, problems = run._tally(wl.run_pass())
    assert (attempted, failed) == (5, 2)
    assert all("unpredicted" in p for p in problems)


def test_self_time_excludes_children_on_the_same_thread():
    tracer = layers.LayerTracer(set())

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        tracer.call("b", "child", child, (), {})
        tracer.call("a", "same-layer", child, (), {})  # not a new span

    tracer.call("a", "parent", parent, (), {})
    assert tracer.calls == {"a": 1, "b": 1}
    assert tracer.self_s["a"] == pytest.approx(
        tracer.total_s["a"] - tracer.total_s["b"])
    assert 0.02 < tracer.self_s["a"] < tracer.total_s["a"]
    (child_span, parent_span) = tracer.spans
    assert child_span[1] == parent_span[0]


def test_tracer_counts_layers_and_restores_the_program():
    from repro.posix.api import PosixAPI
    from repro.study import runner

    before = (PosixAPI.__dict__["write"], runner.cell_summary)
    with layers.LayerTracer() as tracer:
        runner.cell_summary(VARIANTS["VASP-POSIX"], nranks=4, seed=7)
    assert (PosixAPI.__dict__["write"], runner.cell_summary) == before
    assert tracer.calls["apps"] == 4
    assert tracer.calls["posix"] > 0 and tracer.handoffs() > 0
    assert tracer.counts["tracer.records"] > 0
    assert tracer.calls["study.cell_summary"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix64",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
