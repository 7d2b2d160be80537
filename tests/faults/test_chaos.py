"""Chaos harness: determinism, soundness, CLI plumbing."""

import json

import pytest

from repro.apps.registry import find_variant
from repro.core.semantics import Semantics
from repro.faults import CrashEvent, FaultPlan
from repro.pfs.chaos import (
    ChaosCell,
    default_fault_plans,
    run_chaos,
)
from repro.study.cli import main


@pytest.fixture(scope="module")
def flash_report():
    variant = find_variant("FLASH", "HDF5", "fbs")
    return run_chaos([variant], nranks=2, seed=7)


class TestMatrix:
    def test_default_plans_cover_the_taxonomy(self):
        plans = default_fault_plans(seed=0)
        names = [p.name for p in plans]
        assert names == ["fault-free", "ost-crash", "mds-crash",
                         "cache-drop", "flaky-servers"]
        assert plans[0].empty and not any(p.empty for p in plans[1:])

    def test_full_matrix_is_sound_for_flash(self, flash_report):
        assert flash_report.ok
        # 5 plans x 3 semantics
        assert len(flash_report.cells) == 15
        assert {c.semantics for c in flash_report.cells} \
            == {"commit", "session", "object"}

    def test_faults_actually_fire(self, flash_report):
        by_plan = {}
        for c in flash_report.cells:
            by_plan.setdefault(c.plan, []).append(c)
        assert all(c.faults_fired == 0
                   for c in by_plan["fault-free"])
        for plan in ("ost-crash", "mds-crash", "cache-drop",
                     "flaky-servers"):
            assert any(c.faults_fired for c in by_plan[plan]), plan
        # the OST crash must force actual retries somewhere
        assert any(c.retries for c in by_plan["ost-crash"])

    def test_identical_seed_and_plan_give_byte_identical_json(self):
        variant = find_variant("LAMMPS", "ADIOS")
        a = run_chaos([variant], nranks=2, seed=7)
        b = run_chaos([variant], nranks=2, seed=7)
        assert a.to_json() == b.to_json()
        assert a.to_json().encode() == b.to_json().encode()

    def test_json_is_canonical_and_parseable(self, flash_report):
        doc = json.loads(flash_report.to_json())
        assert doc["ok"] is True
        assert len(doc["cells"]) == 15
        assert doc["plans"] == ["fault-free", "ost-crash", "mds-crash",
                                "cache-drop", "flaky-servers"]

    def test_broken_recovery_is_flagged_unsound(self):
        variant = find_variant("FLASH", "HDF5", "fbs")
        broken = FaultPlan(
            name="broken-ost", seed=7, broken_recovery=True,
            crashes=(CrashEvent("ost:0", at_op=8),))
        # stripes smaller than FLASH's 1 KiB writes guarantee any
        # crash-hit write straddles OSTs, so buggy recovery must tear
        report = run_chaos([variant], nranks=2, seed=7, plans=[broken],
                           semantics=(Semantics.COMMIT,),
                           stripe_size=256)
        assert not report.ok
        kinds = {v["kind"] for c in report.cells for v in c.violations}
        assert "torn-visible" in kinds
        assert "VIOLATION" in report.to_text()

    def test_text_report_mentions_every_cell(self, flash_report):
        text = flash_report.to_text()
        assert "FLASH-HDF5 fbs" in text
        assert "15 cells, 0 unsound" in text


class TestCellJudgement:
    def test_cell_ok_logic(self):
        cell = ChaosCell(label="x", plan="p", semantics="commit")
        assert cell.ok
        assert not ChaosCell(label="x", plan="p", semantics="commit",
                             unattributed=["/f"]).ok
        assert not ChaosCell(label="x", plan="p", semantics="commit",
                             violations=[{"kind": "torn-visible"}]).ok


class TestCli:
    def test_chaos_cli_text(self, capsys):
        rc = main(["chaos", "--app", "LAMMPS/NetCDF", "--nranks", "2",
                   "--plans", "ost-crash"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "LAMMPS-NetCDF" in out and "ost-crash" in out

    def test_chaos_cli_json_out(self, tmp_path, capsys):
        target = tmp_path / "chaos.json"
        rc = main(["chaos", "--app", "LAMMPS/NetCDF", "--nranks", "2",
                   "--plans", "fault-free", "--format", "json",
                   "--out", str(target)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(target.read_text())
        assert doc["ok"] is True

    def test_chaos_cli_usage_errors(self, capsys):
        assert main(["chaos"]) == 2
        assert main(["chaos", "--app", "NoSuchApp"]) == 2
        assert main(["chaos", "--app", "FLASH", "--plans", "bogus"]) == 2
        capsys.readouterr()

    def test_chaos_cli_list_plans(self, capsys):
        assert main(["chaos", "--list-plans"]) == 0
        out = capsys.readouterr().out
        assert "flaky-servers" in out
