"""Exit-code and output contracts of ``python -m repro.study lint``."""

import json

from repro.study.cli import main


class TestUsageErrors:
    def test_no_target_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_both_targets_is_usage_error(self, capsys):
        assert main(["lint", "FLASH", "--all"]) == 2

    def test_unknown_app_is_usage_error(self, capsys):
        assert main(["lint", "NoSuchApp"]) == 2
        assert "unknown application" in capsys.readouterr().err

    def test_unknown_library_is_usage_error(self, capsys):
        assert main(["lint", "FLASH/netcdf"]) == 2

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "FLASH", "--rules", "bogus-rule"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err


class TestListRules:
    def test_catalogue_has_eleven_entries(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 11
        assert lines[0].startswith("L001")
        assert "commit-hazard" in lines[0]
        assert lines[-1].startswith("L011")
        assert "rename-as-commit" in lines[-1]


class TestExitCodes:
    def test_app_with_errors_exits_one(self, capsys):
        assert main(["lint", "FLASH", "--nranks", "4"]) == 1
        assert "session-hazard" in capsys.readouterr().out

    def test_clean_app_exits_zero(self, capsys):
        # Nek5000 re-reads its own output within one rank: no
        # cross-process hazards, hence no ERROR diagnostics
        assert main(["lint", "Nek5000", "--nranks", "4"]) == 0

    def test_rule_subset_can_silence_errors(self, capsys):
        assert main(["lint", "FLASH", "--nranks", "4",
                     "--rules", "dead-commit"]) == 0

    def test_dispatch_through_study_main(self, capsys):
        assert main(["lint", "--list-rules"]) == 0


class TestJsonOutput:
    def test_single_app_json_contract(self, capsys):
        # VPIC-IO has exactly one variant, so this exercises the
        # single-report JSON shape (FLASH/LAMMPS render as campaigns)
        code = main(["lint", "VPIC-IO", "--nranks", "4",
                     "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert doc["exit_code"] == code == 0
        assert doc["nranks"] == 4
        assert doc["diagnostics"]
        assert all({"rule", "severity", "message"} <= set(d)
                   for d in doc["diagnostics"])

    def test_multi_variant_json_is_a_campaign(self, capsys):
        code = main(["lint", "LAMMPS", "--nranks", "4",
                     "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert len(doc["runs"]) >= 2   # LAMMPS has several variants
        assert doc["exit_code"] == code
        assert "summary" in doc

    def test_out_writes_same_text(self, capsys, tmp_path):
        out = tmp_path / "lint" / "flash.json"
        main(["lint", "FLASH", "--nranks", "4", "--format", "json",
              "--out", str(out)])
        printed = capsys.readouterr().out
        assert out.read_text() == printed.rstrip("\n") + "\n"
        json.loads(out.read_text())

    def test_json_is_deterministic(self, capsys):
        main(["lint", "FLASH", "--nranks", "4", "--format", "json"])
        first = capsys.readouterr().out
        main(["lint", "FLASH", "--nranks", "4", "--format", "json"])
        assert capsys.readouterr().out == first


class TestFullCampaign:
    def test_all_json_contract(self, capsys):
        code = main(["lint", "--all", "--nranks", "4", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["runs"]) == 28
        assert code == doc["exit_code"]
