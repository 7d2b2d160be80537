"""The ``study staticcheck`` subcommand and the serve endpoint.

Both front ends must key their cells identically ("staticcheck-cell"),
so a cell computed by the batch CLI is a warm cache hit for the
service and vice versa.
"""

import json

import pytest

from repro.serve.handlers import (
    ENDPOINTS,
    endpoint_catalog,
    prepare_staticcheck,
    request_key,
)
from repro.serve.protocol import BadRequest
from repro.study.cache import ResultCache, cache_key
from repro.study.cli import (
    EXIT_FINDINGS,
    EXIT_OK,
    EXIT_USAGE,
    main as cli_main,
)
from repro.study.parallel import staticcheck_task


class TestCliExitCodes:
    def test_single_app_sound(self, capsys):
        rc = cli_main(["staticcheck", "GTC", "--nranks", "2",
                       "--no-cache"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "GTC-POSIX" in out and "sound" in out

    @pytest.mark.parametrize("argv", [
        ["staticcheck"],
        ["staticcheck", "NoSuchApp"],
        ["staticcheck", "GTC", "--all"],
        ["staticcheck", "LAMMPS/Zarr"],
    ], ids=lambda argv: " ".join(argv))
    def test_usage_errors_exit_2(self, capsys, argv):
        assert cli_main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.strip()

    def test_json_format_shape(self, capsys):
        rc = cli_main(["staticcheck", "LAMMPS/ADIOS", "--nranks", "2",
                       "--no-cache", "--format", "json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        (cell,) = doc["cells"]
        assert cell["label"] == "LAMMPS-ADIOS"
        assert cell["exact"] is True
        assert set(cell["semantics"]) == {"strong", "commit",
                                          "session", "eventual",
                                          "object"}

    def test_unsound_cell_exits_1(self, capsys, tmp_path):
        # seed the cache with a fabricated unsound cell: the CLI must
        # surface it as a finding (exit 1) with the missed keys listed
        from repro.apps.registry import APPLICATIONS, find_spec

        variant = find_spec("GTC").variants[0]
        cache = ResultCache(root=tmp_path)
        key = cache_key("staticcheck-cell", label=variant.label,
                        options=dict(sorted(variant.options.items())),
                        nranks=2, seed=7)
        cache.put(key, {
            "label": variant.label, "nranks": 2, "seed": 7,
            "exact": True, "groups": 1, "pairs_checked": 1,
            "semantics": {"session": {
                "predicted": 0, "observed": 1, "matched": 0,
                "missed": ["/gtc/x WAW-D"], "precision": 1.0}},
            "sound": False, "precision": 1.0, "ok": False})
        rc = cli_main(["staticcheck", "GTC", "--nranks", "2",
                       "--cache-dir", str(tmp_path)])
        assert rc == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "MISSED CONFLICTS" in out
        assert "/gtc/x WAW-D" in out

    def test_out_file_written(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = cli_main(["staticcheck", "Nek5000", "--nranks", "2",
                       "--no-cache", "--format", "json",
                       "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["ok"] is True


class TestServeEndpoint:
    def test_registered_and_advertised(self):
        ep = ENDPOINTS["staticcheck"]
        assert ep.prepare is prepare_staticcheck
        assert not ep.inline
        names = {e["name"] for e in endpoint_catalog()}
        assert "staticcheck" in names

    def test_key_is_shared_with_the_batch_cli(self):
        prepared = prepare_staticcheck(
            {"app": "LAMMPS/ADIOS", "nranks": 2, "seed": 7})
        variant = prepared.task[0]
        assert prepared.kind == "staticcheck-cell"
        assert prepared.key == cache_key(
            "staticcheck-cell", label=variant.label,
            options=dict(sorted(variant.options.items())),
            nranks=2, seed=7)
        assert prepared.worker is staticcheck_task
        assert request_key("staticcheck",
                           {"app": "LAMMPS/ADIOS", "nranks": 2,
                            "seed": 7}) == prepared.key

    def test_worker_round_trip(self):
        prepared = prepare_staticcheck({"app": "GTC", "nranks": 2})
        payload = prepared.worker(prepared.task)
        assert payload["ok"] is True
        assert payload["label"] == "GTC-POSIX"

    @pytest.mark.parametrize("params,fragment", [
        ({}, "'app'"),
        ({"app": "NoSuchApp"}, "unknown application"),
        ({"app": "FLASH/HDF5"}, "ambiguous"),
        ({"app": "GTC", "nranks": 0}, "'nranks'"),
        ({"app": "GTC", "nranks": 2, "bogus": 1}, "unknown parameter"),
    ])
    def test_bad_requests(self, params, fragment):
        with pytest.raises(BadRequest, match=fragment):
            prepare_staticcheck(params)
