"""The uniform exit-code contract of ``python -m repro.study``.

Every subcommand exits 0 on success, 1 when the analysis itself finds a
real problem (lint errors, chaos soundness breaks, cross-validation
false negatives), and 2 for usage errors — no other codes.  CI relies
on the distinction: a 1 is a finding worth a red build with artifacts,
a 2 is a broken invocation.
"""

import json

import pytest

from repro.study.cli import (
    EXIT_FINDINGS,
    EXIT_OK,
    EXIT_USAGE,
    main as cli_main,
)


class TestContractConstants:
    def test_values_are_pinned(self):
        assert (EXIT_OK, EXIT_FINDINGS, EXIT_USAGE) == (0, 1, 2)


class TestSuccessExits:
    def test_fingerprint(self, capsys):
        assert cli_main(["fingerprint"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert len(out) == 64
        int(out, 16)

    def test_lint_clean_app(self, capsys):
        assert cli_main(["lint", "GTC", "--nranks", "4"]) == EXIT_OK

    def test_chaos_single_app(self, capsys):
        rc = cli_main(["chaos", "--app", "FLASH/HDF5", "--nranks", "2",
                       "--no-cache"])
        assert rc == EXIT_OK

    def test_crossvalidate_single_app(self, capsys):
        rc = cli_main(["crossvalidate", "FLASH", "--nranks", "4",
                       "--no-cache"])
        assert rc == EXIT_OK


class TestFindingExits:
    def test_lint_app_with_errors(self, capsys):
        rc = cli_main(["lint", "FLASH", "--nranks", "4"])
        assert rc == EXIT_FINDINGS


class TestUsageExits:
    @pytest.mark.parametrize("argv", [
        ["--app", "NoSuchApp"],
        ["--app", "LAMMPS/Zarr"],
        ["lint"],
        ["lint", "NoSuchApp"],
        ["lint", "GTC", "--all"],
        ["chaos"],
        ["chaos", "--app", "NoSuchApp"],
        ["chaos", "--app", "FLASH/HDF5", "--plans", "nope"],
        ["crossvalidate"],
        ["crossvalidate", "NoSuchApp"],
        ["metrics"],
        ["metrics", "/no/such/metrics.json"],
    ], ids=lambda argv: " ".join(argv))
    def test_usage_errors_exit_2(self, capsys, argv):
        assert cli_main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.strip()

    def test_metrics_file_and_collect_conflict(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text("")
        rc = cli_main(["metrics", str(f), "--collect"])
        assert rc == EXIT_USAGE
        assert "exactly one" in capsys.readouterr().err

    def test_metrics_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text("this is not json lines\n")
        assert cli_main(["metrics", str(f)]) == EXIT_USAGE
        assert "JSON-lines" in capsys.readouterr().err


class TestRoundtripCheck:
    """``study roundtrip --check FILE``: damaged ``.rtrc`` files are
    findings (1), missing files are usage errors (2), never a
    traceback."""

    @pytest.fixture()
    def rtrc(self, tmp_path):
        from repro.tracer.columnar import ColumnarTrace
        from repro.tracer.events import Layer, TraceRecord
        from repro.tracer.trace import Trace

        trace = Trace(nranks=1, records=[TraceRecord(
            rid=0, rank=0, layer=Layer.POSIX, issuer=Layer.POSIX,
            func="pwrite", tstart=0.0, tend=0.1, path="/x", fd=3,
            offset=0, count=8, result=8)])
        path = tmp_path / "t.rtrc"
        ColumnarTrace.from_trace(trace).save(path)
        return path

    def test_valid_file_exits_0(self, capsys, rtrc):
        assert cli_main(["roundtrip", "--check", str(rtrc)]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        rc = cli_main(["roundtrip", "--check",
                       str(tmp_path / "nope.rtrc")])
        assert rc == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_truncated_file_exits_1(self, capsys, rtrc):
        rtrc.write_bytes(rtrc.read_bytes()[:20])
        assert cli_main(["roundtrip", "--check", str(rtrc)]) \
            == EXIT_FINDINGS
        assert "FAIL" in capsys.readouterr().out

    def test_bad_crc_exits_1(self, capsys, rtrc):
        raw = bytearray(rtrc.read_bytes())
        raw[-1] ^= 0xFF              # flip a checksum bit
        rtrc.write_bytes(bytes(raw))
        assert cli_main(["roundtrip", "--check", str(rtrc)]) \
            == EXIT_FINDINGS
        assert "checksum" in capsys.readouterr().out

    def test_not_even_rtrc_exits_1(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.rtrc"
        bogus.write_bytes(b"definitely not a trace container")
        assert cli_main(["roundtrip", "--check", str(bogus)]) \
            == EXIT_FINDINGS

    def test_mixed_good_and_bad_exits_1(self, capsys, rtrc, tmp_path):
        bad = tmp_path / "bad.rtrc"
        bad.write_bytes(rtrc.read_bytes()[:20])
        assert cli_main(["roundtrip", "--check", str(rtrc),
                         "--check", str(bad)]) == EXIT_FINDINGS

    def test_check_with_selection_is_usage_error(self, capsys, rtrc):
        rc = cli_main(["roundtrip", "--all", "--check", str(rtrc)])
        assert rc == EXIT_USAGE


class TestMetricsFlag:
    """The ``--metrics FILE`` side-channel and ``metrics`` subcommand."""

    def test_all_with_metrics_writes_jsonl(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        rc = cli_main(["all", "--nranks", "2", "--format", "json",
                       "--no-cache", "--metrics", str(out)])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        json.loads(captured.out)          # stdout stays pure JSON
        docs = [json.loads(line)
                for line in out.read_text().splitlines()]
        names = {d["metric"] for d in docs if "metric" in d}
        layers = {n.split(".")[0] for n in names}
        assert {"sim", "pfs", "posix", "study"} <= layers
        kinds = {d["type"] for d in docs if "metric" in d}
        assert {"counter", "gauge", "timer"} <= kinds

    def test_metrics_subcommand_renders_dashboard(self, capsys,
                                                  tmp_path):
        out = tmp_path / "metrics.json"
        assert cli_main(["all", "--nranks", "2", "--format", "json",
                         "--metrics", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert cli_main(["metrics", str(out)]) == EXIT_OK
        dashboard = capsys.readouterr().out
        assert "Counters and gauges" in dashboard
        assert "pfs.writes" in dashboard

    def test_chaos_with_metrics(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        rc = cli_main(["chaos", "--app", "FLASH/HDF5", "--nranks", "2",
                       "--metrics", str(out)])
        assert rc == EXIT_OK
        names = {json.loads(line).get("metric")
                 for line in out.read_text().splitlines()}
        assert any(n and n.startswith("pfs.") for n in names)

    def test_crossvalidate_with_metrics(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        rc = cli_main(["crossvalidate", "FLASH", "--nranks", "4",
                       "--metrics", str(out)])
        assert rc == EXIT_OK
        assert out.exists()

    def test_usage_error_leaves_no_metrics_file(self, capsys,
                                                tmp_path):
        out = tmp_path / "metrics.json"
        rc = cli_main(["chaos", "--app", "NoSuchApp",
                       "--metrics", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()


class TestMetricsDeterminism:
    def test_report_json_byte_identical_with_metrics(self, capsys,
                                                     tmp_path):
        """--jobs 2 --metrics must not change a byte of the report."""
        base = ["all", "--nranks", "2", "--format", "json",
                "--no-cache"]
        assert cli_main(base) == EXIT_OK
        without = capsys.readouterr().out
        out = tmp_path / "metrics.json"
        assert cli_main(base + ["--jobs", "2",
                                "--metrics", str(out)]) == EXIT_OK
        with_metrics = capsys.readouterr().out
        assert with_metrics == without
        assert out.exists()


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    """An analysis server for the serve-facing subcommands."""
    from repro.serve.server import ServeConfig, start_background
    from repro.study.cache import ResultCache

    cache = ResultCache(root=tmp_path_factory.mktemp("cli-serve"))
    handle = start_background(
        ServeConfig(workers=2, queue_limit=8, drain_s=2.0),
        cache=cache)
    try:
        yield handle
    finally:
        handle.stop()


class TestServeSubcommandUsage:
    @pytest.mark.parametrize("argv", [
        ["request"],
        ["request", "healthz"],
        ["request", "healthz", "--port", "1", "--param", "noequals"],
        ["request", "healthz", "--port", "1", "--json", "not json"],
        ["request", "healthz", "--port", "1", "--json", "[1,2]"],
        ["request", "healthz", "--port", "1", "--deadline", "nan"],
        ["request", "healthz", "--port", "1", "--deadline", "0"],
        ["serve", "--queue-limit", "0"],
        ["serve", "--workers", "0"],
        ["serve", "--default-deadline", "0"],
        ["serve", "--default-deadline", "nan"],
        ["cache"],
        ["cache", "vacuum"],
        ["cache", "prune"],
        ["cache", "prune", "--max-age-days", "-1"],
        ["cache", "prune", "--max-bytes", "-1"],
    ], ids=lambda argv: " ".join(argv))
    def test_usage_errors_exit_2(self, capsys, argv):
        assert cli_main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.strip()


class TestRequestSubcommand:
    def test_healthz_round_trip(self, capsys, live_server):
        rc = cli_main(["request", "healthz",
                       "--port", str(live_server.port)])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["result"]["status"] == "ok"

    def test_bad_request_exits_2(self, capsys, live_server):
        rc = cli_main(["request", "divine",
                       "--port", str(live_server.port)])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert "bad_request" in captured.err
        # the full response document still lands on stdout
        assert json.loads(captured.out)["ok"] is False

    def test_deadline_exits_1(self, capsys, live_server, slow_endpoint):
        rc = cli_main(["request", slow_endpoint,
                       "--port", str(live_server.port),
                       "--param", "seconds=3",
                       "--param", "token=cli-deadline",
                       "--deadline", "0.2"])
        assert rc == EXIT_FINDINGS
        assert "deadline" in capsys.readouterr().err

    def test_unreachable_server_exits_1(self, capsys):
        rc = cli_main(["request", "healthz", "--port", "1"])
        assert rc == EXIT_FINDINGS
        assert capsys.readouterr().err.strip()

    def test_out_file_written(self, capsys, live_server, tmp_path):
        out = tmp_path / "response.json"
        rc = cli_main(["request", "fingerprint",
                       "--port", str(live_server.port),
                       "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["ok"] is True

    def test_params_merge_json_then_param(self, capsys, live_server):
        rc = cli_main(["request", "cell",
                       "--port", str(live_server.port),
                       "--json", '{"app": "QMCPACK/HDF5", "nranks": 1}',
                       "--param", "app=Nek5000"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["label"] == "Nek5000-POSIX"


class TestCacheSubcommand:
    def test_stats_empty_store(self, capsys, tmp_path):
        rc = cli_main(["cache", "stats",
                       "--cache-dir", str(tmp_path / "empty")])
        assert rc == EXIT_OK
        assert "entries: 0" in capsys.readouterr().out

    def test_stats_json(self, capsys, tmp_path):
        rc = cli_main(["cache", "stats", "--format", "json",
                       "--cache-dir", str(tmp_path / "empty")])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == 0

    def test_prune_cycle(self, capsys, tmp_path):
        from repro.study.cache import ResultCache, cache_key

        root = tmp_path / "store"
        cache = ResultCache(root=root)
        for i in range(3):
            cache.put(cache_key("cli-prune", index=i), {"index": i})
        assert cli_main(["cache", "stats",
                         "--cache-dir", str(root)]) == EXIT_OK
        assert "entries: 3" in capsys.readouterr().out

        rc = cli_main(["cache", "prune", "--cache-dir", str(root),
                       "--max-bytes", "0", "--dry-run"])
        assert rc == EXIT_OK
        assert "would remove 3" in capsys.readouterr().out

        rc = cli_main(["cache", "prune", "--cache-dir", str(root),
                       "--max-bytes", "0", "--format", "json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["removed"] == 3
        assert cli_main(["cache", "stats",
                         "--cache-dir", str(root)]) == EXIT_OK
        assert "entries: 0" in capsys.readouterr().out


class TestStdoutPurity:
    def test_all_json_stdout_is_pure_json(self, capsys, tmp_path):
        rc = cli_main(["all", "--nranks", "2", "--jobs", "2",
                       "--format", "json",
                       "--cache-dir", str(tmp_path)])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stats must not pollute stdout
        assert doc["nranks"] == 2
        assert len(doc["cells"]) >= 25
        assert "cells" in captured.err  # the stats line, on stderr

    def test_warm_cache_serves_all_cells(self, capsys, tmp_path):
        argv = ["all", "--nranks", "2", "--format", "json",
                "--cache-dir", str(tmp_path)]
        assert cli_main(argv) == EXIT_OK
        first = capsys.readouterr()
        assert cli_main(argv) == EXIT_OK
        second = capsys.readouterr()
        assert second.out == first.out
        assert "(0 cached" in first.err
        assert "0 computed)" in second.err
