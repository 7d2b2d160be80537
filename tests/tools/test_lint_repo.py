"""The repository self-lint: unit checks + the tier-1 clean gate."""

import ast
import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent


def _load_lint_repo():
    spec = importlib.util.spec_from_file_location(
        "lint_repo", REPO / "tools" / "lint_repo.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations via sys.modules at class
    # creation time, so the module must be registered before exec
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


lint_repo = _load_lint_repo()


def check(fn, source, name="x.py"):
    return fn(ast.parse(source), Path(name))


class TestBareExcept:
    def test_bare_except_flagged(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        out = check(lint_repo.check_no_bare_except, src)
        assert len(out) == 1 and out[0].rule == "no-bare-except"
        assert out[0].line == 3

    def test_typed_except_ok(self):
        src = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert not check(lint_repo.check_no_bare_except, src)

    def test_except_tuple_ok(self):
        src = "try:\n    pass\nexcept (OSError, KeyError) as e:\n    pass\n"
        assert not check(lint_repo.check_no_bare_except, src)


class TestStorageImport:
    def test_direct_import_flagged(self):
        out = check(lint_repo.check_no_storage_from_apps,
                    "import repro.pfs.storage\n")
        assert out and out[0].rule == "no-storage-from-apps"

    def test_from_import_flagged(self):
        out = check(lint_repo.check_no_storage_from_apps,
                    "from repro.pfs.storage import ObjectStore\n")
        assert out

    def test_pfs_package_itself_flagged(self):
        out = check(lint_repo.check_no_storage_from_apps,
                    "from repro.pfs import replay\n")
        assert out

    def test_prefix_collision_not_flagged(self):
        # 'repro.pfsfoo' shares a string prefix but is a different package
        assert not check(lint_repo.check_no_storage_from_apps,
                         "import repro.pfsfoo\n")

    def test_other_imports_ok(self):
        assert not check(lint_repo.check_no_storage_from_apps,
                         "from repro.core.semantics import Semantics\n")


class TestFutureAnnotations:
    def test_module_with_defs_needs_import(self):
        out = check(lint_repo.check_future_annotations,
                    "def f():\n    pass\n")
        assert out and out[0].rule == "future-annotations"

    def test_module_with_import_ok(self):
        src = ("from __future__ import annotations\n"
               "class C:\n    pass\n")
        assert not check(lint_repo.check_future_annotations, src)

    def test_pure_reexport_module_exempt(self):
        assert not check(lint_repo.check_future_annotations,
                         "from repro.lint.runner import lint_trace\n")


class TestMutableDefaults:
    def test_list_display_flagged(self):
        out = check(lint_repo.check_no_mutable_default_args,
                    "def f(xs=[]):\n    return xs\n")
        assert len(out) == 1
        assert out[0].rule == "no-mutable-default-args"

    def test_dict_set_and_constructor_calls_flagged(self):
        src = ("def f(a={}, b=set(), *, c=dict(), d=list()):\n"
               "    return a, b, c, d\n")
        out = check(lint_repo.check_no_mutable_default_args, src)
        assert len(out) == 4

    def test_none_and_immutable_defaults_ok(self):
        src = ("def f(a=None, b=(), c=0, d='x', e=frozenset()):\n"
               "    return a, b, c, d, e\n")
        assert not check(lint_repo.check_no_mutable_default_args, src)

    def test_constructor_with_arguments_ok(self):
        # dict(...) with arguments is still one shared object, but the
        # rule targets the bare-container idiom; a seeded call is a
        # deliberate choice the author can defend in review
        src = "def f(a=dict(x=1)):\n    return a\n"
        assert not check(lint_repo.check_no_mutable_default_args, src)

    def test_lambda_and_nested_defs_scanned(self):
        src = ("class C:\n"
               "    def m(self, xs=[]):\n"
               "        return xs\n")
        out = check(lint_repo.check_no_mutable_default_args, src)
        assert len(out) == 1

    def test_kwonly_none_placeholder_ok(self):
        assert not check(lint_repo.check_no_mutable_default_args,
                         "def f(*, a=None):\n    return a\n")


class TestExportDrift:
    def test_stale_export_flagged(self):
        src = ("def real():\n    pass\n"
               "__all__ = ['real', 'ghost']\n")
        out = check(lint_repo.check_export_drift, src)
        assert len(out) == 1
        assert out[0].rule == "export-drift"
        assert "ghost" in out[0].message

    def test_all_binding_kinds_resolve(self):
        src = ("import os\n"
               "import os.path\n"
               "from sys import argv as args\n"
               "from json import loads\n"
               "CONST = 1\n"
               "A = B = 2\n"
               "x, y = 1, 2\n"
               "ann: int = 3\n"
               "class K:\n    pass\n"
               "async def g():\n    pass\n"
               "def f():\n    pass\n"
               "__all__ = ['os', 'args', 'loads', 'CONST', 'A', 'B',\n"
               "           'x', 'y', 'ann', 'K', 'g', 'f']\n")
        assert not check(lint_repo.check_export_drift, src)

    def test_conditional_bindings_resolve(self):
        src = ("try:\n"
               "    import numpy as np\n"
               "except ImportError:\n"
               "    np = None\n"
               "if True:\n"
               "    def maybe():\n        pass\n"
               "__all__ = ['np', 'maybe']\n")
        assert not check(lint_repo.check_export_drift, src)

    def test_star_import_module_skipped(self):
        src = ("from os.path import *\n"
               "__all__ = ['join', 'whatever']\n")
        assert not check(lint_repo.check_export_drift, src)

    def test_tuple_all_supported(self):
        src = "__all__ = ('missing',)\n"
        out = check(lint_repo.check_export_drift, src)
        assert len(out) == 1

    def test_module_without_all_ok(self):
        assert not check(lint_repo.check_export_drift,
                         "def f():\n    pass\n")


def check_loops(source, name="core.py"):
    return lint_repo.check_no_per_op_loops(
        ast.parse(source), Path(name), source)


class TestPerOpLoops:
    def test_for_over_records_flagged(self):
        out = check_loops("for r in trace.records:\n    use(r)\n")
        assert len(out) == 1 and out[0].rule == "no-per-op-loops"
        assert "'.records'" in out[0].message

    def test_comprehension_over_column_flagged(self):
        out = check_loops("xs = [int(v) for v in table.offset]\n")
        assert out and out[0].line == 1

    def test_wrapped_iteration_flagged(self):
        for src in ("for i, r in enumerate(t.records):\n    pass\n",
                    "for a, b in zip(t.rid, t.stop):\n    pass\n",
                    "for r in reversed(t.records):\n    pass\n"):
            assert check_loops(src), src

    def test_allowlist_comment_exempts(self):
        src = ("# lint: allow-per-op-loop (object path by design)\n"
               "for r in trace.records:\n"
               "    use(r)\n")
        assert not check_loops(src)

    def test_allowlist_on_same_line_exempts(self):
        src = ("for r in trace.records:  "
               "# lint: allow-per-op-loop (why)\n    use(r)\n")
        assert not check_loops(src)

    def test_plain_name_iteration_ok(self):
        assert not check_loops("for r in records:\n    use(r)\n")

    def test_non_column_attribute_ok(self):
        assert not check_loops("for e in trace.mpi_events:\n    use(e)\n")

    def test_tolist_copy_is_the_conversion_api(self):
        assert not check_loops(
            "for v in c['rid'].tolist():\n    use(v)\n")


def check_pipeline(source, name="x.py"):
    return lint_repo.check_no_pipeline_assembly(
        ast.parse(source), Path(name), source)


class TestPipelineAssembly:
    def test_each_stage_call_flagged(self):
        for name in ("reconstruct_offsets(trace.records)",
                     "detect_conflicts(vis, tables, s)",
                     "count_conflicts(vis, tables, s)",
                     "group_by_path(accesses)",
                     "VisibilityIndex(trace)"):
            out = check_pipeline(f"x = {name}\n")
            assert len(out) == 1, name
            assert out[0].rule == "no-pipeline-assembly"
            assert name.split("(")[0] in out[0].message

    def test_module_attribute_call_flagged(self):
        out = check_pipeline("cs = conflicts.detect_conflicts(v, t, s)\n")
        assert out and out[0].line == 1

    def test_report_accessors_ok(self):
        src = ("cs = report.conflicts(s, max_per_file=None)\n"
               "t = report.tables\n"
               "vis = VisibilityIndex.from_columnar(ct)\n"
               "n = count_conflicts_columnar(ct, s)\n")
        assert not check_pipeline(src)

    def test_bare_reference_without_call_ok(self):
        assert not check_pipeline("f = detect_conflicts\n")

    def test_allowlist_comment_exempts(self):
        above = ("# lint: allow-pipeline-assembly (oracle by design)\n"
                 "vis = VisibilityIndex(trace)\n")
        same = ("vis = VisibilityIndex(trace)  "
                "# lint: allow-pipeline-assembly (why)\n")
        assert not check_pipeline(above)
        assert not check_pipeline(same)

    def test_other_allow_marker_does_not_exempt(self):
        src = ("# lint: allow-per-op-loop (wrong marker)\n"
               "vis = VisibilityIndex(trace)\n")
        assert check_pipeline(src)


class TestOneGcPause:
    def test_disable_and_enable_calls_flagged(self):
        src = "import gc\ngc.disable()\nx = 1\ngc.enable()\n"
        out = check(lint_repo.check_one_gc_pause, src)
        assert [(v.rule, v.line) for v in out] == [
            ("one-gc-pause", 2), ("one-gc-pause", 4)]

    def test_from_import_flagged(self):
        out = check(lint_repo.check_one_gc_pause,
                    "from gc import collect, disable\n")
        assert len(out) == 1 and out[0].line == 1

    def test_other_gc_calls_ok(self):
        src = "import gc\ngc.collect()\nok = gc.isenabled()\n"
        assert not check(lint_repo.check_one_gc_pause, src)

    def test_only_records_module_exempt(self, tmp_path):
        for d in ("tools", "tests", "benchmarks"):
            (tmp_path / d).mkdir()
        body = ("from __future__ import annotations\n"
                "import gc\n"
                "def f():\n"
                "    gc.disable()\n")
        for sub in ("core", "lint"):
            (tmp_path / "src" / "repro" / sub).mkdir(parents=True)
            for name in ("records.py", "other.py"):
                (tmp_path / "src" / "repro" / sub / name).write_text(body)
        violations = lint_repo.lint_repo(tmp_path)
        assert sorted((v.rule, v.path.parent.name, v.path.name)
                      for v in violations) == [
            ("one-gc-pause", "core", "other.py"),
            ("one-gc-pause", "lint", "other.py"),
            ("one-gc-pause", "lint", "records.py")]


class TestWholeRepo:
    def test_repository_is_clean(self):
        violations = lint_repo.lint_repo()
        assert not violations, "\n".join(
            v.render() for v in violations[:20])

    def test_synthetic_repo_violations_found(self, tmp_path):
        (tmp_path / "src" / "repro" / "apps").mkdir(parents=True)
        (tmp_path / "tools").mkdir()
        for d in ("tests", "benchmarks"):
            (tmp_path / d).mkdir()
        bad_app = tmp_path / "src" / "repro" / "apps" / "cheat.py"
        bad_app.write_text(
            "from __future__ import annotations\n"
            "from repro.pfs.storage import ObjectStore\n"
            "def peek():\n"
            "    try:\n"
            "        return ObjectStore\n"
            "    except:\n"
            "        return None\n")
        bare_mod = tmp_path / "src" / "repro" / "naked.py"
        bare_mod.write_text("def f():\n    return 1\n")
        hot = tmp_path / "src" / "repro" / "core"
        hot.mkdir()
        (hot / "loopy.py").write_text(
            "from __future__ import annotations\n"
            "def f(trace):\n"
            "    for r in trace.records:\n"
            "        pass\n")
        violations = lint_repo.lint_repo(tmp_path)
        rules = sorted({v.rule for v in violations})
        assert rules == ["future-annotations", "no-bare-except",
                         "no-per-op-loops", "no-storage-from-apps"]

    def test_pipeline_rule_skips_core_only(self, tmp_path):
        for d in ("tools", "tests", "benchmarks"):
            (tmp_path / d).mkdir()
        body = ("from __future__ import annotations\n"
                "def f(accesses):\n"
                "    return group_by_path(accesses)\n")
        for sub in ("core", "lint"):
            (tmp_path / "src" / "repro" / sub).mkdir(parents=True)
            (tmp_path / "src" / "repro" / sub / "stage.py").write_text(body)
        violations = lint_repo.lint_repo(tmp_path)
        assert [(v.rule, v.path.parent.name) for v in violations] == [
            ("no-pipeline-assembly", "lint")]

    def test_cli_exit_codes(self, capsys):
        assert lint_repo.main([]) == 0
        assert "clean" in capsys.readouterr().out
        assert lint_repo.main(["--bogus"]) == 2
