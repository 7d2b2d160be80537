"""Tests for the metadata-conflict analyzer (paper §7 future work)."""

import posixpath

import pytest

from repro.apps.registry import all_variants
from repro.core.metadata_conflicts import (
    MetadataConflict,
    MetadataConflictKind,
    MetadataConflictSet,
    detect_metadata_conflicts,
    is_creating_open,
)
from repro.posix import flags as F
from repro.tracer.events import Layer, OPEN_OPS
from repro.tracer.recorder import Recorder


class Builder:
    def __init__(self, nranks=4):
        self.rec = Recorder(nranks)
        self.t = 0.0

    def _next(self):
        self.t += 1.0
        return self.t

    def op(self, rank, func, path, **kw):
        t = self._next()
        self.rec.record(rank, Layer.POSIX, func, t, t + 0.1, path=path,
                        **kw)
        return self

    def creating_open(self, rank, path):
        return self.op(rank, "open", path, fd=3,
                       args={"flags": F.O_WRONLY | F.O_CREAT,
                             "existed": False})

    def plain_open(self, rank, path):
        return self.op(rank, "open", path, fd=3,
                       args={"flags": F.O_RDONLY, "existed": True})

    def detect(self):
        return detect_metadata_conflicts(self.rec.build_trace())


class TestFileCreateUse:
    def test_cross_rank_open_after_create(self):
        mc = (Builder()
              .creating_open(0, "/d/f")
              .plain_open(1, "/d/f")
              .detect())
        assert len(mc) == 1
        c = mc.conflicts[0]
        assert c.kind is MetadataConflictKind.FILE_CREATE_USE
        assert c.cross_process and c.scope == "D"
        assert c.label == "file-create/use-D"

    def test_stat_after_create(self):
        mc = (Builder()
              .creating_open(0, "/f")
              .op(1, "stat", "/f")
              .detect())
        assert len(mc) == 1

    def test_same_rank_scope_s(self):
        mc = (Builder()
              .creating_open(0, "/f")
              .plain_open(0, "/f")
              .detect())
        assert len(mc) == 1
        assert not mc.conflicts[0].cross_process
        assert not mc.cross_process

    def test_reopen_with_existing_file_not_a_producer(self):
        """O_CREAT on an existing file creates nothing."""
        mc = (Builder()
              .op(0, "open", "/f", fd=3,
                  args={"flags": F.O_WRONLY | F.O_CREAT, "existed": True})
              .plain_open(1, "/f")
              .detect())
        assert len(mc) == 0

    def test_consumer_without_producer_ignored(self):
        mc = Builder().plain_open(1, "/pre-existing").detect()
        assert len(mc) == 0

    def test_unlink_consumes_then_clears(self):
        b = (Builder()
             .creating_open(0, "/f")
             .op(1, "unlink", "/f"))
        mc = b.detect()
        assert len(mc) == 1  # the unlink itself consumed the entry
        mc2 = b.plain_open(2, "/f").detect()
        assert len(mc2) == 1  # the open after unlink has no producer


class TestDirCreateUse:
    def test_create_inside_foreign_dir(self):
        mc = (Builder()
              .op(0, "mkdir", "/out")
              .creating_open(1, "/out/f")
              .detect())
        assert len(mc) == 1
        assert mc.conflicts[0].kind is MetadataConflictKind.DIR_CREATE_USE
        assert mc.conflicts[0].path == "/out"

    def test_readdir_consumes_dir(self):
        mc = (Builder()
              .op(0, "mkdir", "/out")
              .op(1, "readdir", "/out")
              .detect())
        assert len(mc) == 1


class TestRenameUse:
    def test_open_after_rename(self):
        mc = (Builder()
              .creating_open(0, "/tmp.part")
              .op(0, "rename", "/tmp.part", args={"to": "/final"})
              .plain_open(1, "/final")
              .detect())
        kinds = {c.kind for c in mc}
        assert MetadataConflictKind.RENAME_USE in kinds

    def test_rename_clears_source(self):
        mc = (Builder()
              .creating_open(0, "/a")
              .op(0, "rename", "/a", args={"to": "/b"})
              .plain_open(1, "/a")
              .detect())
        # /a's producer was cleared by the rename
        assert all(c.path != "/a" for c in mc)


class TestOnRealApps:
    def test_shared_output_apps_have_dir_create_use(self, study8):
        """Every app whose ranks create files in a rank-0-made directory
        shows cross-process dir-create/use dependencies."""
        for label in ("FLASH-HDF5 fbs", "pF3D-IO-POSIX", "ENZO-HDF5"):
            mc = study8.find(label).report.metadata_conflicts
            assert any(c.kind is MetadataConflictKind.DIR_CREATE_USE
                       and c.cross_process for c in mc), label

    def test_rank0_only_apps_have_no_cross_process(self, study8):
        mc = study8.find("GTC-POSIX").report.metadata_conflicts
        assert not mc.cross_process

    def test_by_path_grouping(self, study8):
        mc = study8.find("FLASH-HDF5 fbs").report.metadata_conflicts
        grouped = mc.by_path()
        assert sum(len(v) for v in grouped.values()) == len(mc)

    def test_cap(self, study8):
        trace = study8.find("FLASH-HDF5 fbs").trace
        capped = detect_metadata_conflicts(trace, max_conflicts=3)
        assert len(capped) == 3


# -- differential oracle: the per-record loop ----------------------------------


ORACLE_CONSUMERS = {"stat", "lstat", "access", "opendir", "readdir"}


def detect_oracle(trace, *, max_conflicts=None):
    """The detector as one loop over every trace record."""
    producers = {}
    out = MetadataConflictSet()

    def consume(path, rec):
        hit = producers.get(path)
        if hit is None:
            return
        producer, kind = hit
        if producer.rid == rec.rid:
            return
        out.conflicts.append(MetadataConflict(
            kind=kind, path=path, producer=producer, consumer=rec))

    for rec in trace.records:
        if rec.layer != Layer.POSIX or rec.path is None:
            continue
        if max_conflicts is not None and len(out) >= max_conflicts:
            break
        path = rec.path
        parent = posixpath.dirname(path)
        if rec.func in ORACLE_CONSUMERS:
            consume(path, rec)
        elif rec.func in OPEN_OPS:
            if is_creating_open(rec):
                consume(parent, rec)
            else:
                consume(path, rec)
        elif rec.func == "unlink" or rec.func == "remove":
            consume(path, rec)
        if is_creating_open(rec):
            producers[path] = (rec, MetadataConflictKind.FILE_CREATE_USE)
        elif rec.func == "mkdir":
            producers[path] = (rec, MetadataConflictKind.DIR_CREATE_USE)
        elif rec.func == "rename":
            dst = rec.args.get("to")
            if dst:
                producers[str(dst)] = (
                    rec, MetadataConflictKind.RENAME_USE)
            producers.pop(path, None)
        elif rec.func in ("unlink", "remove"):
            producers.pop(path, None)
    return out


def assert_matches_oracle(trace, caps=(None,)):
    ct = trace.columnar
    assert [r.rid for r in trace.records] == ct.rid.tolist()
    assert [r.func for r in trace.records] == [
        ct.funcs[i] for i in ct.func_id.tolist()]
    for cap in caps:
        got = detect_metadata_conflicts(trace, max_conflicts=cap)
        assert got.conflicts == detect_oracle(
            trace, max_conflicts=cap).conflicts, cap


@pytest.mark.parametrize("nranks", [4, 8])
@pytest.mark.parametrize("variant", all_variants(),
                         ids=lambda v: v.label)
def test_registry_configs_match_oracle(variant, nranks):
    trace = variant.run(nranks=nranks, seed=7)
    n = len(detect_oracle(trace))
    assert_matches_oracle(trace, caps=(None, 0, 1, n // 2, n, n + 1))


def _namespace_trace():
    """Every producer/consumer kind, with data and sync calls between."""
    b = Builder()
    b.op(0, "mkdir", "/out")
    b.op(1, "readdir", "/out")
    b.op(0, "creat", "/out/a", fd=3, args={"existed": False})
    b.op(0, "write", "/out/a", fd=3, offset=0, count=8)
    b.op(0, "fsync", "/out/a", fd=3)
    b.op(0, "close", "/out/a", fd=3)
    b.op(1, "creat", "/out/a", fd=4, args={"existed": True})
    b.op(2, "open", "/out/b", fd=3,
         args={"flags": F.O_WRONLY | F.O_CREAT, "existed": False})
    b.op(3, "open", "/out/b", fd=3,
         args={"flags": F.O_WRONLY | F.O_CREAT, "existed": True})
    b.op(1, "stat", "/out/a")
    b.op(2, "lstat", "/out/b")
    b.op(3, "access", "/out/b")
    b.op(0, "rename", "/out/a", args={"to": "/out/c"})
    b.plain_open(1, "/out/c")
    b.plain_open(2, "/out/a")
    b.op(3, "unlink", "/out/b")
    b.op(1, "remove", "/out/c")
    b.op(2, "stat", "/out/b")
    b.op(0, "opendir", "/out")
    b.op(1, "fopen", "/out/d", args={"flags": F.O_RDONLY,
                                     "existed": True})
    return b.rec.build_trace()


@pytest.mark.parametrize("cap", [None, 0, 1, 2, 3, 5, 8, 100])
def test_hand_built_namespace_trace_matches_oracle(cap):
    trace = _namespace_trace()
    assert len(detect_oracle(trace)) >= 8
    assert_matches_oracle(trace, caps=(cap,))


#: one producer/consumer kind per trace
SINGLE_KIND = {
    "creat": lambda b: (
        b.op(0, "creat", "/f", args={"existed": False})
        .op(1, "creat", "/f", args={"existed": False})),
    "o_creat-existing": lambda b: (
        b.op(0, "open", "/f", args={"flags": F.O_WRONLY | F.O_CREAT,
                                    "existed": True})
        .op(1, "stat", "/f")),
    "mkdir": lambda b: (
        b.op(0, "mkdir", "/d").creating_open(1, "/d/f")
        .op(2, "readdir", "/d")),
    "rename-to": lambda b: (
        b.creating_open(0, "/a").op(0, "rename", "/a", args={"to": "/b"})
        .op(1, "stat", "/b").plain_open(2, "/a")),
    "unlink": lambda b: (
        b.creating_open(0, "/f").op(1, "unlink", "/f").op(2, "stat", "/f")),
}


@pytest.mark.parametrize("cap", [None, 1])
@pytest.mark.parametrize("kind", sorted(SINGLE_KIND))
def test_single_kind_traces_match_oracle(kind, cap):
    trace = SINGLE_KIND[kind](Builder()).rec.build_trace()
    assert_matches_oracle(trace, caps=(cap,))
