"""Tests for the columnar access-record tables."""

import gc

import numpy as np
import pytest

from repro.core.records import AccessRecord, AccessTable, group_by_path
from repro.errors import AnalysisError


def rec(rid, rank, off, n, write=True, path="/f", t=None):
    ts = float(rid if t is None else t)
    return AccessRecord(rid=rid, rank=rank, path=path, offset=off,
                        stop=off + n, is_write=write, tstart=ts,
                        tend=ts + 0.1)


FIELDS = (3, 1, "/f", 10, 15, True, 0.5, 0.75, 4, "pwrite", "app")


class TestAccessRecord:
    def test_derived_fields(self):
        r = rec(0, 1, 10, 5)
        assert r.nbytes == 5
        assert r.oe_inclusive == 14  # paper's inclusive oe = stop - 1

    def test_hash_is_the_field_tuple_hash(self):
        # set and dict iteration orders depend on it
        assert hash(AccessRecord(*FIELDS)) == hash(FIELDS)

    def test_repr_text(self):
        assert repr(AccessRecord(*FIELDS)) == (
            "AccessRecord(rid=3, rank=1, path='/f', offset=10, stop=15, "
            "is_write=True, tstart=0.5, tend=0.75, fd=4, func='pwrite', "
            "issuer='app')")

    def test_immutable(self):
        r = AccessRecord(*FIELDS)
        with pytest.raises(AttributeError):
            r.offset = 0

    def test_keyword_construction_with_defaults(self):
        r = AccessRecord(rid=0, rank=2, path="/g", offset=0, stop=8,
                         is_write=False, tstart=1.0, tend=1.5)
        assert (r.fd, r.func, r.issuer) == (-1, "", "app")
        assert r == AccessRecord(0, 2, "/g", 0, 8, False, 1.0, 1.5)


class TestAccessTable:
    def test_sorted_by_time(self):
        t = AccessTable("/f", [rec(2, 0, 0, 4, t=5.0),
                               rec(1, 0, 8, 4, t=1.0)])
        assert t.rid.tolist() == [1, 2]
        assert np.all(np.diff(t.tstart) >= 0)

    def test_rejects_wrong_path(self):
        with pytest.raises(AnalysisError, match="path"):
            AccessTable("/f", [rec(0, 0, 0, 4, path="/g")])

    def test_rejects_empty_extent(self):
        with pytest.raises(AnalysisError, match="empty extent"):
            AccessTable("/f", [AccessRecord(
                rid=0, rank=0, path="/f", offset=5, stop=5,
                is_write=True, tstart=0.0, tend=0.1)])

    def test_writer_reader_sets(self):
        t = AccessTable("/f", [rec(0, 0, 0, 4, write=True),
                               rec(1, 1, 0, 4, write=False),
                               rec(2, 2, 4, 4, write=True)])
        assert t.writer_ranks == {0, 2}
        assert t.reader_ranks == {1}

    def test_byte_totals(self):
        t = AccessTable("/f", [rec(0, 0, 0, 10, write=True),
                               rec(1, 1, 0, 6, write=False)])
        assert t.bytes_written == 10
        assert t.bytes_read == 6

    def test_for_rank(self):
        t = AccessTable("/f", [rec(0, 0, 0, 4), rec(1, 1, 4, 4),
                               rec(2, 0, 8, 4)])
        assert [r.rid for r in t.for_rank(0)] == [0, 2]

    def test_len_and_iter(self):
        t = AccessTable("/f", [rec(0, 0, 0, 4)])
        assert len(t) == 1
        assert next(iter(t)).rid == 0


class TestGroupByPath:
    def test_buckets(self):
        records = [rec(0, 0, 0, 4, path="/a"),
                   rec(1, 0, 0, 4, path="/b"),
                   rec(2, 1, 4, 4, path="/a")]
        tables = group_by_path(records)
        assert set(tables) == {"/a", "/b"}
        assert len(tables["/a"]) == 2

    def test_empty(self):
        assert group_by_path([]) == {}


def columnar_table(n=50):
    i = np.arange(n, dtype=np.int64)
    return AccessTable.from_columns(
        "/f", rid=i[::-1].copy(), rank=i % 4, offset=i * 8,
        stop=i * 8 + 8, is_write=i % 2 == 0, tstart=(i % 7).astype(float),
        tend=(i % 7) + 0.5, fd=i + 3, func_id=i % 2,
        issuer_id=np.zeros(n, dtype=np.int64), funcs=("pwrite", "pread"),
        issuers=("posix",))


class TestMaterialize:
    def test_records_carry_the_columns(self):
        t = columnar_table()
        recs = t.records
        assert [r.rid for r in recs] == t.rid.tolist()
        assert [r.offset for r in recs] == t.offset.tolist()
        assert {(r.func, r.issuer, r.path) for r in recs} == {
            ("pwrite", "posix", "/f"), ("pread", "posix", "/f")}
        assert all(type(r) is AccessRecord for r in recs)

    def test_defaults_without_side_columns(self):
        t = AccessTable.from_columns(
            "/f", rid=np.array([0]), rank=np.array([1]),
            offset=np.array([0]), stop=np.array([4]),
            is_write=np.array([True]), tstart=np.array([0.0]),
            tend=np.array([0.1]))
        assert t.records == [AccessRecord(0, 1, "/f", 0, 4, True, 0.0,
                                          0.1)]

    @pytest.mark.parametrize("read_first", [False, True])
    def test_records_at_matches_records(self, read_first):
        t = columnar_table()
        rows = np.array([7, 0, 49, 7, 12])
        if read_first:
            t.records
        got = t.records_at(rows)
        assert got == [columnar_table().records[i] for i in rows.tolist()]


class TestGcPause:
    """The bulk build pauses the cyclic GC and restores its state."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        was = gc.isenabled()
        yield
        if was:
            gc.enable()
        else:
            gc.disable()

    def test_enabled_stays_enabled(self):
        gc.enable()
        assert len(columnar_table().records) == 50
        assert gc.isenabled()

    def test_disabled_stays_disabled(self):
        gc.disable()
        assert len(columnar_table().records) == 50
        assert not gc.isenabled()

    def test_paused_during_the_build(self, monkeypatch):
        seen = []
        make = AccessRecord._make

        def spy(row):
            seen.append(gc.isenabled())
            return make(row)

        monkeypatch.setattr(AccessRecord, "_make", spy)
        gc.enable()
        columnar_table().records
        assert seen and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_when_the_build_raises(self, monkeypatch, enabled):
        make = AccessRecord._make
        calls = []

        def failing(row):
            calls.append(row)
            if len(calls) == 10:
                raise RuntimeError("boom")
            return make(row)

        monkeypatch.setattr(AccessRecord, "_make", failing)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        table = columnar_table()
        with pytest.raises(RuntimeError, match="boom"):
            table.records
        assert gc.isenabled() is enabled
        monkeypatch.undo()
        assert len(table.records) == 50  # nothing cached by the failure
