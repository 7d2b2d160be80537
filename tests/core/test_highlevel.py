"""Tests for X-Y sharing-pattern classification (Table 3 logic)."""

from repro.core.highlevel import (
    SharingPattern,
    _cardinality,
    classify_sharing,
    primary_pattern,
)
from repro.core.patterns import AccessPattern
from repro.core.records import AccessRecord, group_by_path


def rec(rid, rank, path, off, n, write=True, t=None):
    return AccessRecord(rid=rid, rank=rank, path=path, offset=off,
                        stop=off + n, is_write=write,
                        tstart=float(rid if t is None else t),
                        tend=float(rid if t is None else t) + 0.1)


class TestCardinality:
    def test_buckets(self):
        assert _cardinality(8, 8) == "N"
        assert _cardinality(12, 8) == "N"
        assert _cardinality(1, 8) == "1"
        assert _cardinality(0, 8) == "1"
        assert _cardinality(3, 8) == "M"


class TestClassifySharing:
    def test_n_n_private_files(self):
        records = [rec(i, i, f"/out/f{i}", 0, 100) for i in range(4)]
        groups = classify_sharing(group_by_path(records), nranks=4)
        assert len(groups) == 1
        assert groups[0].xy(4) == "N-N"

    def test_n_1_shared_file(self):
        records = [rec(i, i, "/out/shared", i * 100, 100)
                   for i in range(4)]
        sp = classify_sharing(group_by_path(records), 4)[0]
        assert sp.xy(4) == "N-1"

    def test_1_1(self):
        records = [rec(i, 0, "/out/log", i * 10, 10) for i in range(5)]
        sp = classify_sharing(group_by_path(records), 4)[0]
        assert sp.xy(4) == "1-1"

    def test_series_of_checkpoints_is_y1(self):
        """Same writer set across files = one file per phase (N-1)."""
        records = []
        rid = 0
        for ckpt in range(3):
            for rank in range(4):
                records.append(rec(rid, rank, f"/ckpt/c{ckpt}",
                                   rank * 10, 10))
                rid += 1
        sp = classify_sharing(group_by_path(records), 4)[0]
        assert sp.nfiles == 3
        assert sp.files_per_phase == 1
        assert sp.xy(4) == "N-1"

    def test_group_files_are_y_m(self):
        records = []
        rid = 0
        for rank in range(4):
            records.append(rec(rid, rank, f"/out/g{rank % 2}",
                               (rank // 2) * 10, 10))
            rid += 1
        sp = classify_sharing(group_by_path(records), 4)[0]
        assert sp.xy(4) == "N-M"

    def test_read_only_group_uses_readers(self):
        records = [rec(i, i, "/in/data", 0, 100, write=False)
                   for i in range(4)]
        sp = classify_sharing(group_by_path(records), 4)[0]
        assert sp.xy(4) == "N-1"
        assert not sp.writer_ranks

    def test_metadata_writers_excluded_from_x(self):
        """Small library-metadata writers don't count toward X."""
        records = []
        rid = 0
        # two ranks write big data
        for rank in (0, 1):
            for k in range(4):
                records.append(rec(rid, rank, "/out/f",
                                   4096 + (k * 2 + rank) * 8192, 8192))
                rid += 1
        # two other ranks write tiny metadata
        for rank in (2, 3):
            records.append(rec(rid, rank, "/out/f", rank * 64, 64))
            rid += 1
        sp = classify_sharing(group_by_path(records), 4)[0]
        assert sp.writer_ranks == frozenset({0, 1})
        assert sp.xy(4) == "M-1"

    def test_groups_sorted_by_bytes(self):
        records = [rec(0, 0, "/small/f", 0, 10),
                   rec(1, 0, "/big/f", 0, 10_000)]
        groups = classify_sharing(group_by_path(records), 4)
        assert groups[0].group == "/big"
        assert primary_pattern(group_by_path(records), 4).group == "/big"

    def test_empty(self):
        assert classify_sharing(group_by_path([]), 4) == []
        assert primary_pattern(group_by_path([]), 4) is None

    def test_pattern_carried(self):
        records = [rec(i, 0, "/out/f", i * 10, 10) for i in range(6)]
        sp = classify_sharing(group_by_path(records), 4)[0]
        assert sp.pattern is AccessPattern.CONSECUTIVE
        assert isinstance(sp, SharingPattern)
