"""Differential oracle for the columnar ``RunReport``.

``RunReport`` builds its §5.1 tables, its visibility index and its
Table 3 sharing from the trace's columns, and materializes ``accesses``
from the tables.  Each stage must equal what the per-record path builds:

* ``tables`` and ``accesses`` (order included) against
  ``group_by_path(reconstruct_offsets(records))``;
* ``visibility`` against the per-record timeline loop kept below;
* ``sharing`` against the records-based classifier kept below.

Inputs: every registry configuration at 4 and 8 ranks, hand-built
traces that force the sequential fallback, a trace whose record ids are
not positional, and a ``Counter`` tie between sequence labels.
"""

import dataclasses
import posixpath
from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.apps.registry import all_variants
from repro.core import offsets
from repro.core.highlevel import SharingPattern, classify_sharing
from repro.core.offsets import reconstruct_offsets
from repro.core.patterns import (
    AccessPattern,
    classify_rank_file,
    drop_library_metadata,
)
from repro.core.records import AccessRecord, group_by_path
from repro.core.report import RunReport
from repro.posix import flags as F
from repro.tracer.events import CLOSE_OPS, COMMIT_OPS, Layer, OPEN_OPS
from repro.tracer.trace import Trace
from tests.conftest import SimHarness
from tests.core.test_offsets_columnar import assert_tables_equal


# -- the per-record oracles ----------------------------------------------------


def timelines_oracle(trace):
    """Per (rank, path) open/close/commit times, one record at a time."""
    opens, closes, commits = {}, {}, {}
    for rec in trace.records:
        if rec.layer != Layer.POSIX or rec.path is None:
            continue
        key = (rec.rank, rec.path)
        if rec.func in OPEN_OPS:
            opens.setdefault(key, []).append(rec.tstart)
        if rec.func in CLOSE_OPS:
            closes.setdefault(key, []).append(rec.tstart)
        if rec.func in COMMIT_OPS:
            commits.setdefault(key, []).append(rec.tstart)
    for table in (opens, closes, commits):
        for times in table.values():
            times.sort()
    return opens, closes, commits


def _by_time(records):
    return sorted(records, key=lambda r: (r.tstart, r.rid))


def _classify_file_oracle(records, writes_only):
    sequences = {}
    for r in _by_time(records):
        if r.is_write or not writes_only:
            sequences.setdefault((r.rank, r.path), []).append(r)
    weights = Counter()
    for seq in sequences.values():
        label = classify_rank_file(seq, writes_only=writes_only,
                                   filter_metadata=False)
        weights[label] += max(1, len(seq) - 1)
    if not weights:
        return AccessPattern.CONSECUTIVE
    return weights.most_common(1)[0][0]


def sharing_oracle(records, nranks):
    """Table 3 sharing from a list of access records."""
    by_group = defaultdict(list)
    for r in records:
        by_group[posixpath.dirname(r.path)].append(r)
    out = []
    for group, recs in sorted(by_group.items()):
        by_file = {}
        for r in recs:
            by_file.setdefault(r.path, []).append(r)
        data = _by_time([r for file_recs in by_file.values()
                         for r in drop_library_metadata(file_recs)])
        writers = frozenset(r.rank for r in data if r.is_write)
        readers = frozenset(r.rank for r in data if not r.is_write)
        rank_sets = defaultdict(frozenset)
        for r in data:
            rank_sets[r.path] = rank_sets[r.path] | {r.rank}
        out.append(SharingPattern(
            group=group, nfiles=len(by_file),
            files_per_phase=(1 if len(set(rank_sets.values())) == 1
                             else len(by_file)),
            writer_ranks=writers, reader_ranks=readers,
            bytes_written=sum(r.nbytes for r in recs if r.is_write),
            bytes_read=sum(r.nbytes for r in recs if not r.is_write),
            pattern=_classify_file_oracle(data, bool(writers))))
    out.sort(key=lambda g: (g.bytes_written, g.bytes_read), reverse=True)
    return out


def assert_report_matches_oracle(trace):
    report = RunReport(trace)
    accesses = reconstruct_offsets(trace.records)
    assert report.accesses == accesses
    assert_tables_equal(report.tables, group_by_path(accesses))
    vis = report.visibility
    assert (vis._opens, vis._closes, vis._commits) == \
        timelines_oracle(trace)
    assert report.sharing == sharing_oracle(accesses, trace.nranks)


# -- inputs --------------------------------------------------------------------


@pytest.mark.parametrize("nranks", [4, 8])
@pytest.mark.parametrize("variant", all_variants(),
                         ids=lambda v: v.label)
def test_registry_configs_match_object_pipeline(variant, nranks):
    assert_report_matches_oracle(variant.run(nranks=nranks, seed=7))


def _traced(program, nranks=1):
    h = SimHarness(nranks=nranks)
    h.run(program, align=False)
    return h.trace()


def _dup(ctx):
    px = ctx.posix
    fd = px.open(f"/d{ctx.rank}", F.O_RDWR | F.O_CREAT)
    px.write(fd, 32)
    fd2 = px.dup(fd)
    px.write(fd2, 16)
    px.close(fd2)
    px.close(fd)


def _seek_end(ctx):
    px = ctx.posix
    fd = px.open("/e", F.O_RDWR | F.O_CREAT)
    px.pwrite(fd, 64, 64 * ctx.rank)
    px.fsync(fd)
    px.lseek(fd, -8, F.SEEK_END)
    px.write(fd, 24)
    px.close(fd)
    fd = px.open("/e", F.O_RDONLY)
    px.read(fd, 40)
    px.close(fd)


def _append_mixed_with_explicit(ctx):
    px = ctx.posix
    fd = px.open("/log", F.O_WRONLY | F.O_CREAT | F.O_APPEND)
    px.write(fd, 10 + ctx.rank)
    px.pwrite(fd, 6, 3)          # explicit offset on an append path
    px.write(fd, 5)
    px.close(fd)


def _truncate(ctx):
    px = ctx.posix
    fd = px.open(f"/t{ctx.rank}", F.O_WRONLY | F.O_CREAT | F.O_APPEND)
    px.write(fd, 100)
    px.ftruncate(fd, 10)
    px.write(fd, 20)             # lands at 10, not 100
    px.close(fd)


@pytest.mark.parametrize("program", [
    _dup, _seek_end, _append_mixed_with_explicit, _truncate])
def test_fallback_traces_match_object_pipeline(program):
    trace = _traced(program, nranks=2)
    with pytest.raises(offsets._ColumnarFallback):
        offsets._reconstruct_vectorized(trace.columnar)
    assert_report_matches_oracle(trace)


def test_non_positional_rids_keep_trace_order():
    def program(ctx):
        px = ctx.posix
        fd = px.open("/shared", F.O_RDWR | F.O_CREAT)
        for k in range(3):
            px.pwrite(fd, 8, 8 * (ctx.rank + 4 * k))
        px.close(fd)
        fd = px.open(f"/p{ctx.rank}", F.O_WRONLY | F.O_CREAT)
        px.write(fd, 16)
        px.write(fd, 16)
        px.close(fd)

    trace = _traced(program, nranks=4)
    n = len(trace.records)
    # descending, sparse ids: trace order is no longer rid order
    shuffled = Trace(
        nranks=trace.nranks,
        records=[dataclasses.replace(r, rid=5 * (n - i))
                 for i, r in enumerate(trace.records)],
        mpi_events=trace.mpi_events, meta=trace.meta)
    assert_report_matches_oracle(shuffled)
    accesses = RunReport(shuffled).accesses
    assert [a.rid for a in accesses] != sorted(a.rid for a in accesses)


def _access(rid, rank, path, offset, t):
    return AccessRecord(rid=rid, rank=rank, path=path, offset=offset,
                        stop=offset + 10, is_write=True, tstart=t,
                        tend=t + 0.1)


@pytest.mark.parametrize("strided_first", [True, False])
def test_label_tie_resolves_to_first_seen_sequence(strided_first):
    # two sequences of equal weight (two transitions each) in one group:
    # rank 0 writes /g/a consecutively, rank 1 writes /g/b strided
    t0, t1 = (1.0, 0.0) if strided_first else (0.0, 1.0)
    records = [_access(1, 0, "/g/a", 0, t0),
               _access(2, 0, "/g/a", 10, t0 + 2),
               _access(3, 0, "/g/a", 20, t0 + 4),
               _access(4, 1, "/g/b", 0, t1),
               _access(5, 1, "/g/b", 30, t1 + 2),
               _access(6, 1, "/g/b", 60, t1 + 4)]
    got = classify_sharing(group_by_path(records), 2)
    assert got == sharing_oracle(records, 2)
    assert got[0].pattern is (AccessPattern.STRIDED if strided_first
                              else AccessPattern.CONSECUTIVE)


def test_accesses_are_built_from_the_tables():
    trace = _traced(_dup, nranks=2)
    report = RunReport(trace)
    from_tables = {id(r) for t in report.tables.values()
                   for r in t.records}
    assert {id(a) for a in report.accesses} == from_tables
    assert np.array_equal(
        np.sort([a.rid for a in report.accesses]),
        np.sort(np.concatenate([t.rid for t in report.tables.values()])))
