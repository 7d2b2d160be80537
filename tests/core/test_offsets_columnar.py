"""Columnar offset reconstruction: parity with the object replay.

``reconstruct_tables_columnar`` must produce exactly the tables that
``group_by_path(reconstruct_offsets(records))`` produces — same paths,
same rows, same order — whether it takes the vectorized pass or the
object fallback.  The synthetic benchmark traces must take the
vectorized pass (otherwise the trace-scaling gate would time the object
path against itself), and traces with features the array passes do not
model (``dup``, ``SEEK_END``, ``strict=False``) must fall back rather
than diverge.
"""

import numpy as np
import pytest

from repro.core import offsets
from repro.core.conflicts import (
    VisibilityIndex,
    count_conflicts,
    count_conflicts_columnar,
)
from repro.core.offsets import (
    reconstruct_offsets,
    reconstruct_tables_columnar,
)
from repro.core.records import group_by_path
from repro.core.semantics import Semantics
from repro.posix import flags as F
from repro.tracer.columnar import ColumnarTrace
from repro.tracer.synth import synthetic_columnar_trace
from tests.conftest import SimHarness

N = 20_000


@pytest.fixture(scope="module")
def synth():
    return synthetic_columnar_trace(N, nranks=4, seed=3)


def assert_tables_equal(a, b):
    assert sorted(a) == sorted(b)
    for path in a:
        ta, tb = a[path], b[path]
        for col in ("rid", "rank", "offset", "stop", "is_write",
                    "tstart", "tend"):
            assert np.array_equal(getattr(ta, col), getattr(tb, col)), \
                f"{path}: column {col} diverges"
        assert ta.records == tb.records


class TestSynthParity:
    def test_tables_match_object_replay(self, synth):
        cols = reconstruct_tables_columnar(synth)
        objs = group_by_path(
            reconstruct_offsets(synth.to_trace().records))
        assert_tables_equal(cols, objs)

    def test_synth_takes_the_vectorized_pass(self, synth, monkeypatch):
        def boom(*a, **kw):  # the fallback would have to call this
            raise AssertionError("object replay invoked")

        monkeypatch.setattr(offsets, "reconstruct_offsets", boom)
        tables = reconstruct_tables_columnar(synth)
        assert sum(len(t) for t in tables.values()) > 0

    def test_conflict_counts_match_object_pipeline(self, synth):
        tr = synth.to_trace()
        tables = group_by_path(reconstruct_offsets(tr.records))
        for semantics in Semantics:
            assert count_conflicts_columnar(synth, semantics) == \
                count_conflicts(VisibilityIndex(tr), tables, semantics)


def _traced(program, nranks=1):
    h = SimHarness(nranks=nranks)
    h.run(program, align=False)
    return h.trace()


def _parity(trace, *, strict=True):
    ct = ColumnarTrace.from_trace(trace)
    cols = reconstruct_tables_columnar(ct, strict=strict)
    objs = group_by_path(
        reconstruct_offsets(trace.records, strict=strict))
    assert_tables_equal(cols, objs)
    return ct


class TestFallbackParity:
    def test_dup_falls_back_and_matches(self, monkeypatch):
        def program(ctx):
            px = ctx.posix
            fd = px.open("/d", F.O_RDWR | F.O_CREAT)
            px.write(fd, 32)
            fd2 = px.dup(fd)
            px.write(fd2, 16)  # shares the file offset with fd
            px.close(fd2)
            px.close(fd)

        trace = _traced(program)
        ct = _parity(trace)
        # and it really was the fallback, not the vectorized pass
        with pytest.raises(offsets._ColumnarFallback):
            offsets._reconstruct_vectorized(ct)

    def test_seek_end_falls_back_and_matches(self):
        def program(ctx):
            px = ctx.posix
            fd = px.open("/e", F.O_RDWR | F.O_CREAT)
            px.pwrite(fd, 64, 0)
            px.lseek(fd, -8, F.SEEK_END)
            px.write(fd, 24)
            px.close(fd)

        trace = _traced(program)
        ct = _parity(trace)
        with pytest.raises(offsets._ColumnarFallback):
            offsets._reconstruct_vectorized(ct)

    def test_truncate_falls_back_and_matches(self):
        def program(ctx):
            px = ctx.posix
            fd = px.open("/t", F.O_RDWR | F.O_CREAT)
            px.write(fd, 128)
            px.ftruncate(fd, 10)
            px.lseek(fd, 0, F.SEEK_SET)
            px.write(fd, 4)
            px.close(fd)

        _parity(_traced(program))

    def test_append_mode_matches(self):
        def program(ctx):
            px = ctx.posix
            fd = px.open("/log", F.O_WRONLY | F.O_CREAT | F.O_APPEND)
            px.write(fd, 10 + ctx.rank)
            px.write(fd, 5)
            px.close(fd)

        _parity(_traced(program, nranks=2))

    def test_strict_false_uses_object_semantics(self):
        def program(ctx):
            px = ctx.posix
            fd = px.open("/s", F.O_RDWR | F.O_CREAT)
            px.write(fd, 16)
            px.close(fd)

        _parity(_traced(program), strict=False)

    def test_trunc_open_while_duped_append_fd_is_open(self):
        # O_TRUNC zeroes the shared size model while a dup'ed O_APPEND
        # description still lands writes at end-of-file: the dup forces
        # the fallback, and the fallback must agree with the replay
        def program(ctx):
            px = ctx.posix
            fd = px.open("/w", F.O_WRONLY | F.O_CREAT | F.O_APPEND)
            px.write(fd, 40)
            fd2 = px.dup(fd)
            fd3 = px.open("/w", F.O_WRONLY | F.O_TRUNC)
            px.write(fd3, 8)      # lands at 0 on the truncated file
            px.write(fd2, 16)     # append: lands at the *new* size (8)
            px.close(fd3)
            px.close(fd2)
            px.close(fd)

        trace = _traced(program)
        ct = _parity(trace)
        with pytest.raises(offsets._ColumnarFallback):
            offsets._reconstruct_vectorized(ct)

    def test_ftruncate_mid_append_falls_back_and_matches(self):
        # an ftruncate between two appends moves the landing offset of
        # the second one backwards; any trunc op on a trace with append
        # paths must take the sequential replay
        def program(ctx):
            px = ctx.posix
            fd = px.open("/log", F.O_WRONLY | F.O_CREAT | F.O_APPEND)
            px.write(fd, 100)
            px.ftruncate(fd, 10)
            px.write(fd, 20)      # lands at 10, not 100
            px.close(fd)

        trace = _traced(program)
        ct = _parity(trace)
        with pytest.raises(offsets._ColumnarFallback):
            offsets._reconstruct_vectorized(ct)

    def test_extras_resident_flags_force_fallback(self):
        # a structurally relevant promoted arg that lives only in the
        # extras side table (escape-encoded) reads as "absent" from the
        # integer column; before the predicate fix the vectorized pass
        # dropped the O_APPEND bit and silently diverged
        def program(ctx):
            px = ctx.posix
            fd = px.open("/a", F.O_WRONLY | F.O_CREAT)
            px.write(fd, 8)
            px.close(fd)
            fd = px.open("/a", F.O_WRONLY | F.O_APPEND)
            px.write(fd, 4)       # append: lands at 8
            px.close(fd)

        trace = _traced(program)
        ct = ColumnarTrace.from_trace(trace)
        row = next(i for i in range(ct.nrecords)
                   if ct.funcs[ct.func_id[i]] == "open"
                   and ct.flags[i] & F.O_APPEND)
        # escape the open's flags into extras, exactly as the encoder
        # does for values an int64 column cannot carry
        from repro.tracer.columnar import I64_NONE
        real_flags = int(ct.flags[row])
        ct.columns["flags"] = ct.columns["flags"].copy()
        ct.columns["flags"][row] = I64_NONE
        ct.extras[row] = {"flags": real_flags}
        with pytest.raises(offsets._ColumnarFallback):
            offsets._reconstruct_vectorized(ct)
        cols = reconstruct_tables_columnar(ct)
        objs = group_by_path(reconstruct_offsets(trace.records))
        assert_tables_equal(cols, objs)

    def test_nonstructural_extras_stay_vectorized(self, monkeypatch):
        # extras that the array passes never consult (here: an escaped
        # "requested" and a free-form note) must not cost the fast path
        def program(ctx):
            px = ctx.posix
            fd = px.open("/v", F.O_WRONLY | F.O_CREAT)
            px.write(fd, 8)
            px.close(fd)

        trace = _traced(program)
        ct = ColumnarTrace.from_trace(trace)
        ct.extras[0] = {"requested": 123, "note": "hi"}

        def boom(*a, **kw):
            raise AssertionError("object replay invoked")

        monkeypatch.setattr(offsets, "reconstruct_offsets", boom)
        tables = reconstruct_tables_columnar(ct)
        assert sum(len(t) for t in tables.values()) > 0


class TestRealVariants:
    @pytest.mark.parametrize("app,lib", [
        ("GTC", "POSIX"),        # O_APPEND restart log
        ("FLASH", "HDF5"),       # ftruncate via the HDF5 layer
        ("LAMMPS", "ADIOS"),
    ])
    def test_registry_configs_match(self, app, lib):
        from repro.apps.registry import find_variant

        trace = find_variant(app, lib).run(nranks=2, seed=7)
        _parity(trace)
