"""Offset reconstruction (paper Section 5.1).

``pwrite``/``pread`` carry their offset; ``write``/``read``/``fwrite``/
``fread`` do not, so the analyzer replays the trace and maintains, per
*open file description*, "the most up-to-date offset for each file":

* ``open``-family sets the offset to 0, applies ``O_TRUNC`` to the
  tracked size, and flags ``O_APPEND`` descriptions (whose writes land at
  the tracked end of file);
* ``lseek``/``fseek`` apply ``SEEK_SET``/``SEEK_CUR``/``SEEK_END``;
* data operations advance the offset by the byte count;
* ``dup`` aliases a descriptor to the same description (shared offset);
* ``truncate``/``ftruncate`` update the tracked size.

The tracked size is global per path, updated in global timestamp order —
valid for traces whose shared-file appends are synchronized, which the
race-freedom assumption (§5.2) already requires.  ``size_at_open`` from
the open record seeds sizes of files that predate the trace.

The reconstruction never reads the simulator's ``gt_offset`` ground
truth; tests compare against it instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.posix import flags as F
from repro.tracer.events import (
    CLOSE_OPS,
    DATA_OPS,
    Layer,
    OPEN_OPS,
    READ_OPS,
    SEEK_OPS,
    WRITE_OPS,
    TraceRecord,
)
from repro.tracer.columnar import I64_NONE, LAYER_TABLE, ColumnarTrace
from repro.tracer.trace import Trace
from repro.core.records import AccessRecord, AccessTable, group_by_path


@dataclass
class _OfdState:
    """Tracked open-file-description state (mirror of the kernel object)."""

    path: str
    offset: int
    append: bool


class _SizeTracker:
    """Global per-path file-size model, replayed in timestamp order."""

    def __init__(self) -> None:
        self._sizes: dict[str, int] = {}

    def seed(self, path: str, size: int) -> None:
        self._sizes.setdefault(path, size)

    def get(self, path: str) -> int:
        return self._sizes.get(path, 0)

    def set(self, path: str, size: int) -> None:
        self._sizes[path] = size

    def grow_to(self, path: str, stop: int) -> None:
        if stop > self._sizes.get(path, 0):
            self._sizes[path] = stop


def reconstruct_offsets(records: list[TraceRecord], *,
                        strict: bool = True) -> list[AccessRecord]:
    """Resolve every POSIX data record to an absolute byte extent.

    ``records`` may be a full multi-layer trace; only POSIX-layer records
    are consumed.  Input must be (and trace containers are) sorted by
    start time, so the shared size model sees operations in global order.

    With ``strict`` a data record on an untracked descriptor raises
    :class:`TraceError`; otherwise it is skipped (useful for partial
    traces).
    """
    size = _SizeTracker()
    # descriptor tables: (rank, fd) -> shared description state
    ofds: dict[tuple[int, int], _OfdState] = {}
    out: list[AccessRecord] = []

    for rec in records:
        if rec.layer != Layer.POSIX:
            continue
        func = rec.func
        if func in OPEN_OPS:
            _handle_open(rec, ofds, size)
        elif func in CLOSE_OPS:
            ofds.pop((rec.rank, rec.fd), None)
        elif func == "dup":
            st = ofds.get((rec.rank, rec.fd))
            if st is not None:
                ofds[(rec.rank, int(rec.args["newfd"]))] = st
        elif func in SEEK_OPS:
            _handle_seek(rec, ofds, size, strict)
        elif func in ("truncate",):
            size.set(_require_path(rec), int(rec.args["length"]))
        elif func == "ftruncate":
            st = ofds.get((rec.rank, rec.fd))
            path = st.path if st is not None else rec.path
            if path is not None:
                size.set(path, int(rec.args["length"]))
        elif func in DATA_OPS:
            acc = _handle_data(rec, ofds, size, strict)
            if acc is not None:
                out.append(acc)
        # all other (metadata) operations do not move offsets
    return out


def _require_path(rec: TraceRecord) -> str:
    if rec.path is None:
        raise TraceError(f"record {rec.rid} ({rec.func}) lacks a path")
    return rec.path


def _handle_open(rec: TraceRecord, ofds: dict[tuple[int, int], _OfdState],
                 size: _SizeTracker) -> None:
    path = _require_path(rec)
    open_flags = int(rec.args.get("flags", 0))
    if "size_at_open" in rec.args:
        size.seed(path, int(rec.args["size_at_open"]))
    if open_flags & F.O_TRUNC and F.writable(open_flags):
        size.set(path, 0)
    ofds[(rec.rank, rec.fd)] = _OfdState(
        path=path, offset=0, append=bool(open_flags & F.O_APPEND))


def _handle_seek(rec: TraceRecord, ofds: dict[tuple[int, int], _OfdState],
                 size: _SizeTracker, strict: bool) -> None:
    st = ofds.get((rec.rank, rec.fd))
    if st is None:
        if strict:
            raise TraceError(
                f"seek on untracked fd {rec.fd} (rank {rec.rank})")
        return
    offset = int(rec.args["offset"])
    whence = int(rec.args["whence"])
    if whence == F.SEEK_SET:
        st.offset = offset
    elif whence == F.SEEK_CUR:
        st.offset += offset
    elif whence == F.SEEK_END:
        st.offset = size.get(st.path) + offset
    else:
        raise TraceError(f"record {rec.rid}: unknown whence {whence}")


def _handle_data(rec: TraceRecord, ofds: dict[tuple[int, int], _OfdState],
                 size: _SizeTracker, strict: bool) -> AccessRecord | None:
    count = int(rec.count or 0)
    is_write = rec.func not in READ_OPS
    explicit = rec.offset is not None  # pread/pwrite carry their offset
    if explicit:
        start = int(rec.offset)
        path = _require_path(rec)
    else:
        st = ofds.get((rec.rank, rec.fd))
        if st is None:
            if strict:
                raise TraceError(
                    f"data op on untracked fd {rec.fd} (rank {rec.rank})")
            return None
        if is_write and st.append:
            st.offset = size.get(st.path)
        start = st.offset
        st.offset = start + count
        path = st.path
    stop = start + count
    if is_write:
        size.grow_to(path, stop)
    if count == 0:
        return None
    return AccessRecord(
        rid=rec.rid, rank=rec.rank, path=path, offset=start, stop=stop,
        is_write=is_write, tstart=rec.tstart, tend=rec.tend,
        fd=rec.fd if rec.fd is not None else -1, func=rec.func,
        issuer=rec.issuer.value)


# -- columnar reconstruction -----------------------------------------------------
#
# The replay above touches every op with Python-object overhead; at 10^6+
# ops that dominates the whole analysis.  The columnar path below runs
# the same state machine as array passes over a
# :class:`~repro.tracer.columnar.ColumnarTrace`:
#
# * descriptor streams: rows are grouped per (rank, fd) with a lexsort;
#   each open starts a new generation, and the current position inside a
#   generation is a "reset + cumulative sum" — seeks/opens/append-writes
#   contribute absolute bases, sequential reads/writes contribute count
#   deltas, and position(j) = base[last reset <= j] + (cumdelta[j] -
#   cumdelta[last reset]);
# * O_APPEND landing offsets come from per-path size streams built the
#   same way (O_TRUNC opens reset to zero, ``size_at_open`` seeds the
#   first generation, append writes grow by their count);
# * trace features whose exact semantics need the sequential replay
#   (dup aliasing, SEEK_END, truncate interacting with appends, strict
#   errors on untracked descriptors, non-strict skipping) fall back to
#   :func:`reconstruct_offsets`, the one per-op replay, on the trace's
#   records — the two paths are byte-identical by construction, and
#   parity tests pin it.

_OTHER, _OPEN, _CLOSE, _DUP, _SEEK, _TRUNC, _FTRUNC, _RD, _WR = range(9)

#: promoted ``args`` keys the vectorized pass consumes structurally; a
#: value for one of these living only in the ``extras`` side table
#: (escape-encoded bool / sentinel-valued / out-of-range int) reads as
#: "absent" from the integer column, so the array pass must fall back
#: to the object replay, which merges ``extras`` into ``args``
_STRUCTURAL_ARGS = ("flags", "whence", "offset", "length", "newfd",
                    "size_at_open")


class _ColumnarFallback(Exception):
    """Internal: this trace needs the sequential object replay."""


def _func_class_lut(funcs: list[str]) -> np.ndarray:
    """Map the (tiny) interned function table to op-class codes."""
    lut = np.zeros(len(funcs), dtype=np.int8)
    for i, name in enumerate(funcs):
        if name in OPEN_OPS:
            lut[i] = _OPEN
        elif name in CLOSE_OPS:
            lut[i] = _CLOSE
        elif name == "dup":
            lut[i] = _DUP
        elif name in SEEK_OPS:
            lut[i] = _SEEK
        elif name == "truncate":
            lut[i] = _TRUNC
        elif name == "ftruncate":
            lut[i] = _FTRUNC
        elif name in READ_OPS:
            lut[i] = _RD
        elif name in WRITE_OPS:
            lut[i] = _WR
    return lut


def reconstruct_tables_columnar(source: Trace | ColumnarTrace, *,
                                strict: bool = True,
                                ) -> dict[str, AccessTable]:
    """Columnar offset reconstruction straight to per-file tables.

    Equivalent to ``group_by_path(reconstruct_offsets(records))`` but
    vectorized over a :class:`~repro.tracer.columnar.ColumnarTrace`,
    without materializing :class:`TraceRecord`/:class:`AccessRecord`
    objects.  Trace features the array passes do not model fall back to
    the object replay (exact errors included): of a :class:`Trace`'s
    own records, or of a bare ``ColumnarTrace`` materialized once.
    """
    is_trace = isinstance(source, Trace)
    ct = source.columnar if is_trace else source
    if strict:
        try:
            return _reconstruct_vectorized(ct)
        except _ColumnarFallback:
            pass
    records = source.records if is_trace else ct.to_trace().records
    return group_by_path(reconstruct_offsets(records, strict=strict))


def _reconstruct_vectorized(ct: ColumnarTrace) -> dict[str, AccessTable]:
    c = ct.columns
    mask = ct.posix_mask()
    npx = int(np.count_nonzero(mask))
    if npx == 0:
        return {}
    # structurally relevant args escape-encoded into the side table are
    # invisible to the integer columns: sequential replay territory
    # (extras is sparse — a handful of rows at most on real traces)
    for row, extra in ct.extras.items():
        if mask[row] and any(key in extra for key in _STRUCTURAL_ARGS):
            raise _ColumnarFallback
    if npx == mask.size:
        take = lambda name: c[name]  # noqa: E731 — all-POSIX: zero-copy
    else:
        idx = np.flatnonzero(mask)
        take = lambda name: c[name][idx]  # noqa: E731
    cls_ = _func_class_lut(ct.funcs)[take("func_id")]
    rank = take("rank")
    fd = take("fd")
    path_id = take("path_id")
    offset = take("offset")
    count = take("count")
    raw_flags = take("flags")
    flags = np.where(raw_flags == I64_NONE, 0, raw_flags)
    whence = take("whence")
    arg_off = take("arg_offset")
    length = take("length")
    sz_open = take("size_at_open")

    is_open = cls_ == _OPEN
    is_close = cls_ == _CLOSE
    is_seek = cls_ == _SEEK
    is_data = (cls_ == _RD) | (cls_ == _WR)
    is_write_op = cls_ == _WR
    explicit = is_data & (offset != I64_NONE)
    implicit = is_data & ~explicit
    count_eff = np.where(count == I64_NONE, 0, count)
    is_trunc_op = (cls_ == _TRUNC) | (cls_ == _FTRUNC)

    # features that need the sequential replay (or its exact errors)
    if (bool(np.any(cls_ == _DUP))
            or bool(np.any(is_seek & (
                (whence == I64_NONE) | (arg_off == I64_NONE)
                | ((whence != F.SEEK_SET) & (whence != F.SEEK_CUR)))))
            or bool(np.any(is_open & (path_id < 0)))
            or bool(np.any(explicit & (path_id < 0)))
            or bool(np.any((cls_ == _TRUNC) & (path_id < 0)))
            or bool(np.any(is_trunc_op & (length == I64_NONE)))
            or bool(np.any(is_data & (count_eff < 0)))):
        raise _ColumnarFallback

    # -- descriptor streams: group rows per (rank, fd), time-ordered --
    s = np.flatnonzero(is_open | is_close | is_seek | implicit)
    s_fd = fd[s]
    # one stable argsort on a dense composite (rank, fd) key beats a
    # three-key lexsort; fds are remapped to dense ids first
    fd_vals, fd_dense = np.unique(s_fd, return_inverse=True)
    so = s[np.argsort(rank[s] * fd_vals.size + fd_dense,
                      kind="stable")]
    m = so.size
    pos_m = np.arange(m)
    g_rank = rank[so]
    g_fd = fd[so]
    g_open = is_open[so]
    g_close = is_close[so]
    g_seek = is_seek[so]
    g_impl = implicit[so]
    new_grp = np.ones(m, dtype=bool)
    new_grp[1:] = ((g_rank[1:] != g_rank[:-1])
                   | (g_fd[1:] != g_fd[:-1]))
    grp_start = np.maximum.accumulate(np.where(new_grp, pos_m, 0))
    last_open = np.maximum.accumulate(np.where(g_open, pos_m, -1))
    last_close = np.maximum.accumulate(np.where(g_close, pos_m, -1))
    open_ok = last_open >= grp_start
    if bool(np.any((g_seek | g_impl)
                   & (~open_ok | (last_close > last_open)))):
        raise _ColumnarFallback  # untracked fd: strict replay raises

    open_row = so[np.maximum(last_open, 0)]  # the generation's open
    stream_path = path_id[open_row]
    stream_append = (flags[open_row] & F.O_APPEND) != 0
    g_write = is_write_op[so]
    g_appw = g_impl & g_write & stream_append & open_ok

    # -- O_APPEND size streams (global, per path) --
    append_paths = np.unique(path_id[is_open & ((flags & F.O_APPEND)
                                                != 0)])
    land = np.zeros(npx, dtype=np.int64)
    if append_paths.size:
        appending = np.isin(path_id, append_paths)
        entangled = (
            bool(np.any(is_write_op & explicit & appending))
            or bool(np.any(g_impl & g_write & ~stream_append
                           & np.isin(stream_path, append_paths)))
            or bool(np.any(is_trunc_op)))
        if entangled:
            raise _ColumnarFallback
        _append_landings(npx, np.flatnonzero(is_open & appending),
                         so[g_appw], path_id, stream_path[g_appw],
                         flags, sz_open, count_eff, I64_NONE, land)

    # -- positions inside each descriptor generation (reset + cumsum) --
    g_cnt = count_eff[so]
    g_whence = whence[so]
    g_set = g_seek & (g_whence == F.SEEK_SET)
    g_cur = g_seek & (g_whence == F.SEEK_CUR)
    g_arg = arg_off[so]
    g_reset = g_open | g_set | g_appw | new_grp
    base = np.zeros(m, dtype=np.int64)
    base[g_set] = g_arg[g_set]
    base[g_appw] = land[so[g_appw]] + g_cnt[g_appw]
    base[g_open] = 0
    delta = np.zeros(m, dtype=np.int64)
    delta[g_cur] = g_arg[g_cur]
    seq_data = g_impl & ~g_appw
    delta[seq_data] = g_cnt[seq_data]
    delta[g_reset] = 0
    cum = np.cumsum(delta)
    reset_idx = np.maximum.accumulate(np.where(g_reset, pos_m, 0))
    pos_after = base[reset_idx] + cum - cum[reset_idx]
    impl_off = np.where(g_appw, land[so], pos_after - delta)

    # -- assemble the output extents --
    im = g_impl & (g_cnt > 0)
    ex = explicit & (count_eff > 0)
    rows = np.concatenate([so[im], np.flatnonzero(ex)])
    out_off = np.concatenate([impl_off[im], offset[ex]])
    out_path = np.concatenate([stream_path[im], path_id[ex]])
    out_stop = out_off + count_eff[rows]
    raw_fd = fd[rows]
    out_fd = np.where(raw_fd == I64_NONE, -1, raw_fd)
    out_write = is_write_op[rows]
    out_rid = take("rid")[rows]
    out_rank = rank[rows]
    out_t0 = take("tstart")[rows]
    out_t1 = take("tend")[rows]
    out_func = take("func_id")[rows]
    out_issuer = take("issuer_id")[rows]

    if not rows.size:
        return {}
    # one stable argsort splits the rows per file; tables come out in
    # path order, like ``group_by_path``
    by_path = np.argsort(out_path, kind="stable")
    spans = {ct.paths[int(out_path[sel[0]])]: sel for sel in np.split(
        by_path, np.flatnonzero(np.diff(out_path[by_path])) + 1)}
    funcs = tuple(ct.funcs)
    return {path: AccessTable.from_columns(
                path, rid=out_rid[sel], rank=out_rank[sel],
                offset=out_off[sel], stop=out_stop[sel],
                is_write=out_write[sel], tstart=out_t0[sel],
                tend=out_t1[sel], fd=out_fd[sel], func_id=out_func[sel],
                issuer_id=out_issuer[sel], funcs=funcs,
                issuers=LAYER_TABLE)
            for path, sel in sorted(spans.items())}


def _append_landings(n: int, open_rows: np.ndarray, write_rows: np.ndarray,
                     path_id: np.ndarray, write_path: np.ndarray,
                     flags: np.ndarray, sz_open: np.ndarray,
                     count_eff: np.ndarray, none_val: int,
                     land: np.ndarray) -> None:
    """Fill ``land[row]`` with the size-before for append-write rows.

    Each appending path's size is replayed as one reset+cumsum stream
    over its opens and append writes, matching :class:`_SizeTracker`:
    ``size_at_open`` seeds only while the size is still unknown (the
    ``setdefault``), a writable ``O_TRUNC`` open resets to zero, and
    every write grows the size by its count.
    """
    rows = np.concatenate([open_rows, write_rows])
    paths = np.concatenate([path_id[open_rows], write_path])
    order = np.lexsort((rows, paths))
    rows = rows[order]
    paths = paths[order]
    m = rows.size
    p = np.arange(m)
    z_open = np.zeros(m, dtype=bool)
    z_open[np.isin(rows, open_rows)] = True
    z_flags = flags[rows]
    am = z_flags & F.O_ACCMODE
    z_trunc = (z_open & ((z_flags & F.O_TRUNC) != 0)
               & ((am == F.O_WRONLY) | (am == F.O_RDWR)))
    z_seed = z_open & (sz_open[rows] != none_val) & ~z_trunc
    z_cnt = np.where(z_open, 0, count_eff[rows])
    new_grp = np.ones(m, dtype=bool)
    new_grp[1:] = paths[1:] != paths[:-1]
    starts = np.flatnonzero(new_grp)
    gid = np.cumsum(new_grp) - 1
    # setdefault semantics: a seed applies only if it precedes every
    # "hard" size setter (truncating open or size-growing write)
    hard = z_trunc | (~z_open & (z_cnt > 0))
    first_hard = np.minimum.reduceat(np.where(hard, p, m), starts)
    first_seed = np.minimum.reduceat(np.where(z_seed, p, m), starts)
    applies = first_seed[gid] < first_hard[gid]
    z_applied = z_seed & applies & (p == first_seed[gid])
    z_reset = new_grp | z_trunc | z_applied
    base = np.zeros(m, dtype=np.int64)
    base[z_applied] = sz_open[rows[z_applied]]
    first_write = new_grp & ~z_open & ~z_applied
    base[first_write] = z_cnt[first_write]
    base[z_trunc] = 0
    delta = np.where(z_reset, 0, z_cnt)
    cum = np.cumsum(delta)
    reset_idx = np.maximum.accumulate(np.where(z_reset, p, 0))
    size_after = base[reset_idx] + cum - cum[reset_idx]
    w = ~z_open
    land[rows[w]] = size_after[w] - z_cnt[w]
