"""Structure-of-arrays trace core and the ``.rtrc`` binary format.

The analysis side has been columnar since the beginning
(:class:`repro.core.records.AccessTable`), but traces themselves were
per-record Python objects, which caps every downstream consumer at toy
sizes.  :class:`ColumnarTrace` stores one trace as parallel numpy arrays
— ``tstart``/``tend``/``rank``/``func``/``fd``/``offset``/``count``/
``flags``/… — with interned string tables for function names and file
paths, mirroring the Recorder paper's insight that parallel-I/O analysis
stays tractable at millions of ops only with a compact columnar format.

Representation rules:

* every numeric column is fixed-width little-endian; optional integer
  fields use the sentinel :data:`I64_NONE` for "absent" (``None`` on the
  object side);
* strings (function names, paths, MPI kinds/roles) are interned into
  first-appearance-ordered tables; a row stores the table index
  (``-1`` for a ``None`` path);
* frequently-used ``args`` keys (``flags``, ``whence``, the seek target
  ``offset``, ``length``, ``newfd``, ``size_at_open``, ``requested``)
  are promoted to integer columns; everything else — and any non-``int``
  ``result`` — round-trips through a sparse JSON side table, so the
  object → columnar → object conversion is lossless.  An ``int`` that
  the column cannot carry faithfully (equal to the :data:`I64_NONE`
  sentinel, or outside the int64 range) is *escape-encoded* through the
  same side tables rather than silently decoding as absent; the four
  core optional columns (``fd``/``offset``/``count``/``gt_offset``)
  have no side table, so a colliding value there raises
  :class:`~repro.errors.AnalysisError` at encode time.

The on-disk form (``.rtrc``) is a versioned little-endian container:
a fixed header (magic, version, header length), a JSON header carrying
run identity and the column directory, 8-byte-aligned per-column blocks
of raw array bytes, and a trailing CRC-32 of everything before it.
:func:`load` maps the file with ``np.memmap`` and wraps each column as a
zero-copy ``frombuffer`` view — no per-record objects are ever
materialized.  A truncated, corrupt, or future-versioned file raises
:class:`repro.errors.AnalysisError`, never a bare numpy/struct error.

See ``docs/trace_format.md`` for the byte-level layout and the
versioning rules.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import AnalysisError
from repro.tracer.events import DATA_OPS, Layer, MPIEvent, TraceRecord
from repro.tracer.trace import Trace

#: file magic, first four bytes of every ``.rtrc`` file
RTRC_MAGIC = b"RTRC"
#: current format version; readers reject anything newer (see
#: ``docs/trace_format.md`` for the compatibility rules)
RTRC_VERSION = 1
#: sentinel for "absent" in optional integer columns (``None`` objects)
I64_NONE = np.iinfo(np.int64).min

#: fixed table for layer/issuer ids — the :class:`Layer` enum in
#: declaration order, so ids are stable across traces and versions
LAYER_TABLE: tuple[str, ...] = tuple(layer.value for layer in Layer)
_LAYER_ID = {name: i for i, name in enumerate(LAYER_TABLE)}

#: ``args`` keys promoted to dedicated integer columns (values that are
#: exactly ``int`` and representable in int64 without colliding with
#: :data:`I64_NONE` — ``bool``, sentinel-valued, and out-of-range ints
#: stay in the JSON side table for fidelity)
PROMOTED_ARGS: tuple[str, ...] = ("flags", "whence", "offset", "length",
                                  "newfd", "size_at_open", "requested")
_ARG_COLUMN = {key: (f"arg_{key}" if key == "offset" else key)
               for key in PROMOTED_ARGS}

#: record columns in serialization order: (attribute name, dtype)
RECORD_COLUMNS: tuple[tuple[str, str], ...] = (
    ("rid", "<i8"),
    ("rank", "<i8"),
    ("layer_id", "<i2"),
    ("issuer_id", "<i2"),
    ("func_id", "<i4"),
    ("tstart", "<f8"),
    ("tend", "<f8"),
    ("path_id", "<i4"),
    ("fd", "<i8"),
    ("offset", "<i8"),
    ("count", "<i8"),
    ("flags", "<i8"),
    ("whence", "<i8"),
    ("arg_offset", "<i8"),
    ("length", "<i8"),
    ("newfd", "<i8"),
    ("size_at_open", "<i8"),
    ("requested", "<i8"),
    ("result_i", "<i8"),
    ("gt_offset", "<i8"),
)

#: MPI event columns (match keys live in the JSON header)
EVENT_COLUMNS: tuple[tuple[str, str], ...] = (
    ("ev_eid", "<i8"),
    ("ev_rank", "<i8"),
    ("ev_kind_id", "<i4"),
    ("ev_role_id", "<i4"),
    ("ev_tstart", "<f8"),
    ("ev_tend", "<f8"),
)

_COLUMN_DTYPES = dict(RECORD_COLUMNS) | dict(EVENT_COLUMNS)


#: largest value an ``<i8`` column can hold; a value survives an int64
#: column round trip when ``I64_NONE < value <= _I64_MAX``
_I64_MAX = int(np.iinfo(np.int64).max)


def _opt_int(value: int | None, rid: int, name: str) -> int:
    if value is None:
        return I64_NONE
    value = int(value)
    if not I64_NONE < value <= _I64_MAX:
        raise AnalysisError(
            f"record {rid}: {name}={value} cannot be stored in an "
            f"int64 trace column (it collides with the I64_NONE "
            f"absent-value sentinel or exceeds the int64 range)")
    return value


def _opt_int_column(values: list, rid: list, name: str) -> np.ndarray:
    """An optional-int column (``None`` -> :data:`I64_NONE`): one array
    call, unless some value is not a plain in-range int; then
    :func:`_opt_int` runs per row and its error names the record."""
    try:
        arr = np.fromiter([I64_NONE if v is None else v for v in values],
                          np.int64, len(values))
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or int(np.count_nonzero(arr == I64_NONE)) \
            != values.count(None):
        arr = np.array([_opt_int(v, r, name) for v, r in zip(values, rid)],
                       dtype=np.int64)
    return arr


#: layer enum member -> id in :data:`LAYER_TABLE`
_LAYER_ID_OF = {layer: _LAYER_ID[layer.value] for layer in Layer}


def _record_fields(records: list[TraceRecord]) -> list[list]:
    """Every :class:`TraceRecord` field as a list, in one pass (plain
    attribute reads: about twice as fast as ``attrgetter``)."""
    flat: list = []
    put = flat.extend
    # lint: allow-per-op-loop (the one conversion off the object form)
    for r in records:
        put((r.rid, r.rank, r.layer, r.issuer, r.func, r.tstart, r.tend,
             r.path, r.fd, r.offset, r.count, r.args, r.result,
             r.gt_offset))
    return [flat[k::14] for k in range(14)]


def _event_fields(events: list[MPIEvent]) -> list[list]:
    """Every :class:`MPIEvent` field as a list, in one pass."""
    flat: list = []
    put = flat.extend
    for e in events:
        put((e.eid, e.rank, e.kind, e.match_key, e.role, e.tstart, e.tend))
    return [flat[k::7] for k in range(7)]


def _intern(values: list) -> tuple[list[str], np.ndarray]:
    """First-appearance string table plus per-row ids (``None`` -> -1)."""
    table = [v for v in dict.fromkeys(values) if v is not None]
    index = {v: i for i, v in enumerate(table)}
    index[None] = -1
    return table, np.fromiter(map(index.__getitem__, values), np.int32,
                              len(values))


def _decode_match_key(parts):
    """Recursive list→tuple: match keys nest (collectives carry rank
    subsets inside the key), unlike the one-level ``from_jsonl`` form."""
    if isinstance(parts, list):
        return tuple(_decode_match_key(x) for x in parts)
    return parts


@dataclass
class ColumnarTrace:
    """One trace as parallel numpy columns plus interned string tables.

    Column arrays all have length :attr:`nrecords`; event arrays have
    length :attr:`nevents`.  ``extras``/``results`` are sparse
    ``{row_index: value}`` side tables for whatever the integer columns
    cannot carry.  Instances loaded from disk hold read-only views into
    the underlying ``memmap`` — treat columns as immutable.
    """

    nranks: int
    meta: dict[str, Any] = field(default_factory=dict)
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    funcs: list[str] = field(default_factory=list)
    paths: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    roles: list[str] = field(default_factory=list)
    match_keys: list[tuple] = field(default_factory=list)
    extras: dict[int, dict[str, Any]] = field(default_factory=dict)
    results: dict[int, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, dtype in RECORD_COLUMNS:
            if name not in self.columns:
                self.columns[name] = np.empty(0, dtype=dtype)
        for name, dtype in EVENT_COLUMNS:
            if name not in self.columns:
                self.columns[name] = np.empty(0, dtype=dtype)

    # -- array access -----------------------------------------------------------

    def __getattr__(self, name: str):
        # dataclass fields resolve normally; only column names land here
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self) -> int:
        return self.nrecords

    @property
    def nrecords(self) -> int:
        return int(self.columns["rid"].shape[0])

    @property
    def nevents(self) -> int:
        return int(self.columns["ev_eid"].shape[0])

    def posix_mask(self) -> np.ndarray:
        """Boolean mask of POSIX-layer rows."""
        return self.columns["layer_id"] == _LAYER_ID[Layer.POSIX.value]

    def func_lookup(self, names) -> np.ndarray:
        """Boolean per-entry table mask: is ``funcs[i]`` in ``names``?"""
        return np.fromiter((f in names for f in self.funcs),
                           dtype=bool, count=len(self.funcs))

    def data_mask(self) -> np.ndarray:
        """Boolean mask of POSIX read/write rows."""
        return self.posix_mask() & self.func_lookup(DATA_OPS)[
            self.columns["func_id"]]

    def validate(self) -> None:
        """Cheap structural checks mirroring :meth:`Trace.validate`."""
        n = self.nrecords
        for name, _ in RECORD_COLUMNS:
            if self.columns[name].shape[0] != n:
                raise AnalysisError(
                    f"column {name!r} has {self.columns[name].shape[0]} "
                    f"rows, expected {n}")
        rank = self.columns["rank"]
        if n and (int(rank.min()) < 0 or int(rank.max()) >= self.nranks):
            raise AnalysisError("columnar trace has an out-of-range rank")
        if n and bool(np.any(self.columns["tend"]
                             < self.columns["tstart"])):
            raise AnalysisError("columnar trace record ends before it "
                               "starts")
        bad = np.flatnonzero(self.data_mask() & (self.columns["count"] < 0))
        if bad.size:
            rid, fid = self.columns["rid"][bad[0]], self.func_id[bad[0]]
            raise AnalysisError(f"data record {rid} ({self.funcs[fid]}) "
                                f"lacks a byte count")

    def columns_equal(self, other: "ColumnarTrace") -> bool:
        """Exact column-level equality (tests and round-trip checks)."""
        if (self.nranks != other.nranks or self.meta != other.meta
                or self.funcs != other.funcs
                or self.paths != other.paths
                or self.kinds != other.kinds
                or self.roles != other.roles
                or self.match_keys != other.match_keys
                or self.extras != other.extras
                or self.results != other.results):
            return False
        for name in _COLUMN_DTYPES:
            if not np.array_equal(self.columns[name],
                                  other.columns[name]):
                return False
        return True

    # -- converters -------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Lossless conversion from per-record trace objects, a column
        at a time after one pass over the objects (that pass is bound by
        memory latency, so it is made once)."""
        n = len(trace.records)
        (rid, rank, layer, issuer, func, tstart, tend, path, fd, offset,
         count, args, result, gt_offset) = _record_fields(trace.records)
        funcs, func_id = _intern(func)
        paths, path_id = _intern(path)
        cols = {
            "rid": np.fromiter(rid, np.int64, n),
            "rank": np.fromiter(rank, np.int64, n),
            "layer_id": np.fromiter(map(_LAYER_ID_OF.__getitem__, layer),
                                    np.int16, n),
            "issuer_id": np.fromiter(map(_LAYER_ID_OF.__getitem__, issuer),
                                     np.int16, n),
            "func_id": func_id,
            "tstart": np.fromiter(tstart, np.float64, n),
            "tend": np.fromiter(tend, np.float64, n),
            "path_id": path_id,
            "fd": _opt_int_column(fd, rid, "fd"),
            "offset": _opt_int_column(offset, rid, "offset"),
            "count": _opt_int_column(count, rid, "count"),
            "gt_offset": _opt_int_column(gt_offset, rid, "gt_offset"),
        }
        # per promoted key: the rows that carry it and their values
        promoted = {key: ([], []) for key in PROMOTED_ARGS}
        extras: dict[int, dict[str, Any]] = {}
        for i, row_args in enumerate(args):
            if not row_args:
                continue
            leftover = None
            for key, value in row_args.items():
                column = promoted.get(key)
                # sentinel-valued / out-of-range ints escape-encode
                # through the extras side table instead of silently
                # round-tripping to "absent"
                if (column is not None and type(value) is int
                        and I64_NONE < value <= _I64_MAX):
                    column[0].append(i)
                    column[1].append(value)
                elif leftover is None:
                    leftover = extras[i] = {key: value}
                else:
                    leftover[key] = value
        for key, (rows, values) in promoted.items():
            cols[_ARG_COLUMN[key]] = col = np.full(n, I64_NONE)
            col[rows] = values
        cols["result_i"] = result_i = np.fromiter(
            [v if type(v) is int and I64_NONE < v <= _I64_MAX else I64_NONE
             for v in result], np.int64, n)
        results = {i: result[i] for i in
                   np.flatnonzero(result_i == I64_NONE).tolist()
                   if result[i] is not None}
        ne = len(trace.mpi_events)
        eid, ev_rank, kind, match_keys, role, ev_t0, ev_t1 = \
            _event_fields(trace.mpi_events)
        kinds, kind_id = _intern(kind)
        roles, role_id = _intern(role)
        cols.update(ev_eid=np.fromiter(eid, np.int64, ne),
                    ev_rank=np.fromiter(ev_rank, np.int64, ne),
                    ev_kind_id=kind_id, ev_role_id=role_id,
                    ev_tstart=np.fromiter(ev_t0, np.float64, ne),
                    ev_tend=np.fromiter(ev_t1, np.float64, ne))
        return cls(nranks=trace.nranks, meta=dict(trace.meta),
                   columns=cols, funcs=funcs, paths=paths,
                   kinds=kinds, roles=roles, match_keys=match_keys,
                   extras=extras, results=results)

    def to_trace(self) -> Trace:
        """Materialize per-record trace objects (lossless inverse)."""
        funcs = self.funcs
        paths = self.paths
        records: list[TraceRecord] = []
        c = self.columns
        col_lists = [c["rid"].tolist(), c["rank"].tolist(),
                     c["layer_id"].tolist(), c["issuer_id"].tolist(),
                     c["func_id"].tolist(), c["tstart"].tolist(),
                     c["tend"].tolist(), c["path_id"].tolist(),
                     c["fd"].tolist(), c["offset"].tolist(),
                     c["count"].tolist(), c["gt_offset"].tolist(),
                     c["result_i"].tolist()]
        arg_lists = {key: c[_ARG_COLUMN[key]].tolist()
                     for key in PROMOTED_ARGS}
        for i, (rid, rank, layer_id, issuer_id, func_id, tstart, tend,
                path_id, fd, offset, count, gt_offset, result_i) \
                in enumerate(zip(*col_lists)):
            args: dict[str, Any] = {}
            for key in PROMOTED_ARGS:
                value = arg_lists[key][i]
                if value != I64_NONE:
                    args[key] = value
            extra = self.extras.get(i)
            if extra:
                args.update(extra)
            result = (result_i if result_i != I64_NONE
                      else self.results.get(i))
            records.append(TraceRecord(
                rid=rid, rank=rank,
                layer=Layer(LAYER_TABLE[layer_id]),
                issuer=Layer(LAYER_TABLE[issuer_id]),
                func=funcs[func_id], tstart=tstart, tend=tend,
                path=None if path_id < 0 else paths[path_id],
                fd=None if fd == I64_NONE else fd,
                offset=None if offset == I64_NONE else offset,
                count=None if count == I64_NONE else count,
                args=args, result=result,
                gt_offset=None if gt_offset == I64_NONE else gt_offset))
        events: list[MPIEvent] = []
        ev_lists = [c["ev_eid"].tolist(), c["ev_rank"].tolist(),
                    c["ev_kind_id"].tolist(), c["ev_role_id"].tolist(),
                    c["ev_tstart"].tolist(), c["ev_tend"].tolist()]
        for i, (eid, rank, kind_id, role_id, tstart, tend) \
                in enumerate(zip(*ev_lists)):
            events.append(MPIEvent(
                eid=eid, rank=rank, kind=self.kinds[kind_id],
                match_key=self.match_keys[i], role=self.roles[role_id],
                tstart=tstart, tend=tend))
        trace = Trace(nranks=self.nranks, records=records,
                      mpi_events=events, meta=dict(self.meta))
        trace.__dict__["columnar"] = self  # it keeps its source columns
        return trace

    # -- binary (de)serialization ------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace as a versioned ``.rtrc`` container."""
        write_rtrc(self, path)

    @classmethod
    def load(cls, path: str | Path, *, mmap: bool = True,
             verify: bool = True) -> "ColumnarTrace":
        """Load an ``.rtrc`` file with zero-copy column views."""
        return read_rtrc(path, mmap=mmap, verify=verify)


# -- .rtrc container ------------------------------------------------------------

_FIXED_HEADER = struct.Struct("<4sHHQ")  # magic, version, flags, json len


def _align8(n: int) -> int:
    return (n + 7) & ~7


def write_rtrc(ct: ColumnarTrace, path: str | Path) -> None:
    """Serialize ``ct`` at ``path`` (little-endian, CRC-32 trailer)."""
    order = [name for name, _ in RECORD_COLUMNS + EVENT_COLUMNS]
    blocks: list[bytes] = []
    directory = []
    data_offset = 0
    for name in order:
        arr = np.ascontiguousarray(ct.columns[name],
                                   dtype=_COLUMN_DTYPES[name])
        raw = arr.tobytes()
        directory.append({"name": name, "dtype": _COLUMN_DTYPES[name],
                          "offset": data_offset,
                          "count": int(arr.shape[0])})
        padded = _align8(len(raw))
        blocks.append(raw + b"\0" * (padded - len(raw)))
        data_offset += padded
    header = {
        "nranks": ct.nranks,
        "meta": ct.meta,
        "nrecords": ct.nrecords,
        "nevents": ct.nevents,
        "funcs": ct.funcs,
        "paths": ct.paths,
        "kinds": ct.kinds,
        "roles": ct.roles,
        "match_keys": [list(key) for key in ct.match_keys],
        "extras": {str(row): value
                   for row, value in sorted(ct.extras.items())},
        "results": {str(row): value
                    for row, value in sorted(ct.results.items())},
        "columns": directory,
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":"),
                              default=str).encode("utf-8")
    head = _FIXED_HEADER.pack(RTRC_MAGIC, RTRC_VERSION, 0,
                              len(header_bytes))
    pad = b"\0" * (_align8(_FIXED_HEADER.size + len(header_bytes))
                   - _FIXED_HEADER.size - len(header_bytes))
    payload = b"".join([head, header_bytes, pad, *blocks])
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    Path(path).write_bytes(payload + struct.pack("<I", crc))


def _format_error(path: Path, detail: str) -> AnalysisError:
    return AnalysisError(f"{path}: not a valid .rtrc trace ({detail})")


def read_rtrc(path: str | Path, *, mmap: bool = True,
              verify: bool = True) -> ColumnarTrace:
    """Parse a ``.rtrc`` file into zero-copy column views.

    With ``mmap`` (default) the file is mapped read-only and every
    column is a ``frombuffer`` view into the mapping; without it the
    file is read into one bytes object first.  ``verify`` checks the
    CRC-32 trailer (reads every page; disable for huge read-mostly
    archives you trust).  Any structural problem — bad magic, a future
    version, truncation, checksum mismatch, or a column block that runs
    past end-of-file — raises :class:`AnalysisError`.
    """
    p = Path(path)
    try:
        if mmap:
            buf = np.memmap(p, dtype=np.uint8, mode="r")
        else:
            buf = np.frombuffer(p.read_bytes(), dtype=np.uint8)
    except (OSError, ValueError) as exc:
        raise _format_error(p, f"unreadable: {exc}") from None
    if buf.shape[0] < _FIXED_HEADER.size + 4:
        raise _format_error(p, "file shorter than the fixed header")
    magic, version, _flags, header_len = _FIXED_HEADER.unpack(
        buf[:_FIXED_HEADER.size].tobytes())
    if magic != RTRC_MAGIC:
        raise _format_error(p, f"bad magic {magic!r}")
    if version != RTRC_VERSION:
        raise _format_error(
            p, f"format version {version} (this reader understands "
               f"only {RTRC_VERSION})")
    header_end = _FIXED_HEADER.size + header_len
    if header_end + 4 > buf.shape[0]:
        raise _format_error(p, "truncated header")
    try:
        header = json.loads(buf[_FIXED_HEADER.size:header_end]
                            .tobytes().decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise _format_error(p, f"bad header JSON: {exc}") from None
    if verify:
        stored = struct.unpack("<I", buf[-4:].tobytes())[0]
        actual = zlib.crc32(buf[:-4]) & 0xFFFFFFFF
        if stored != actual:
            raise _format_error(
                p, f"checksum mismatch (stored {stored:#010x}, "
                   f"computed {actual:#010x})")
    data_start = _align8(header_end)
    data_end = buf.shape[0] - 4
    columns: dict[str, np.ndarray] = {}
    try:
        directory = list(header["columns"])
        for entry in directory:
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            count = int(entry["count"])
            start = data_start + int(entry["offset"])
            stop = start + count * dtype.itemsize
            if count < 0 or stop > data_end:
                raise _format_error(
                    p, f"column {name!r} runs past end of file")
            columns[name] = np.frombuffer(buf, dtype=dtype,
                                          count=count, offset=start)
        for name in _COLUMN_DTYPES:
            if name not in columns:
                raise _format_error(p, f"missing column {name!r}")
        ct = ColumnarTrace(
            nranks=int(header["nranks"]),
            meta=dict(header["meta"]),
            columns=columns,
            funcs=[str(s) for s in header["funcs"]],
            paths=[str(s) for s in header["paths"]],
            kinds=[str(s) for s in header["kinds"]],
            roles=[str(s) for s in header["roles"]],
            match_keys=[_decode_match_key(k)
                        for k in header["match_keys"]],
            extras={int(row): value
                    for row, value in header["extras"].items()},
            results={int(row): value
                     for row, value in header["results"].items()})
    except AnalysisError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise _format_error(p, f"malformed header: {exc}") from None
    if ct.nrecords != int(header.get("nrecords", ct.nrecords)):
        raise _format_error(p, "record count disagrees with columns")
    return ct


__all__ = [
    "ColumnarTrace",
    "EVENT_COLUMNS",
    "I64_NONE",
    "LAYER_TABLE",
    "PROMOTED_ARGS",
    "RECORD_COLUMNS",
    "RTRC_MAGIC",
    "RTRC_VERSION",
    "read_rtrc",
    "write_rtrc",
]
