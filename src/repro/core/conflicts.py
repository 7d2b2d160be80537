"""Conflict detection under relaxed consistency semantics (paper §5.2).

Two accesses to the same file, ordered ``t1 < t2``, are a *potential
conflict* when they overlap and the first is a write; they are classified
RAW/WAW × same-process (S) / different-process (D).  Whether a potential
conflict is an *actual* conflict depends on the PFS model:

* **strong** — never (sequential consistency hides write latency);
* **commit** — conflict iff the writer executes no commit operation
  (``fsync``/``fdatasync``/``fflush``/``close``/``fclose``) on the file in
  ``(t1, t2)``;
* **session** — conflict iff there is no close by the writer at ``tc``
  and open by the second process at ``to`` with ``t1 < tc < to < t2``;
* **eventual** — every potential conflict is an actual conflict (no
  operation forces visibility);
* **object** — conflicts exist at *whole-object* granularity, not byte
  granularity.  Accesses are coalesced into PUT/GET sessions (one per
  ``(rank, open..close)`` window); a PUT session conflicts with every
  other session on the object unless the PUT's close precedes the other
  session's open — the only visibility edge an immutable-PUT store
  offers.  Byte overlap is irrelevant: two disjoint-byte writers racing
  on one object clobber each other's whole-object versions.

Commit-conflicts are a subset of session-conflicts: a qualifying
close/open pair implies the writer closed, and close counts as a commit.
A property test pins that theorem.  Session-conflicts are in turn a
subset of object-conflicts (every overlapping pair is a whole-object
pair, and object clearing implies session clearing), which is why
``SESSION >= OBJECT`` in the semantics lattice.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.overlaps import find_overlaps
from repro.core.records import AccessRecord, AccessTable
from repro.core.semantics import Semantics
from repro.tracer.events import CLOSE_OPS, COMMIT_OPS, Layer, OPEN_OPS
from repro.tracer.trace import Trace


class ConflictKind(str, enum.Enum):
    RAW = "RAW"
    WAW = "WAW"

    def __str__(self) -> str:
        return self.value


class ConflictScope(str, enum.Enum):
    SAME = "S"
    DIFFERENT = "D"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Conflict:
    """One conflicting access pair (first is always the write)."""

    path: str
    kind: ConflictKind
    scope: ConflictScope
    first: AccessRecord
    second: AccessRecord

    @property
    def label(self) -> str:
        return f"{self.kind.value}-{self.scope.value}"


#: the four Table 4 cells, in the order counts and flags report them
LABELS = ("WAW-S", "WAW-D", "RAW-S", "RAW-D")


@dataclass
class ConflictSet:
    """All conflicts of a run under one semantics model."""

    semantics: Semantics
    conflicts: list[Conflict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.conflicts)

    def __iter__(self):
        return iter(self.conflicts)

    def __bool__(self) -> bool:
        return bool(self.conflicts)

    def has(self, kind: ConflictKind, scope: ConflictScope) -> bool:
        return any(c.kind == kind and c.scope == scope for c in self.conflicts)

    @property
    def flags(self) -> dict[str, bool]:
        """Table 4 cell flags: ``{"WAW-S": ..., "WAW-D": ..., ...}``."""
        return {
            f"{kind.value}-{scope.value}": self.has(kind, scope)
            for kind in (ConflictKind.WAW, ConflictKind.RAW)
            for scope in (ConflictScope.SAME, ConflictScope.DIFFERENT)
        }

    def label_counts(self) -> dict[str, int]:
        """Conflicts per Table 4 cell, every cell present."""
        out = dict.fromkeys(LABELS, 0)
        for c in self.conflicts:
            out[c.label] += 1
        return out

    @property
    def paths(self) -> list[str]:
        seen: dict[str, None] = {}
        for c in self.conflicts:
            seen.setdefault(c.path, None)
        return list(seen)

    def by_path(self) -> dict[str, list[Conflict]]:
        out: dict[str, list[Conflict]] = {}
        for c in self.conflicts:
            out.setdefault(c.path, []).append(c)
        return out

    @property
    def cross_process_only(self) -> "ConflictSet":
        return ConflictSet(self.semantics, [
            c for c in self.conflicts if c.scope == ConflictScope.DIFFERENT])


class VisibilityIndex:
    """Per (rank, path) sorted timelines of opens, closes, and commits.

    Conditions 3 and 4 of §5.2 become binary searches against these
    timelines (the paper suggests exactly this implementation).  The
    timelines are also exposed as numpy arrays so the pair filter can
    evaluate whole batches of candidate pairs at once.
    """

    def __init__(self, trace: Trace):
        self._opens: dict[tuple[int, str], list[float]] = {}
        self._closes: dict[tuple[int, str], list[float]] = {}
        self._commits: dict[tuple[int, str], list[float]] = {}
        for rec in trace.records:  # lint: allow-per-op-loop (object path)
            if rec.layer != Layer.POSIX or rec.path is None:
                continue
            key = (rec.rank, rec.path)
            if rec.func in OPEN_OPS:
                self._opens.setdefault(key, []).append(rec.tstart)
            if rec.func in CLOSE_OPS:
                self._closes.setdefault(key, []).append(rec.tstart)
            if rec.func in COMMIT_OPS:  # closes included: close is a commit
                self._commits.setdefault(key, []).append(rec.tstart)
        for table in (self._opens, self._closes, self._commits):
            for times in table.values():
                times.sort()
        self._array_cache: dict[tuple[str, int, str], np.ndarray] = {}

    @classmethod
    def from_columnar(cls, ct) -> "VisibilityIndex":
        """Build the timelines from a columnar trace, no record objects.

        Each of the three event families is one mask + lexsort + group
        split over the POSIX rows; the resulting per-(rank, path) lists
        are identical to what ``__init__`` builds from the objects.
        """
        vis = cls.__new__(cls)
        vis._opens = {}
        vis._closes = {}
        vis._commits = {}
        vis._array_cache = {}
        c = ct.columns
        base = ct.posix_mask() & (c["path_id"] >= 0)
        fid = c["func_id"]
        for table, ops in ((vis._opens, OPEN_OPS),
                           (vis._closes, CLOSE_OPS),
                           (vis._commits, COMMIT_OPS)):
            rows = np.flatnonzero(base & ct.func_lookup(ops)[fid])
            if rows.size == 0:
                continue
            order = np.lexsort((rows, c["path_id"][rows],
                                c["rank"][rows]))
            rank = c["rank"][rows][order].tolist()
            pid = c["path_id"][rows][order].tolist()
            times = c["tstart"][rows][order].tolist()
            bounds = np.flatnonzero(
                np.r_[True, np.diff(c["rank"][rows][order]) != 0]
                | np.r_[True, np.diff(c["path_id"][rows][order]) != 0]
            ).tolist() + [len(rank)]
            for gi in range(len(bounds) - 1):
                s, e = bounds[gi], bounds[gi + 1]
                group = times[s:e]
                group.sort()  # trace order is time order: no-op, parity
                table[(rank[s], ct.paths[pid[s]])] = group
        return vis

    def times_array(self, which: str, rank: int, path: str) -> np.ndarray:
        """Sorted event times as a float64 array (cached)."""
        key = (which, rank, path)
        arr = self._array_cache.get(key)
        if arr is None:
            table = {"open": self._opens, "close": self._closes,
                     "commit": self._commits}[which]
            arr = np.asarray(table.get((rank, path), ()),
                             dtype=np.float64)
            self._array_cache[key] = arr
        return arr

    def commit_between(self, rank: int, path: str,
                       t1: float, t2: float) -> bool:
        """Does ``rank`` commit ``path`` strictly inside ``(t1, t2)``?"""
        times = self._commits.get((rank, path), ())
        i = bisect_right(times, t1)
        return i < len(times) and times[i] < t2

    def first_close_after(self, rank: int, path: str, t: float) -> float:
        times = self._closes.get((rank, path), ())
        i = bisect_right(times, t)
        return times[i] if i < len(times) else float("inf")

    def open_between(self, rank: int, path: str,
                     t_lo: float, t_hi: float) -> bool:
        """Does ``rank`` open ``path`` strictly inside ``(t_lo, t_hi)``?"""
        times = self._opens.get((rank, path), ())
        i = bisect_right(times, t_lo)
        return i < len(times) and times[i] < t_hi

    def session_pair_between(self, writer: int, reader: int, path: str,
                             t1: float, t2: float) -> bool:
        """Condition 4: close by writer at tc, open by reader at to with
        ``t1 < tc < to < t2``."""
        tc = self.first_close_after(writer, path, t1)
        if tc >= t2:
            return False
        return self.open_between(reader, path, tc, t2)


def _object_sessions(table: AccessTable, vis: VisibilityIndex):
    """Coalesce a file's accesses into whole-object PUT/GET sessions.

    A session is one ``(rank, open..close)`` window: every access is
    assigned to the last open at-or-before it by its rank, and the
    session's close is the first close after its latest member access
    (``inf`` when the window never closes — an unpublished PUT).
    Accesses with no preceding open fall into one catch-all session per
    rank, which is conservative: it can only merge sessions, never
    invent a clearing close/open edge.

    Returns parallel per-session arrays, sorted by (open time, first
    access time, first row): ``rank``, ``open_t``, ``close_t``, ``put``
    (has at least one write), ``first_row`` (earliest access),
    ``write_row`` (earliest write, -1 for GET sessions).
    """
    n = len(table)
    t = table.tstart
    rank = table.rank
    open_t = np.full(n, -np.inf)
    close_t = np.full(n, np.inf)
    for r in np.unique(rank):
        sel = rank == r
        opens = vis.times_array("open", int(r), table.path)
        if opens.size:
            oi = np.searchsorted(opens, t[sel], side="right") - 1
            open_t[sel] = np.where(oi >= 0, opens[np.maximum(oi, 0)],
                                   -np.inf)
        closes = vis.times_array("close", int(r), table.path)
        if closes.size:
            ci = np.searchsorted(closes, t[sel], side="right")
            close_t[sel] = np.where(
                ci < closes.size,
                closes[np.minimum(ci, closes.size - 1)], np.inf)
    # group rows by (rank, open_t); table rows are (tstart, rid)-sorted,
    # so the first row of each group is the session's earliest access
    order = np.lexsort((np.arange(n), open_t, rank))
    g_rank = rank[order]
    g_open = open_t[order]
    # element comparison, not np.diff: open_t may be -inf (no open),
    # and inf - inf is nan, which would split the catch-all session
    new = np.r_[True, (g_rank[1:] != g_rank[:-1])
                | (g_open[1:] != g_open[:-1])]
    sid = np.cumsum(new) - 1          # session id per sorted row
    nsess = int(sid[-1]) + 1 if n else 0
    starts = np.flatnonzero(new)
    s_rank = g_rank[starts]
    s_open = g_open[starts]
    # a session publishes at the first close after its *last* member
    # access — the latest per-row close is the conservative choice
    s_close = np.full(nsess, -np.inf)
    np.maximum.at(s_close, sid, close_t[order])
    # earliest member row and earliest write row of each session
    s_first = np.full(nsess, n, dtype=np.int64)
    np.minimum.at(s_first, sid, order)
    s_write = np.full(nsess, n, dtype=np.int64)
    w = table.is_write[order]
    np.minimum.at(s_write, sid[w], order[w])
    s_put = s_write < n
    s_write = np.where(s_put, s_write, -1)
    # deterministic session order: open time, then first access
    so = np.lexsort((s_first, t[s_first], s_open))
    return (s_rank[so], s_open[so], s_close[so], s_put[so],
            s_first[so], s_write[so])


def _object_conflict_pairs(table: AccessTable, vis: VisibilityIndex):
    """Whole-object conflicting session pairs.

    Returns ``(first_row, second_row, waw, same)`` arrays: exemplar
    row indices into ``table`` (the PUT's first write and the second
    session's first write/access), plus kind and scope masks.
    """
    empty = (np.empty(0, np.int64),) * 2 + (np.empty(0, bool),) * 2
    if not len(table):
        return empty
    s_rank, s_open, s_close, s_put, s_first, s_write = \
        _object_sessions(table, vis)
    ns = len(s_rank)
    if ns < 2:
        return empty
    # ordered pairs (i, j), i before j in session order, i a PUT;
    # cleared only when the PUT's close precedes the second's open
    i_idx, j_idx = np.triu_indices(ns, k=1)
    keep = s_put[i_idx] & ~(s_close[i_idx] < s_open[j_idx])
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    waw = s_put[j_idx]
    same = s_rank[i_idx] == s_rank[j_idx]
    first_row = s_write[i_idx]
    second_row = np.where(waw, s_write[j_idx], s_first[j_idx])
    # report order: by exemplar times, like the byte-level detector
    t = table.tstart
    o = np.lexsort((t[second_row], t[first_row]))
    return first_row[o], second_row[o], waw[o], same[o]


def _is_actual_conflict(semantics: Semantics, vis: VisibilityIndex,
                        path: str, first: AccessRecord,
                        second: AccessRecord) -> bool:
    """Per-pair binary-search form of the §5.2 conditions: the oracle
    the vectorized :func:`_actual_conflict_mask` is tested against."""
    if semantics is Semantics.STRONG:
        return False
    if semantics is Semantics.EVENTUAL:
        return True
    if semantics is Semantics.COMMIT:
        return not vis.commit_between(first.rank, path,
                                      first.tstart, second.tstart)
    # session
    return not vis.session_pair_between(first.rank, second.rank, path,
                                        first.tstart, second.tstart)


def _actual_conflict_mask(table: AccessTable, pairs: np.ndarray,
                          vis: VisibilityIndex,
                          semantics: Semantics) -> np.ndarray:
    """Vectorized §5.2 conditions 3/4 over a batch of candidate pairs.

    Pairs are grouped by the ranks involved so each group's condition is
    one or two ``searchsorted`` calls over the rank's event timeline —
    the array-at-a-time formulation of the paper's binary-search idea.
    """
    n = len(pairs)
    if semantics is Semantics.STRONG:
        return np.zeros(n, dtype=bool)
    if semantics is Semantics.EVENTUAL:
        return np.ones(n, dtype=bool)
    t = table.tstart
    rank = table.rank
    t1 = t[pairs[:, 0]]
    t2 = t[pairs[:, 1]]
    r1 = rank[pairs[:, 0]]
    r2 = rank[pairs[:, 1]]
    conflict = np.ones(n, dtype=bool)
    if semantics is Semantics.COMMIT:
        for writer in np.unique(r1):
            sel = r1 == writer
            commits = vis.times_array("commit", int(writer), table.path)
            if commits.size == 0:
                continue  # no commits: all selected pairs conflict
            idx = np.searchsorted(commits, t1[sel], side="right")
            has_commit = (idx < commits.size) & \
                (commits[np.minimum(idx, commits.size - 1)] < t2[sel])
            conflict[np.flatnonzero(sel)[has_commit]] = False
        return conflict
    # session: exists close by r1 at tc and open by r2 at to with
    # t1 < tc < to < t2
    tc = np.full(n, np.inf)
    for writer in np.unique(r1):
        sel = r1 == writer
        closes = vis.times_array("close", int(writer), table.path)
        if closes.size == 0:
            continue
        idx = np.searchsorted(closes, t1[sel], side="right")
        found = idx < closes.size
        vals = np.full(sel.sum(), np.inf)
        vals[found] = closes[np.minimum(idx, closes.size - 1)][found]
        tc[sel] = vals
    for reader in np.unique(r2):
        sel = (r2 == reader) & np.isfinite(tc) & (tc < t2)
        if not np.any(sel):
            continue
        opens = vis.times_array("open", int(reader), table.path)
        if opens.size == 0:
            continue
        idx = np.searchsorted(opens, tc[sel], side="right")
        found = idx < opens.size
        to = np.full(sel.sum(), np.inf)
        to[found] = opens[np.minimum(idx, opens.size - 1)][found]
        cleared = to < t2[sel]
        conflict[np.flatnonzero(sel)[cleared]] = False
    return conflict


def _candidate_pairs(table: AccessTable) -> np.ndarray:
    """Potential conflicts of one file: overlapping pairs whose first op
    (by entry timestamp, ``t1 < t2``) is a write.

    Returns an ``(P, 2)`` row-index array in report order: by first
    access time, then second.
    """
    pairs = find_overlaps(table)
    t = table.tstart
    swap = t[pairs[:, 0]] > t[pairs[:, 1]]
    pairs[swap] = pairs[swap][:, ::-1]
    pairs = pairs[table.is_write[pairs[:, 0]]]
    order = np.lexsort((t[pairs[:, 1]], t[pairs[:, 0]]))
    return pairs[order]


def _conflict_pairs(table: AccessTable, vis: VisibilityIndex,
                    semantics: Semantics):
    """Every actual conflict of one file under one model, as arrays.

    Returns ``(first_row, second_row, waw, same)`` in report order: row
    indices into ``table`` plus kind and scope masks.  Detection and
    counting both read this one classifier.
    """
    if semantics is Semantics.OBJECT:
        return _object_conflict_pairs(table, vis)
    pairs = _candidate_pairs(table)
    pairs = pairs[_actual_conflict_mask(table, pairs, vis, semantics)]
    first, second = pairs[:, 0], pairs[:, 1]
    return (first, second, table.is_write[second],
            table.rank[first] == table.rank[second])


def detect_conflicts_in_table(table: AccessTable, vis: VisibilityIndex,
                              semantics: Semantics,
                              max_conflicts: int | None = None,
                              ) -> list[Conflict]:
    """Classify every overlapping pair of one file's accesses.

    Under ``OBJECT`` semantics pairing is whole-object (session
    granularity) rather than byte overlap.
    """
    fr, sr, waw, same = (a[:max_conflicts] for a in
                         _conflict_pairs(table, vis, semantics))
    if not len(fr):
        return []
    records = table.records
    return [Conflict(path=table.path,
                     kind=ConflictKind.WAW if w else ConflictKind.RAW,
                     scope=ConflictScope.SAME if s
                     else ConflictScope.DIFFERENT,
                     first=records[i], second=records[j])
            for i, j, w, s in zip(fr.tolist(), sr.tolist(),
                                  waw.tolist(), same.tolist())]


def count_conflicts_in_table(table: AccessTable, vis: VisibilityIndex,
                             semantics: Semantics) -> dict[str, int]:
    """Count conflicts by class without materializing pair objects.

    Pure-numpy fast path for large traces: returns
    ``{"WAW-S": n, "WAW-D": n, "RAW-S": n, "RAW-D": n}``.
    """
    _, _, waw, same = _conflict_pairs(table, vis, semantics)
    return {"WAW-S": int(np.sum(waw & same)),
            "WAW-D": int(np.sum(waw & ~same)),
            "RAW-S": int(np.sum(~waw & same)),
            "RAW-D": int(np.sum(~waw & ~same))}


def count_conflicts(vis: VisibilityIndex, tables: dict[str, AccessTable],
                    semantics: Semantics) -> dict[str, int]:
    """Whole-trace conflict counts by class (numpy fast path)."""
    total = dict.fromkeys(LABELS, 0)
    for path in sorted(tables):
        for key, n in count_conflicts_in_table(
                tables[path], vis, semantics).items():
            total[key] += n
    return total


def count_conflicts_columnar(ct, semantics: Semantics,
                             tables: dict[str, AccessTable] | None = None,
                             ) -> dict[str, int]:
    """Whole-trace conflict counts from a columnar trace.

    The fully array-native pipeline: columnar offset reconstruction,
    columnar visibility timelines, then the numpy pair classifiers —
    no per-op objects anywhere.  ``tables`` lets callers reuse an
    already-reconstructed table set.
    """
    from repro.core.offsets import reconstruct_tables_columnar

    if tables is None:
        tables = reconstruct_tables_columnar(ct)
    return count_conflicts(VisibilityIndex.from_columnar(ct), tables,
                           semantics)


def detect_conflicts(vis: VisibilityIndex, tables: dict[str, AccessTable],
                     semantics: Semantics,
                     max_conflicts_per_file: int | None = None,
                     ) -> ConflictSet:
    """Run conflict detection over every file of a trace."""
    cs = ConflictSet(semantics)
    for path in sorted(tables):
        cs.conflicts.extend(detect_conflicts_in_table(
            tables[path], vis, semantics,
            max_conflicts=max_conflicts_per_file))
    return cs
