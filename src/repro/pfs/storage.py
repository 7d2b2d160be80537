"""Versioned extent storage with visibility-ruled reads.

Every write is kept as a :class:`WriteExtent` carrying its data, writer,
wall-clock completion time, and *commit point* — the time at which the
write became globally visible under the configured semantics:

* strong — the completion time itself;
* commit — the writer's next commit (fsync/close) of the file;
* session — the writer's next close of the file;
* eventual — completion plus a propagation delay;
* object — the writer's close performs a whole-object PUT: the
  session's staged writes become the new object *version*.  The session
  read the object at its open and writes it back whole (GET-modify-PUT),
  so the versions it opened on carry forward; every version published
  after its open is *superseded* — a concurrent PUT's update is lost.
  Readers are pinned to the version visible at their open
  (``commit_point <= open < superseded_at``); an fsync publishes
  nothing, and bytes of a superseded version never show through a
  newer one.

A write whose publishing event never happens keeps ``commit_point =
inf`` until file finalization.

Reads resolve per byte to the *visible* write with the highest
``(commit_point, writer tiebreak)``; the same resolution at finalize
yields the file's settled content.  Because unpublished concurrent
writes are ordered by the tiebreak rather than by true write order, WAW
conflicts that the paper's detector flags genuinely corrupt final
content here — and commit/session publishing makes the same workload
settle correctly, which is the behaviour integration tests pin down.

Each extent additionally tracks *durability* (``t_durable``): the time
its bytes reached stable storage.  Under strong semantics that is the
ack itself (write-through); under commit/session it is the journaled
publish (fsync/close); under eventual it is the propagation point.  A
server crash discards every extent that was still volatile — whole
writes roll back, so recovery replays to the last commit (commit
semantics) or last close (session semantics) and torn stripes are never
visible.  The deliberately-broken recovery mode keeps the surviving
stripes of a torn write visible instead, which the crash-consistency
checker must catch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.semantics import Semantics
from repro.util.intervals import Interval, IntervalSet


@dataclass
class WriteExtent:
    """One write's bytes plus its visibility bookkeeping."""

    start: int
    stop: int
    data: bytes
    writer: int
    seq: int                  # per-writer program order
    t_complete: float
    commit_point: float = math.inf
    #: when the bytes reached stable storage (inf = still volatile)
    t_durable: float = math.inf
    #: OBJECT semantics: when a later PUT replaced this version
    #: (inf = still the live version)
    superseded_at: float = math.inf
    #: rolled back by crash recovery; never visible again
    discarded: bool = False
    #: a surviving fragment of a crash-torn write (broken recovery only)
    torn: bool = False

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.stop)

    @property
    def live(self) -> bool:
        return not self.discarded

    def ref(self) -> "ExtentRef":
        return ExtentRef(writer=self.writer, seq=self.seq,
                         start=self.start, stop=self.stop,
                         t_complete=self.t_complete,
                         commit_point=self.commit_point,
                         t_durable=self.t_durable)

    def visible_to(self, client: int, now: float, *,
                   client_open_time: float, semantics: Semantics,
                   same_process_ordering: bool) -> bool:
        """Visibility of this write to ``client`` at time ``now``."""
        if semantics is Semantics.OBJECT:
            # own staged (un-PUT) writes are visible to their session;
            # everyone else is pinned to the object version their open
            # observed: published before the open, not yet superseded
            if client == self.writer and not math.isfinite(self.commit_point):
                return True
            # an untracked open (inf) pins to the freshest version
            pin = client_open_time if math.isfinite(client_open_time) \
                else now
            return self.commit_point <= pin < self.superseded_at
        if client == self.writer:
            # own writes are locally visible on every PFS; whether they
            # are correctly *ordered* is same_process_ordering's job
            # (see order_key)
            return True
        if semantics is Semantics.STRONG:
            return self.t_complete <= now
        if semantics is Semantics.COMMIT:
            return self.commit_point <= now
        if semantics is Semantics.SESSION:
            # close-to-open: published before the reader's current open
            return self.commit_point <= client_open_time
        # eventual
        return self.commit_point <= now

    def order_key(self, *, same_process_ordering: bool,
                  settle_order: str = "close") -> tuple:
        """Settlement order (higher key wins a byte).

        ``settle_order="close"`` applies publication batches in commit
        order — one legitimate arbitrary choice a write-back PFS can
        make.  ``settle_order="client"`` merges per-client logs in
        client-id order (the PLFS index-merge shape), a different but
        equally legitimate choice.  Conflicting workloads settle
        differently under the two — that *is* the hazard; conflict-free
        workloads settle identically.
        """
        seq = self.seq if same_process_ordering else -self.seq
        if settle_order == "client":
            return (self.writer, seq, self.commit_point)
        return (self.commit_point, self.writer, seq)


@dataclass(frozen=True)
class ExtentRef:
    """Immutable snapshot of one extent's identity + timing, taken when
    a fault touches it (the audit record the checker judges against)."""

    writer: int
    seq: int
    start: int
    stop: int
    t_complete: float
    commit_point: float
    t_durable: float

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.stop)


@dataclass
class CrashRecord:
    """One fault's effect on one file: what recovery rolled back.

    ``discarded`` extents vanished whole; ``torn`` extents survived
    partially (broken recovery only).  ``lost_regions`` is the union of
    byte ranges the fault destroyed — the attribution set for any final
    content mismatch.
    """

    t: float
    target: str
    discarded: list[ExtentRef] = field(default_factory=list)
    torn: list[ExtentRef] = field(default_factory=list)
    lost_regions: list[Interval] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.discarded and not self.torn


@dataclass
class ReadOutcome:
    """What a read returned, plus staleness accounting."""

    data: bytes
    stale_bytes: int = 0
    stale_regions: list[Interval] = field(default_factory=list)

    @property
    def is_stale(self) -> bool:
        return self.stale_bytes > 0


class FileStore:
    """All writes ever made to one file, plus read/settle resolution."""

    def __init__(self, path: str, semantics: Semantics, *,
                 same_process_ordering: bool = True,
                 eventual_delay: float = 0.0):
        self.path = path
        self.semantics = semantics
        self.same_process_ordering = same_process_ordering
        self.eventual_delay = eventual_delay
        self.extents: list[WriteExtent] = []
        self._seq_by_writer: dict[int, int] = {}
        self.laminated = False
        #: fault audit trail: one record per crash/drop that touched us
        self.crashes: list[CrashRecord] = []

    # -- write path ---------------------------------------------------------------

    def write(self, client: int, offset: int, data: bytes,
              t_complete: float) -> WriteExtent:
        if self.laminated:
            from repro.errors import PFSError
            raise PFSError(
                f"{self.path!r} is laminated (permanently read-only)")
        seq = self._seq_by_writer.get(client, 0)
        self._seq_by_writer[client] = seq + 1
        ext = WriteExtent(start=offset, stop=offset + len(data),
                          data=bytes(data), writer=client, seq=seq,
                          t_complete=t_complete)
        if self.semantics is Semantics.STRONG:
            # write-through: the ack *is* the durability point
            ext.commit_point = t_complete
            ext.t_durable = t_complete
        elif self.semantics is Semantics.EVENTUAL:
            ext.commit_point = t_complete + self.eventual_delay
            ext.t_durable = ext.commit_point
        self.extents.append(ext)
        return ext

    def publish(self, client: int, t: float, *, durable: bool = True,
                opened_at: float = -math.inf) -> int:
        """Commit/close by ``client``: publish its unpublished writes.

        Returns how many extents were published.  No-op under strong and
        eventual semantics (their commit points are set at write time).
        ``durable=False`` models an MDS without a journal: the publish
        is *visible* but the commit record lives only in MDS memory, so
        the data stays volatile — a deliberately broken configuration
        the crash-consistency checker exists to catch.  Under object
        semantics ``opened_at`` is the open of the session being PUT:
        versions published by then carry forward, later ones are
        superseded (the default, no open, supersedes every version).
        """
        if self.semantics in (Semantics.STRONG, Semantics.EVENTUAL):
            return 0
        n = 0
        for ext in self.extents:
            if ext.discarded:
                continue
            if ext.writer == client and not math.isfinite(ext.commit_point):
                ext.commit_point = t
                if durable:
                    ext.t_durable = t
                n += 1
        if self.semantics is Semantics.OBJECT and n:
            # the close was a PUT: the staged batch is the new object
            # version on top of the versions the session opened on, and
            # every version published since that open is superseded (a
            # read-only session close publishes nothing and supersedes
            # nothing)
            for ext in self.extents:
                if ext.discarded or math.isfinite(ext.superseded_at):
                    continue
                if opened_at < ext.commit_point < t:
                    ext.superseded_at = t
        return n

    def laminate(self, t: float) -> int:
        """UnifyFS-style lamination (§3.2): publish *everything* and make
        the file permanently read-only.  Returns the number of extents
        published."""
        n = 0
        for ext in self.extents:
            if ext.discarded:
                continue
            if not math.isfinite(ext.commit_point):
                ext.commit_point = t
                ext.t_durable = t
                n += 1
        self.laminated = True
        return n

    # -- read path ------------------------------------------------------------------

    def read(self, client: int, offset: int, count: int, now: float, *,
             client_open_time: float = math.inf) -> ReadOutcome:
        """Resolve a read under the store's semantics.

        Staleness is judged against the POSIX expectation: the write with
        the latest completion time over each byte.
        """
        want = Interval(offset, offset + count)
        visible = [e for e in self.extents
                   if e.live and e.interval.overlaps(want) and e.visible_to(
                       client, now, client_open_time=client_open_time,
                       semantics=self.semantics,
                       same_process_ordering=self.same_process_ordering)]
        buf = bytearray(count)  # holes read as zeros
        covered = IntervalSet()
        # settle visible extents newest-first so older data never
        # overwrites newer data
        order = lambda e: e.order_key(  # noqa: E731
            same_process_ordering=self.same_process_ordering)
        for ext in sorted(visible, key=order, reverse=True):
            piece = ext.interval.intersection(want)
            if piece.empty:
                continue
            for gap in covered.gaps(piece):
                lo = gap.start - ext.start
                buf[gap.start - offset:gap.stop - offset] = \
                    ext.data[lo:lo + len(gap)]
            covered = covered.add(piece)
        outcome = ReadOutcome(data=bytes(buf))
        # staleness is exact: compare against the POSIX expectation
        expected = self._posix_expectation(offset, count)
        if expected != outcome.data:
            outcome.stale_regions = _diff_regions(expected, outcome.data,
                                                  offset)
            outcome.stale_bytes = sum(len(r) for r in outcome.stale_regions)
        return outcome

    def _posix_expectation(self, offset: int, count: int) -> bytes:
        """What a strongly consistent file system would return."""
        want = Interval(offset, offset + count)
        buf = bytearray(count)
        covered = IntervalSet()
        key = lambda e: (e.t_complete, e.writer, e.seq)  # noqa: E731
        for ext in sorted(self.extents, key=key, reverse=True):
            piece = ext.interval.intersection(want)
            if piece.empty:
                continue
            for gap in covered.gaps(piece):
                lo = gap.start - ext.start
                buf[gap.start - offset:gap.stop - offset] = \
                    ext.data[lo:lo + len(gap)]
            covered = covered.add(piece)
        return bytes(buf)

    # -- crash recovery -----------------------------------------------------------------

    def live_extents(self) -> list[WriteExtent]:
        """Extents that crash recovery has not rolled back."""
        return [e for e in self.extents if e.live]

    def settleable_extents(self) -> list[WriteExtent]:
        """Live extents that participate in final content.

        Under OBJECT semantics a superseded version's bytes are gone —
        they never show through holes of the newer version the way a
        partial POSIX overwrite would leave them.
        """
        if self.semantics is Semantics.OBJECT:
            return [e for e in self.extents
                    if e.live and not math.isfinite(e.superseded_at)]
        return self.live_extents()

    def unpublished_extents(self, client: int | None = None
                            ) -> list[WriteExtent]:
        """Live extents with no commit point yet (at risk on crash)."""
        return [e for e in self.extents
                if e.live and not math.isfinite(e.commit_point)
                and (client is None or e.writer == client)]

    def durable_set(self, t: float) -> set[tuple[int, int]]:
        """(writer, seq) of every write durable by time ``t`` — the set
        crash recovery at ``t`` must preserve.  Monotone in ``t``."""
        return {(e.writer, e.seq) for e in self.extents
                if e.t_durable <= t}

    def apply_ost_crash(self, ost: int, t: float, *, stripe_size: int,
                        n_servers: int,
                        broken_recovery: bool = False) -> CrashRecord:
        """One data server lost its volatile state at time ``t``.

        Correct recovery (epoch-marker replay) rolls back every write
        that was not yet durable and had bytes on the crashed OST —
        whole writes, so nothing torn is ever visible.  With
        ``broken_recovery`` the surviving stripes of multi-OST writes
        stay visible instead: the torn-write bug the checker must catch.
        """
        from repro.pfs.servers import stripe_intervals
        record = CrashRecord(t=t, target=f"ost:{ost}")
        replacements: list[WriteExtent] = []
        for ext in self.extents:
            if ext.discarded or ext.t_durable <= t:
                continue
            lost = stripe_intervals(ext.start, ext.stop, stripe_size,
                                    n_servers, ost)
            if not lost:
                continue
            lost_set = IntervalSet(Interval(lo, hi) for lo, hi in lost)
            surviving = IntervalSet(
                [ext.interval]).subtract(lost_set)
            ext.discarded = True
            if broken_recovery and surviving:
                # buggy recovery: keep the fragments on healthy OSTs
                record.torn.append(ext.ref())
                for piece in surviving:
                    frag = WriteExtent(
                        start=piece.start, stop=piece.stop,
                        data=ext.data[piece.start - ext.start:
                                      piece.stop - ext.start],
                        writer=ext.writer, seq=ext.seq,
                        t_complete=ext.t_complete,
                        commit_point=ext.commit_point,
                        t_durable=ext.t_durable, torn=True)
                    replacements.append(frag)
                record.lost_regions.extend(
                    Interval(lo, hi) for lo, hi in lost)
            else:
                record.discarded.append(ext.ref())
                record.lost_regions.append(ext.interval)
        self.extents.extend(replacements)
        if not record.empty:
            self.crashes.append(record)
        return record

    def apply_mds_loss(self, t: float) -> CrashRecord:
        """The MDS crashed with no journal: every publish record that
        lived only in MDS memory is gone, so data that was *visible* but
        never durably journaled rolls back to nothing."""
        record = CrashRecord(t=t, target="mds")
        for ext in self.extents:
            if ext.discarded or ext.t_durable <= t:
                continue
            if math.isfinite(ext.commit_point) and ext.commit_point <= t:
                ext.discarded = True
                record.discarded.append(ext.ref())
                record.lost_regions.append(ext.interval)
        if not record.empty:
            self.crashes.append(record)
        return record

    def discard_unflushed(self, client: int, start: int, stop: int,
                          t: float) -> CrashRecord:
        """A client's write-back buffer over ``[start, stop)`` was lost
        before reaching any server: its volatile writes inside the
        window vanish.  Only ever legal for unpublished data — publish
        drains the cache first — which the checker asserts."""
        record = CrashRecord(t=t, target=f"client:{client}-cache")
        window = Interval(start, stop)
        for ext in self.extents:
            if ext.discarded or ext.writer != client:
                continue
            if ext.t_durable <= t:
                continue
            if window.start <= ext.start and ext.stop <= window.stop:
                ext.discarded = True
                record.discarded.append(ext.ref())
                record.lost_regions.append(ext.interval)
        if not record.empty:
            self.crashes.append(record)
        return record

    def fault_regions(self) -> IntervalSet:
        """Union of byte ranges any injected fault destroyed (the
        attribution set for final-content mismatches)."""
        return IntervalSet(r for rec in self.crashes
                           for r in rec.lost_regions)

    # -- finalization ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return max((e.stop for e in self.settleable_extents()), default=0)

    @property
    def posix_size(self) -> int:
        """Size a failure-free strongly consistent PFS would report."""
        return max((e.stop for e in self.extents), default=0)

    def _definitely_ordered(self, a: WriteExtent, b: WriteExtent) -> bool:
        """Must every correct PFS apply ``a`` before ``b``?

        Yes when ``a`` was already published before ``b`` was written, or
        when both come from one client (and the PFS orders a client's own
        operations).
        """
        if a.writer == b.writer:
            earlier = a.seq < b.seq
            return earlier if self.same_process_ordering else not earlier
        return a.commit_point <= b.t_complete

    def _settle_sequence(self, settle_order: str) -> list[WriteExtent]:
        """Apply order for settlement: a topological order of the
        definitely-ordered relation, with free choices broken by
        ``settle_order`` ("close": publication order; "client":
        per-client log merge, the PLFS index shape)."""
        if settle_order == "close":
            # ascending commit point respects definite order, since a
            # write is always published after it completes
            return sorted(
                self.settleable_extents(),
                key=lambda e: e.order_key(
                    same_process_ordering=self.same_process_ordering))
        # client order: stable Kahn's algorithm preferring low client ids
        import heapq
        exts = self.settleable_extents()
        index = {id(e): i for i, e in enumerate(exts)}
        succs: list[list[int]] = [[] for _ in exts]
        indeg = [0] * len(exts)
        for i, a in enumerate(exts):
            for j, b in enumerate(exts):
                if i != j and a.interval.overlaps(b.interval) \
                        and self._definitely_ordered(a, b):
                    succs[i].append(j)
                    indeg[j] += 1
        heap = [(e.writer, e.seq, index[id(e)]) for e in exts
                if indeg[index[id(e)]] == 0]
        heapq.heapify(heap)
        out: list[WriteExtent] = []
        while heap:
            _, _, i = heapq.heappop(heap)
            out.append(exts[i])
            for j in succs[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(heap, (exts[j].writer, exts[j].seq, j))
        if len(out) != len(exts):  # pragma: no cover - DAG by construction
            raise RuntimeError("cycle in settle ordering")
        return out

    def settle(self, settle_order: str = "close") -> bytes:
        """Final on-disk content after the run (all clients closed).

        Hazardous (mutually unordered, overlapping) writes land in
        whatever order ``settle_order`` picks — the nondeterminism that
        corrupts WAW-conflicted files on a too-weak PFS.  Conflict-free
        workloads settle identically under every order.  Empty stores
        (files opened or created but never written) settle to ``b""``.
        """
        if not self.extents:
            return b""
        buf = bytearray(self.size)
        for ext in self._settle_sequence(settle_order):
            buf[ext.start:ext.stop] = ext.data
        return bytes(buf)

    def posix_settle(self) -> bytes:
        """Final content a failure-free strongly consistent PFS holds."""
        if not self.extents:
            return b""
        return self._posix_expectation(0, self.posix_size)

    def hazard_pairs(self) -> list[tuple[WriteExtent, WriteExtent]]:
        """Overlapping cross-client writes with no enforced order.

        The pair ``(earlier, later)`` is hazardous when the earlier write
        was still unpublished as the later one completed — the PFS may
        apply them either way, so the byte outcome is undefined.  This is
        the PFS-side mirror of the paper's commit-semantics conflict
        condition.  Under OBJECT semantics every pair of cross-client
        writes overlaps — two racing PUTs clobber whole object versions
        regardless of byte ranges.
        """
        out = []
        whole_object = self.semantics is Semantics.OBJECT
        exts = sorted(self.live_extents(),
                      key=lambda e: (e.t_complete, e.writer, e.seq))
        for i, a in enumerate(exts):
            for b in exts[i + 1:]:
                if a.writer == b.writer:
                    continue
                if not whole_object and not a.interval.overlaps(b.interval):
                    continue
                if not self._definitely_ordered(a, b) \
                        and not self._definitely_ordered(b, a):
                    out.append((a, b))
        return out


def _diff_regions(expected: bytes, got: bytes, base: int) -> list[Interval]:
    """Maximal byte ranges (absolute offsets) where the two buffers differ."""
    assert len(expected) == len(got)
    regions: list[Interval] = []
    start: int | None = None
    for i, (a, b) in enumerate(zip(expected, got)):
        if a != b:
            if start is None:
                start = i
        elif start is not None:
            regions.append(Interval(base + start, base + i))
            start = None
    if start is not None:
        regions.append(Interval(base + start, base + len(expected)))
    return regions
