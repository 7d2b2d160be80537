"""Built-in lint rules: the consistency-semantics rule catalogue.

Each rule is one static pass over the trace (and, for the race rules,
the happens-before partial order).  The data-hazard rules reuse the §5.2
conflict conditions verbatim — that is what guarantees the linter's
verdicts are a *superset* of the replay-based Table 4 pipeline (zero
false negatives, pinned by the cross-validation tests).

Catalogue (see ``docs/linting.md`` for the long-form write-up):

========  ============================  ========================================
id        name                          finds
========  ============================  ========================================
L001      commit-hazard                 RAW/WAW pairs conflicting under commit
L002      session-hazard                RAW/WAW pairs conflicting under session
L003      unordered-race                cross-process hazards no synchronization
                                        orders (true races), + clock-skew pairs
L004      missing-commit-on-handoff     synchronized cross-process RAW handoffs
                                        with no commit making data visible
L005      dead-commit                   fsync-family calls that publish nothing
                                        or protect no subsequent reader
L006      fd-hygiene                    unmatched open/close, fd leaks
L007      read-before-any-write         reads of bytes no write ever produced
L008      metadata-visibility           cross-process namespace produce/consume
L009      eventual-hazard               potential conflicts eventual semantics
                                        never resolves
L010      data-at-risk-on-crash         last write to a file never followed by
                                        commit/close (lost on crash)
L011      rename-as-commit              rename used to publish freshly written
                                        data (non-atomic on object stores)
========  ============================  ========================================
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.advisor import suggest_fixes
from repro.core.conflicts import Conflict, ConflictKind, ConflictSet
from repro.core.metadata_conflicts import is_creating_open
from repro.core.report import RunReport
from repro.core.semantics import Semantics
from repro.lint.context import conflict_pair_ids, is_cross_process
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import LintRule, register_rule
from repro.tracer.events import (
    CLOSE_OPS,
    DATA_OPS,
    OPEN_OPS,
    TraceRecord,
)
from repro.util.intervals import Interval, IntervalSet

#: fsync-family only — close/fclose are matched by fd hygiene instead
_FSYNC_OPS = frozenset({"fsync", "fdatasync", "fflush"})


def _group_conflicts(conflicts: Iterable[Conflict]
                     ) -> dict[tuple[str, str], list[Conflict]]:
    """Bucket conflicts by (path, Table-4 cell label)."""
    out: dict[tuple[str, str], list[Conflict]] = {}
    for c in conflicts:
        out.setdefault((c.path, c.label), []).append(c)
    return out


def _hazard_diagnostics(rule: "LintRule", report: RunReport,
                        semantics: Semantics) -> Iterator[Diagnostic]:
    """Shared body of the commit/session hazard rules (L001/L002)."""
    cs = report.conflicts(semantics, max_per_file=None)
    for (path, label), group in sorted(_group_conflicts(cs).items()):
        cross = is_cross_process(group[0])
        severity = Severity.ERROR if cross else Severity.WARNING
        pairs = sorted(conflict_pair_ids(c) for c in group)
        ranks = tuple(sorted({r for c in group
                              for r in (c.first.rank, c.second.rank)}))
        fixes = suggest_fixes(ConflictSet(semantics, list(group)))
        first = min(group, key=lambda c: c.first.tstart)
        scope_txt = ("cross-process" if cross else "same-process")
        yield rule.diagnostic(
            severity,
            f"{len(group)} {label} {scope_txt} conflict(s) under "
            f"{semantics.name.lower()} semantics on {path}",
            path=path, kind=label, ranks=ranks,
            events=conflict_pair_ids(first), time=first.first.tstart,
            count=len(group),
            fixits=tuple(s.summary for s in fixes[:3]),
            data={"pairs": [list(p) for p in pairs],
                  "semantics": semantics.name.lower()})


@register_rule
class CommitHazardRule(LintRule):
    """RAW/WAW hazards that survive commit semantics (§5.2 condition 3)."""

    id = "L001"
    name = "commit-hazard"
    summary = ("overlapping write-first pairs with no commit operation "
               "between them (unsafe on commit-semantics PFSs)")

    def check(self, report: RunReport) -> Iterator[Diagnostic]:
        return _hazard_diagnostics(self, report, Semantics.COMMIT)


@register_rule
class SessionHazardRule(LintRule):
    """RAW/WAW hazards that survive session semantics (§5.2 condition 4)."""

    id = "L002"
    name = "session-hazard"
    summary = ("overlapping write-first pairs with no close/re-open "
               "session boundary between them (unsafe on session-"
               "semantics PFSs)")

    def check(self, report: RunReport) -> Iterator[Diagnostic]:
        return _hazard_diagnostics(self, report, Semantics.SESSION)


@register_rule
class UnorderedRaceRule(LintRule):
    """Cross-process hazards unordered by the recovered happens-before
    graph: true races (§5.2's validation, inverted into a detector)."""

    id = "L003"
    name = "unordered-race"
    summary = ("cross-process potential conflicts with no communication "
               "chain ordering the two accesses (true data races)")

    def check(self, report: RunReport) -> Iterator[Diagnostic]:
        potential = report.conflicts(
            Semantics.EVENTUAL, max_per_file=None).cross_process_only
        if not potential:
            return
        races: dict[tuple[str, str], list[Conflict]] = {}
        skewed: dict[str, list[Conflict]] = {}
        seen: set[tuple[int, int]] = set()
        ordered = report.happens_before.access_ordered
        for c in potential:
            key = conflict_pair_ids(c)
            if key in seen:
                continue
            seen.add(key)
            forward = ordered(c.first, c.second)
            backward = ordered(c.second, c.first)
            if not forward and not backward:
                races.setdefault((c.path, c.label), []).append(c)
            elif backward and not forward:
                skewed.setdefault(c.path, []).append(c)
        for (path, label), group in sorted(races.items()):
            first = min(group, key=lambda c: c.first.tstart)
            ranks = tuple(sorted({r for c in group
                                  for r in (c.first.rank, c.second.rank)}))
            yield self.diagnostic(
                Severity.ERROR,
                f"{len(group)} {label} conflicting pair(s) on {path} "
                f"are not ordered by any communication chain: the "
                f"outcome is timing-dependent on every relaxed PFS",
                path=path, kind=label, ranks=ranks,
                events=conflict_pair_ids(first), time=first.first.tstart,
                count=len(group),
                fixits=("synchronize the two accesses (barrier, "
                        "send/recv, or collective) before relying on "
                        "any consistency model",),
                data={"pairs": sorted(
                    list(conflict_pair_ids(c)) for c in group)})
        for path, group in sorted(skewed.items()):
            first = min(group, key=lambda c: c.first.tstart)
            yield self.diagnostic(
                Severity.WARNING,
                f"{len(group)} pair(s) on {path} are synchronized "
                f"opposite to their timestamp order: clock skew makes "
                f"the trace timeline untrustworthy here",
                path=path, kind="clock-skew",
                events=conflict_pair_ids(first), time=first.first.tstart,
                count=len(group),
                data={"pairs": sorted(
                    list(conflict_pair_ids(c)) for c in group)})


@register_rule
class MissingCommitOnHandoffRule(LintRule):
    """A synchronized cross-process RAW handoff with no commit: the app
    ordered writer -> reader, but nothing makes the bytes visible."""

    id = "L004"
    name = "missing-commit-on-handoff"
    summary = ("cross-process RAW pairs ordered by communication but "
               "with no commit operation publishing the written bytes")

    def check(self, report: RunReport) -> Iterator[Diagnostic]:
        handoffs: dict[str, list[Conflict]] = {}
        for c in report.conflicts(Semantics.COMMIT, max_per_file=None):
            if c.kind is not ConflictKind.RAW or not is_cross_process(c):
                continue
            if report.happens_before.access_ordered(c.first, c.second):
                handoffs.setdefault(c.path, []).append(c)
        for path, group in sorted(handoffs.items()):
            first = min(group, key=lambda c: c.first.tstart)
            ranks = tuple(sorted({r for c in group
                                  for r in (c.first.rank, c.second.rank)}))
            yield self.diagnostic(
                Severity.ERROR,
                f"{len(group)} synchronized writer->reader handoff(s) "
                f"on {path} lack a commit operation: the reader can "
                f"see stale bytes despite correct synchronization",
                path=path, kind="RAW-D", ranks=ranks,
                events=conflict_pair_ids(first), time=first.first.tstart,
                count=len(group),
                fixits=(f"rank {first.first.rank}: fsync {path} after "
                        f"{first.first.func} @ t={first.first.tstart:.6f}"
                        f" (before the handoff to rank "
                        f"{first.second.rank})",),
                data={"pairs": sorted(
                    list(conflict_pair_ids(c)) for c in group)})


@register_rule
class DeadCommitRule(LintRule):
    """Commit operations that buy nothing: either nothing was written
    since the last commit (no-op) or nobody ever reads what they
    publish (unread).  Pure performance waste on any PFS."""

    id = "L005"
    name = "dead-commit"
    summary = ("fsync/fdatasync/fflush calls that publish no new bytes "
               "or protect no subsequent reader")

    def check(self, report: RunReport) -> Iterator[Diagnostic]:
        # first read of each path after a given time, from the resolved
        # accesses (any rank)
        read_times: dict[str, list[float]] = {}
        dirty: dict[tuple[int, str], bool] = {}
        for acc in report.accesses:
            if not acc.is_write:
                read_times.setdefault(acc.path, []).append(acc.tstart)
        last_read: dict[str, float] = {
            p: max(ts) for p, ts in read_times.items()}
        noop: dict[tuple[int, str], list[TraceRecord]] = {}
        unread: dict[tuple[int, str], list[TraceRecord]] = {}
        for rec in report.trace.posix_records:
            if rec.path is None:
                continue
            if rec.func in DATA_OPS and rec.op_class.value == "write":
                dirty[(rec.rank, rec.path)] = True
            elif rec.func in _FSYNC_OPS:
                key = (rec.rank, rec.path)
                if not dirty.get(key, False):
                    noop.setdefault(key, []).append(rec)
                elif last_read.get(rec.path, -1.0) <= rec.tstart:
                    unread.setdefault(key, []).append(rec)
                dirty[key] = False
        for (rank, path), recs in sorted(noop.items()):
            yield self.diagnostic(
                Severity.INFO,
                f"rank {rank} commits {path} {len(recs)} time(s) with "
                f"no new bytes written since the previous commit",
                path=path, kind="no-op", ranks=(rank,),
                events=(recs[0].rid,), time=recs[0].tstart,
                count=len(recs),
                fixits=(f"rank {rank}: drop the redundant "
                        f"{recs[0].func} call(s)",),
                data={"records": [r.rid for r in recs]})
        for (rank, path), recs in sorted(unread.items()):
            yield self.diagnostic(
                Severity.INFO,
                f"rank {rank} commits {path} {len(recs)} time(s) but "
                f"no rank ever reads the file afterwards (durability "
                f"aside, the commit protects no reader)",
                path=path, kind="unread", ranks=(rank,),
                events=(recs[0].rid,), time=recs[0].tstart,
                count=len(recs),
                data={"records": [r.rid for r in recs]})


@register_rule
class FdHygieneRule(LintRule):
    """Descriptor bookkeeping: every open must be closed, every close
    must match an open.  Leaked descriptors keep sessions open forever,
    which defeats session semantics and exhausts server state."""

    id = "L006"
    name = "fd-hygiene"
    summary = "unmatched open/close pairs and descriptors never closed"

    def check(self, report: RunReport) -> Iterator[Diagnostic]:
        open_fds: dict[int, dict[int, TraceRecord]] = {}
        stray: dict[int, list[TraceRecord]] = {}
        for rec in report.trace.posix_records:
            if rec.fd is None:
                continue
            table = open_fds.setdefault(rec.rank, {})
            if rec.func in OPEN_OPS:
                table[rec.fd] = rec
            elif rec.func == "dup":
                newfd = rec.args.get("newfd")
                if newfd is not None:
                    table[int(newfd)] = rec
            elif rec.func in CLOSE_OPS:
                if rec.fd in table:
                    del table[rec.fd]
                else:
                    stray.setdefault(rec.rank, []).append(rec)
        for rank, recs in sorted(stray.items()):
            yield self.diagnostic(
                Severity.WARNING,
                f"rank {rank} closes {len(recs)} descriptor(s) that "
                f"were never opened (double close or fd confusion)",
                path=recs[0].path, kind="stray-close", ranks=(rank,),
                events=(recs[0].rid,), time=recs[0].tstart,
                count=len(recs),
                data={"records": [r.rid for r in recs]})
        for rank, table in sorted(open_fds.items()):
            if not table:
                continue
            leaked = sorted(table.values(), key=lambda r: r.rid)
            paths = sorted({r.path for r in leaked if r.path})
            yield self.diagnostic(
                Severity.WARNING,
                f"rank {rank} leaks {len(leaked)} descriptor(s) never "
                f"closed before exit: {', '.join(paths[:4])}"
                + (" ..." if len(paths) > 4 else ""),
                path=leaked[0].path, kind="fd-leak", ranks=(rank,),
                events=tuple(r.rid for r in leaked[:8]),
                time=leaked[0].tstart, count=len(leaked),
                fixits=(f"rank {rank}: close the descriptor(s) opened "
                        f"at rid(s) "
                        f"{', '.join(str(r.rid) for r in leaked[:8])}",),
                data={"records": [r.rid for r in leaked],
                      "paths": paths})


@register_rule
class ReadBeforeAnyWriteRule(LintRule):
    """Reads of bytes that no write in the whole trace ever produced,
    on files the run itself created: consuming uninitialized data
    (typically holes left by ftruncate-style extension)."""

    id = "L007"
    name = "read-before-any-write"
    summary = ("reads of never-written byte ranges in files created "
               "by the traced run")

    def check(self, report: RunReport) -> Iterator[Diagnostic]:
        created: set[str] = set()
        for rec in report.trace.posix_records:
            if rec.path is not None and is_creating_open(rec):
                created.add(rec.path)
        if not created:
            return
        written: dict[str, IntervalSet] = {}
        for path in created:
            table = report.tables.get(path)
            if table is None:
                continue
            written[path] = IntervalSet(
                Interval(a.offset, a.stop) for a in table
                if a.is_write)
        bad: dict[str, list[tuple[int, int, int]]] = {}
        for acc in report.accesses:
            if acc.is_write or acc.path not in created:
                continue
            holes = IntervalSet([Interval(acc.offset, acc.stop)]).subtract(
                written.get(acc.path, IntervalSet()))
            if holes:
                bad.setdefault(acc.path, []).append(
                    (acc.rid, acc.rank, holes.total_bytes))
        for path, items in sorted(bad.items()):
            total = sum(n for _, _, n in items)
            ranks = tuple(sorted({r for _, r, _ in items}))
            yield self.diagnostic(
                Severity.WARNING,
                f"{len(items)} read(s) on {path} touch {total} byte(s) "
                f"no write ever produced (uninitialized data)",
                path=path, kind="uninitialized", ranks=ranks,
                events=(items[0][0],), count=len(items),
                data={"records": [rid for rid, _, _ in items]})


@register_rule
class MetadataVisibilityRule(LintRule):
    """Cross-process namespace produce/consume pairs: on a PFS with
    relaxed *metadata* consistency (GekkoFS/BatchFS lineage) the
    consumer may not see the entry its partner created."""

    id = "L008"
    name = "metadata-visibility"
    summary = ("cross-process namespace dependencies (create/use, "
               "mkdir/use, rename/use) that relaxed metadata "
               "consistency can break")

    def check(self, report: RunReport) -> Iterator[Diagnostic]:
        cross = report.metadata_conflicts.cross_process
        grouped: dict[tuple[str, str], list] = {}
        for mc in cross:
            grouped.setdefault((mc.path, mc.kind.value), []).append(mc)
        for (path, kind), group in sorted(grouped.items()):
            first = min(group, key=lambda m: m.consumer.tstart)
            ranks = tuple(sorted(
                {m.producer.rank for m in group}
                | {m.consumer.rank for m in group}))
            yield self.diagnostic(
                Severity.WARNING,
                f"{len(group)} cross-process {kind} dependenc(ies) on "
                f"{path}: the consuming rank(s) rely on another rank's "
                f"namespace change being visible",
                path=path, kind=kind, ranks=ranks,
                events=(first.producer.rid, first.consumer.rid),
                time=first.consumer.tstart, count=len(group),
                fixits=("synchronize after the namespace change and, "
                        "on relaxed-metadata systems, flush or "
                        "re-resolve the directory entry",),
                data={"pairs": sorted(
                    [m.producer.rid, m.consumer.rid] for m in group)})


@register_rule
class EventualHazardRule(LintRule):
    """Potential conflicts that eventual consistency never resolves:
    the floor of the app's semantics requirement (§3.5's caution)."""

    id = "L009"
    name = "eventual-hazard"
    summary = ("potential conflicts with no visibility-forcing fix "
               "under eventual consistency (the app's semantics floor)")

    def check(self, report: RunReport) -> Iterator[Diagnostic]:
        cs = report.conflicts(Semantics.EVENTUAL, max_per_file=None)
        by_path: dict[str, dict[str, int]] = {}
        first_time: dict[str, float] = {}
        for c in cs:
            cell = by_path.setdefault(c.path, {})
            cell[c.label] = cell.get(c.label, 0) + 1
            t = first_time.get(c.path)
            if t is None or c.first.tstart < t:
                first_time[c.path] = c.first.tstart
        for path, cells in sorted(by_path.items()):
            total = sum(cells.values())
            labels = ", ".join(f"{k}:{v}" for k, v in sorted(cells.items()))
            yield self.diagnostic(
                Severity.INFO,
                f"{total} potential conflict(s) on {path} ({labels}) "
                f"remain unresolved under eventual consistency; the "
                f"application requires a stronger model for this file",
                path=path, kind="floor", time=first_time[path],
                count=total, data={"cells": dict(sorted(cells.items()))})


@register_rule
class DataAtRiskOnCrashRule(LintRule):
    """Write streams left unpublished at exit: the file's last write is
    never followed by a commit or close, so a crash at any later point
    loses it under commit/session recovery (the §5 durability
    contracts; see ``docs/fault_model.md``).

    Two tiers: no commit *and* no close after the last write is a
    WARNING (at risk under both commit and session recovery); committed
    but never closed is an INFO (safe under commit recovery, still at
    risk under session recovery, where close is the only commit point).
    """

    id = "L010"
    name = "data-at-risk-on-crash"
    summary = ("files whose last write is never followed by a "
               "commit/close before end-of-trace (lost on crash)")

    #: per-(rank, path) stream states
    _CLEAN, _DIRTY, _COMMITTED = 0, 1, 2

    def check(self, report: RunReport) -> Iterator[Diagnostic]:
        # zero-length writes publish nothing and are no-ops on replay
        write_rids = {a.rid for a in report.accesses
                      if a.is_write and a.nbytes > 0}
        state: dict[tuple[int, str], int] = {}
        last_write: dict[tuple[int, str], TraceRecord] = {}
        writes_since: dict[tuple[int, str], int] = {}
        for rec in report.trace.posix_records:
            if rec.path is None:
                continue
            key = (rec.rank, rec.path)
            if rec.rid in write_rids:
                if state.get(key, self._CLEAN) != self._DIRTY:
                    writes_since[key] = 0
                state[key] = self._DIRTY
                last_write[key] = rec
                writes_since[key] += 1
            elif rec.func in _FSYNC_OPS:
                if state.get(key, self._CLEAN) == self._DIRTY:
                    state[key] = self._COMMITTED
            elif rec.func in CLOSE_OPS:
                state[key] = self._CLEAN
        for key, st in sorted(state.items()):
            if st == self._CLEAN:
                continue
            rank, path = key
            rec = last_write[key]
            n = writes_since[key]
            if st == self._DIRTY:
                yield self.diagnostic(
                    Severity.WARNING,
                    f"rank {rank} leaves {n} write(s) to {path} neither "
                    f"committed nor closed at end-of-trace: a crash "
                    f"after the run loses them under commit and "
                    f"session recovery",
                    path=path, kind="uncommitted", ranks=(rank,),
                    events=(rec.rid,), time=rec.tstart, count=n,
                    fixits=(f"rank {rank}: fsync and close {path} "
                            f"after the last write (rid {rec.rid}) to "
                            f"make it durable",),
                    data={"last_write": rec.rid, "writes": n})
            else:
                yield self.diagnostic(
                    Severity.INFO,
                    f"rank {rank} commits its last write(s) to {path} "
                    f"but never closes it: durable under commit "
                    f"recovery, still lost under session recovery "
                    f"(close is the only publication point there)",
                    path=path, kind="unclosed", ranks=(rank,),
                    events=(rec.rid,), time=rec.tstart, count=n,
                    fixits=(f"rank {rank}: close {path} before exit",),
                    data={"last_write": rec.rid, "writes": n})


@register_rule
class RenameAsCommitRule(LintRule):
    """Rename used as the publication step of freshly written data: the
    write-temp-then-rename idiom.  Atomic on a POSIX namespace, but an
    object store has no rename — it is copy-then-delete, two separately
    visible events.  A crash in the window leaves both keys; a
    concurrent reader can observe neither or both.  ERROR when another
    rank consumes the destination afterwards (the swap's atomicity is
    load-bearing), WARNING otherwise."""

    id = "L011"
    name = "rename-as-commit"
    summary = ("rename publishing freshly written data — atomic on "
               "POSIX, copy+delete (non-atomic) on object stores")

    def check(self, report: RunReport) -> Iterator[Diagnostic]:
        written = {path for path, table in report.tables.items()
                   if bool(table.is_write.any())}
        consumers: dict[str, list[TraceRecord]] = {}
        for rec in report.trace.posix_records:
            if rec.path is not None and (rec.func in OPEN_OPS
                                         or rec.func in DATA_OPS):
                consumers.setdefault(rec.path, []).append(rec)
        for rec in report.trace.posix_records:
            if rec.func != "rename" or rec.path is None:
                continue
            if rec.path not in written:
                continue
            dst = rec.args.get("to")
            cross = [r for r in consumers.get(dst, ())
                     if r.tstart > rec.tend and r.rank != rec.rank]
            severity = Severity.ERROR if cross else Severity.WARNING
            detail = (f"; rank(s) "
                      f"{sorted({r.rank for r in cross})} consume "
                      f"{dst} afterwards and depend on the swap being "
                      f"atomic" if cross else "")
            yield self.diagnostic(
                severity,
                f"rank {rec.rank} renames {rec.path} -> {dst} after "
                f"writing it: rename-as-commit is atomic on POSIX but "
                f"copy+delete on an object store — a crash in the "
                f"window leaves both keys visible{detail}",
                path=rec.path, kind="rename-commit", ranks=(rec.rank,),
                events=(rec.rid,), time=rec.tstart, count=1,
                fixits=("write the final object directly and publish "
                        "it with one whole-object PUT (the close), or "
                        "follow the copy with a manifest/marker object "
                        "readers check instead of the key itself",),
                data={"src": rec.path, "dst": dst,
                      "consumers": sorted(r.rid for r in cross)})
