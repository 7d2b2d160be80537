"""The per-run trace collector.

One :class:`Recorder` instance is shared by all ranks of a simulated run
(safe because the engine runs one rank at a time).  The POSIX/MPI-IO/I-O
library layers call :meth:`record` around each operation; MPI communication
calls :meth:`record_mpi`.  Layer attribution works with a per-rank stack:
entering a library pushes its layer, so any nested call knows who issued it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.tracer.events import Layer, MPIEvent, TraceRecord
from repro.tracer.trace import Trace


class Recorder:
    """Collects :class:`TraceRecord`/:class:`MPIEvent` streams for a run."""

    def __init__(self, nranks: int):
        self.nranks = int(nranks)
        self._records: list[list[TraceRecord]] = [[] for _ in range(nranks)]
        self._mpi_events: list[list[MPIEvent]] = [[] for _ in range(nranks)]
        self._stacks: list[list[Layer]] = [[Layer.APP] for _ in range(nranks)]
        self._origins: list[float | None] = [None] * nranks
        self._next_rid = 0
        self._next_eid = 0

    # -- layer attribution -------------------------------------------------------

    @contextmanager
    def in_layer(self, rank: int, layer: Layer) -> Iterator[None]:
        """Mark that ``rank`` is executing inside ``layer`` (re-entrant)."""
        stack = self._stacks[rank]
        stack.append(layer)
        try:
            yield
        finally:
            stack.pop()

    def issuer(self, rank: int) -> Layer:
        """The layer currently executing on ``rank`` (who issues new calls)."""
        return self._stacks[rank][-1]

    # -- record ingestion ----------------------------------------------------------

    def record(self, rank: int, layer: Layer, func: str,
               tstart: float, tend: float, *,
               path: str | None = None, fd: int | None = None,
               offset: int | None = None, count: int | None = None,
               args: dict[str, Any] | None = None, result: Any = None,
               gt_offset: int | None = None) -> TraceRecord:
        rec = TraceRecord(
            rid=self._next_rid, rank=rank, layer=layer,
            issuer=self.issuer(rank), func=func,
            tstart=tstart, tend=tend, path=path, fd=fd, offset=offset,
            count=count, args=dict(args or {}), result=result,
            gt_offset=gt_offset)
        self._next_rid += 1
        self._records[rank].append(rec)
        return rec

    def record_mpi(self, rank: int, kind: str, match_key: tuple, role: str,
                   tstart: float, tend: float) -> MPIEvent:
        ev = MPIEvent(eid=self._next_eid, rank=rank, kind=kind,
                      match_key=match_key, role=role,
                      tstart=tstart, tend=tend)
        self._next_eid += 1
        self._mpi_events[rank].append(ev)
        return ev

    # -- barrier-based timestamp alignment ------------------------------------------

    def set_time_origin(self, rank: int, t_local: float) -> None:
        """Fix ``rank``'s zero point (the exit of the run's first barrier).

        The paper aligns node clocks by performing a barrier at startup and
        treating each rank's barrier-exit local time as ``time = 0``; this
        implements exactly that adjustment.
        """
        if self._origins[rank] is None:
            self._origins[rank] = float(t_local)

    # -- finalization ---------------------------------------------------------------

    def build_trace(self, *, meta: dict[str, Any] | None = None) -> Trace:
        """Produce the immutable aligned trace for analysis."""
        records: list[TraceRecord] = []
        events: list[MPIEvent] = []
        for rank in range(self.nranks):
            origin = self._origins[rank] or 0.0
            records.extend(r.shifted(-origin) for r in self._records[rank])
            events.extend(e.shifted(-origin) for e in self._mpi_events[rank])
        records.sort(key=lambda r: (r.tstart, r.rank, r.rid))
        events.sort(key=lambda e: (e.tstart, e.rank, e.eid))
        # Renumber ids to the sorted position.  Ingestion order within one
        # rank is preserved (ties sort by the provisional id), so this is a
        # pure relabeling — and it makes ids a function of the trace
        # *content* rather than of the order in which ranks happened to
        # interleave while recording.
        for i, r in enumerate(records):
            r.rid = i
        for i, e in enumerate(events):
            e.eid = i
        return Trace(nranks=self.nranks, records=records, mpi_events=events,
                     meta=dict(meta or {}))
