"""High-level X–Y sharing-pattern classification (paper Table 3).

``X`` is how many processes perform *data* I/O on a file group (N = all
ranks, M = a proper subset larger than one, 1 = a single rank); ``Y`` is
the number of files accessed per I/O phase under the same convention.
Groups are file families — files of one output kind, e.g. all checkpoint
files of a run — identified here by their directory (application proxies
put each output family in its own directory, matching how real runs
separate plot files, checkpoints, and scratch).

Two refinements match the paper's conventions:

* library metadata is excluded before counting writers (the paper
  classifies FLASH-fbs as M-1 even though ~30 extra ranks write small
  HDF5 metadata — only the six aggregators move data);
* a *series* of files that all share one writer set (checkpoint
  generations) counts as ``Y = 1``: each I/O phase accesses one shared
  file.  Distinct writer sets per file (rank-private or group files)
  count the files.
"""

from __future__ import annotations

import posixpath
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.patterns import AccessPattern, classify_gap_sequence
from repro.core.records import AccessTable


@dataclass(frozen=True)
class SharingPattern:
    """One file group's Table 3 characterization."""

    group: str                # directory common to the group's files
    nfiles: int
    files_per_phase: int      # Y before cardinality bucketing
    writer_ranks: frozenset[int]
    reader_ranks: frozenset[int]
    bytes_written: int
    bytes_read: int
    pattern: AccessPattern

    def xy(self, nranks: int) -> str:
        """The paper's X-Y notation, e.g. ``"N-1"`` or ``"M-M"``."""
        ranks = self.writer_ranks or self.reader_ranks
        return f"{_cardinality(len(ranks), nranks)}-" \
               f"{_cardinality(self.files_per_phase, nranks)}"

    @property
    def io_ranks(self) -> frozenset[int]:
        return self.writer_ranks | self.reader_ranks


def _cardinality(count: int, nranks: int) -> str:
    if count >= nranks:
        return "N"
    if count <= 1:
        return "1"
    return "M"


def classify_sharing(tables: dict[str, AccessTable],
                     nranks: int) -> list[SharingPattern]:
    """Group per-file tables by directory and characterize each group.

    Groups are returned most-bytes-written first, so index 0 is the run's
    *primary* output pattern (the Table 3 row entry).
    """
    by_group: dict[str, list[AccessTable]] = defaultdict(list)
    for path, table in tables.items():
        by_group[posixpath.dirname(path)].append(table)
    out: list[SharingPattern] = []
    for group, members in sorted(by_group.items()):
        kept = [_data_rows(t) for t in members]
        writers: set[int] = set()
        readers: set[int] = set()
        rank_sets = set()
        for t, keep in zip(members, kept):
            writers.update(t.rank[keep & t.is_write].tolist())
            readers.update(t.rank[keep & ~t.is_write].tolist())
            rank_sets.add(frozenset(t.rank[keep].tolist()))
        out.append(SharingPattern(
            group=group, nfiles=len(members),
            # a series of files sharing one rank set (checkpoint
            # generations) accesses one file per phase
            files_per_phase=1 if len(rank_sets) == 1 else len(members),
            writer_ranks=frozenset(writers),
            reader_ranks=frozenset(readers),
            bytes_written=sum(t.bytes_written for t in members),
            bytes_read=sum(t.bytes_read for t in members),
            pattern=_group_pattern(members, kept, bool(writers))))
    out.sort(key=lambda g: (g.bytes_written, g.bytes_read), reverse=True)
    return out


def _data_rows(table: AccessTable) -> np.ndarray:
    """The paper's small-metadata exception, per file across all ranks:
    drop accesses at least 8x smaller than the file's largest."""
    sizes = table.stop - table.offset
    return sizes * 8 >= sizes.max()


def _group_pattern(members: list[AccessTable], kept: list[np.ndarray],
                   writes_only: bool) -> AccessPattern:
    """Majority (transition-weighted) label over the group's per-(rank,
    file) sequences, visited in ``(tstart, rid)`` order of their first
    access so that ties resolve to the label seen first."""
    seqs = []
    for t, keep in zip(members, kept):
        rows = np.flatnonzero(keep & t.is_write if writes_only else keep)
        # rows are (tstart, rid)-ordered; a stable sort keeps that order
        # inside each rank's sequence
        rows = rows[np.argsort(t.rank[rows], kind="stable")]
        if rows.size:
            for seq in np.split(rows, np.flatnonzero(np.diff(
                    t.rank[rows])) + 1):
                seqs.append((float(t.tstart[seq[0]]), int(t.rid[seq[0]]),
                             t, seq))
    weights: Counter = Counter()
    for _, _, t, seq in sorted(seqs, key=lambda s: s[:2]):
        label = classify_gap_sequence(t.offset[seq], t.stop[seq])
        weights[label] += max(1, seq.size - 1)
    return weights.most_common(1)[0][0]


def primary_pattern(tables: dict[str, AccessTable],
                    nranks: int) -> SharingPattern | None:
    """The dominant (most bytes written) output group, or None."""
    groups = classify_sharing(tables, nranks)
    return groups[0] if groups else None
