"""Access-pattern characterization (paper §4, §6.2, Table 3, Figure 1).

Two granularities:

* **Per-transition mix** (Figure 1): for consecutive accesses in a
  sequence, with ``o`` the next start and ``p`` the previous end:
  ``o == p`` → *consecutive*, ``o > p`` → *monotonic*, ``o < p`` →
  *random*.  Computed locally (per rank per file) and globally (per file,
  all ranks in timestamp order).
* **Sequence classification** (Table 3): a whole per-(rank, file) write
  sequence is labelled consecutive / strided / strided-cyclic /
  monotonic / random from its gap structure.  Library metadata is
  excluded first, matching the paper's "except for a small amount of
  extra metadata" caveat: accesses are dropped when they are at least 8×
  smaller than the sequence's dominant (median) access size.

Gap rules (gap = next start − previous end, zero-length gaps are the
consecutive case):

* ≥ 90% zero gaps → CONSECUTIVE;
* any backward gap → RANDOM (writes in well-formed output phases move
  forward; backward jumps that survive metadata filtering are real);
* one positive gap value → STRIDED;
* few gap values with the smallest dominant and larger jumps recurring
  periodically (≥ 2 cycles) → STRIDED_CYCLIC — the signature of
  round-interleaved collective buffering (FLASH-fbs, VPIC-IO);
* otherwise MONOTONIC.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.records import AccessRecord


class AccessPattern(str, enum.Enum):
    CONSECUTIVE = "consecutive"
    STRIDED = "strided"
    STRIDED_CYCLIC = "strided cyclic"
    MONOTONIC = "monotonic"
    RANDOM = "random"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TransitionMix:
    """Counts of per-transition classes (Figure 1 bars)."""

    consecutive: int = 0
    monotonic: int = 0
    random: int = 0

    @property
    def total(self) -> int:
        return self.consecutive + self.monotonic + self.random

    def fraction(self, which: str) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return getattr(self, which) / total

    def __add__(self, other: "TransitionMix") -> "TransitionMix":
        return TransitionMix(self.consecutive + other.consecutive,
                             self.monotonic + other.monotonic,
                             self.random + other.random)


def transition_mix(offsets: np.ndarray, stops: np.ndarray) -> TransitionMix:
    """Classify each transition of one access sequence (already in order)."""
    if len(offsets) < 2:
        return TransitionMix()
    gaps = offsets[1:] - stops[:-1]
    return TransitionMix(
        consecutive=int(np.sum(gaps == 0)),
        monotonic=int(np.sum(gaps > 0)),
        random=int(np.sum(gaps < 0)),
    )


def _sequences_by_rank(records: list[AccessRecord]
                       ) -> dict[tuple[int, str], list[AccessRecord]]:
    out: dict[tuple[int, str], list[AccessRecord]] = {}
    for r in sorted(records, key=lambda r: (r.tstart, r.rid)):
        out.setdefault((r.rank, r.path), []).append(r)
    return out


def local_pattern_mix(records: list[AccessRecord]) -> TransitionMix:
    """Figure 1(b): transitions within each (rank, file) sequence."""
    total = TransitionMix()
    for seq in _sequences_by_rank(records).values():
        offsets = np.fromiter((r.offset for r in seq), np.int64, len(seq))
        stops = np.fromiter((r.stop for r in seq), np.int64, len(seq))
        total = total + transition_mix(offsets, stops)
    return total


def global_pattern_mix(records: list[AccessRecord]) -> TransitionMix:
    """Figure 1(a): transitions per file with all ranks interleaved."""
    byfile: dict[str, list[AccessRecord]] = {}
    for r in sorted(records, key=lambda r: (r.tstart, r.rid)):
        byfile.setdefault(r.path, []).append(r)
    total = TransitionMix()
    for seq in byfile.values():
        offsets = np.fromiter((r.offset for r in seq), np.int64, len(seq))
        stops = np.fromiter((r.stop for r in seq), np.int64, len(seq))
        total = total + transition_mix(offsets, stops)
    return total


def drop_library_metadata(records: list[AccessRecord]
                          ) -> list[AccessRecord]:
    """Apply the paper's small-metadata exception before classification.

    When a file mixes large data accesses with much smaller
    library-metadata accesses (headers, TOCs, index entries), drop
    accesses at least 8x smaller than the largest access.  The threshold
    anchors on the maximum because metadata operations can outnumber the
    data operations (e.g. HDF5 header pieces at small rank counts), which
    would fool a median.
    """
    if not records:
        return records
    sizes = np.fromiter((r.nbytes for r in records), np.int64, len(records))
    biggest = int(sizes.max())
    if biggest < 8 * int(sizes.min()):
        return records
    keep = sizes * 8 >= biggest
    return [r for r, k in zip(records, keep) if k]


def classify_gap_sequence(offsets: np.ndarray,
                          stops: np.ndarray) -> AccessPattern:
    """Label one ordered access sequence per the Table 3 taxonomy."""
    n = len(offsets)
    if n < 2:
        return AccessPattern.CONSECUTIVE
    gaps = offsets[1:] - stops[:-1]
    n_zero = int(np.sum(gaps == 0))
    if n_zero >= 0.9 * len(gaps):
        return AccessPattern.CONSECUTIVE
    if np.any(gaps < 0):
        return AccessPattern.RANDOM
    positive = gaps[gaps > 0]
    values = Counter(positive.tolist())
    if len(values) == 1:
        return AccessPattern.STRIDED
    if _is_cyclic(gaps, values):
        return AccessPattern.STRIDED_CYCLIC
    dominant = values.most_common(1)[0][1]
    if dominant >= 0.8 * len(positive):
        return AccessPattern.STRIDED
    return AccessPattern.MONOTONIC


#: A cyclic phase must be short (few accesses between phase jumps); long
#: constant-stride runs with occasional dataset-boundary jumps read as
#: plain strided.
_MAX_CYCLE_SPACING = 4


def _is_cyclic(gaps: np.ndarray, values: Counter) -> bool:
    """Short periodic stride runs separated by recurring larger jumps.

    This is the signature of round-interleaved collective buffering: an
    aggregator writes a handful of stripes per I/O phase (gaps equal to
    the stripe interleave, the *most common* gap), then jumps to the next
    phase's region — FLASH-fbs and VPIC-IO in the paper's Table 3.
    Independent strided writers (Chombo, ParaDiS, FLASH-nofbs) produce
    long same-stride runs instead and stay "strided".
    """
    if len(values) > 3:
        return False
    stride, stride_count = values.most_common(1)[0]
    total_positive = sum(values.values())
    if stride_count < 0.5 * total_positive:
        return False
    # positions of the non-dominant (phase-boundary) jumps
    boundary_positions = np.flatnonzero((gaps > 0) & (gaps != stride))
    if len(boundary_positions) < 2:
        return False
    spacing = np.diff(boundary_positions)
    if len(spacing) and not np.all(spacing == spacing[0]):
        return False
    period = int(spacing[0]) if len(spacing) else len(gaps)
    return period <= _MAX_CYCLE_SPACING


def classify_rank_file(records: list[AccessRecord], *,
                       writes_only: bool = True,
                       filter_metadata: bool = True) -> AccessPattern:
    """Classify one (rank, file) sequence for the Table 3 taxonomy."""
    seq = [r for r in records if r.is_write] if writes_only else list(records)
    if filter_metadata:
        seq = drop_library_metadata(seq)
    seq.sort(key=lambda r: (r.tstart, r.rid))
    offsets = np.fromiter((r.offset for r in seq), np.int64, len(seq))
    stops = np.fromiter((r.stop for r in seq), np.int64, len(seq))
    return classify_gap_sequence(offsets, stops)
