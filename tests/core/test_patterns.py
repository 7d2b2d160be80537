"""Tests for access-pattern classification (Table 3 / Figure 1 logic)."""

import numpy as np

from repro.core.highlevel import _data_rows
from repro.core.patterns import (
    AccessPattern,
    TransitionMix,
    classify_gap_sequence,
    classify_rank_file,
    drop_library_metadata,
    global_pattern_mix,
    local_pattern_mix,
    transition_mix,
)
from repro.core.records import AccessRecord, group_by_path


def seq(extents):
    """Build (offsets, stops) arrays from (offset, size) pairs."""
    offs = np.array([o for o, _ in extents], dtype=np.int64)
    stops = np.array([o + n for o, n in extents], dtype=np.int64)
    return offs, stops


def recs(extents, rank=0, path="/f", sizes=None, is_write=True):
    out = []
    for i, (o, n) in enumerate(extents):
        out.append(AccessRecord(rid=i, rank=rank, path=path, offset=o,
                                stop=o + n, is_write=is_write,
                                tstart=float(i), tend=float(i) + 0.5))
    return out


class TestTransitionMix:
    def test_classification_rule(self):
        # consecutive, monotonic (gap), random (backward)
        offs, stops = seq([(0, 10), (10, 10), (30, 10), (20, 10)])
        mix = transition_mix(offs, stops)
        assert (mix.consecutive, mix.monotonic, mix.random) == (1, 1, 1)

    def test_short_sequences(self):
        offs, stops = seq([(0, 10)])
        assert transition_mix(offs, stops).total == 0

    def test_fraction_and_add(self):
        a = TransitionMix(1, 2, 1)
        b = TransitionMix(3, 0, 0)
        c = a + b
        assert (c.consecutive, c.monotonic, c.random) == (4, 2, 1)
        assert a.fraction("consecutive") == 0.25
        assert TransitionMix().fraction("random") == 0.0


class TestGapClassification:
    def test_consecutive(self):
        offs, stops = seq([(i * 10, 10) for i in range(10)])
        assert classify_gap_sequence(offs, stops) is \
            AccessPattern.CONSECUTIVE

    def test_consecutive_tolerates_few_gaps(self):
        extents = [(i * 10, 10) for i in range(20)]
        extents.append((250, 10))  # one gap among 20 transitions
        offs, stops = seq(extents)
        assert classify_gap_sequence(offs, stops) is \
            AccessPattern.CONSECUTIVE

    def test_strided_single_gap_value(self):
        offs, stops = seq([(i * 40, 10) for i in range(8)])
        assert classify_gap_sequence(offs, stops) is AccessPattern.STRIDED

    def test_strided_dominant_gap_with_rare_jumps(self):
        # long constant-stride runs with one boundary jump per "level"
        extents = []
        base = 0
        for _level in range(2):
            for k in range(10):
                extents.append((base + k * 40, 10))
            base += 1000
        offs, stops = seq(extents)
        assert classify_gap_sequence(offs, stops) is AccessPattern.STRIDED

    def test_strided_cyclic_short_phases(self):
        # 3 stripes per phase (gap g), then a distinct phase jump
        extents = []
        base = 0
        for _phase in range(4):
            for k in range(3):
                extents.append((base + k * 100, 20))
            base += 1000
        offs, stops = seq(extents)
        assert classify_gap_sequence(offs, stops) is \
            AccessPattern.STRIDED_CYCLIC

    def test_monotonic_irregular_gaps(self):
        offs, stops = seq([(0, 10), (25, 10), (90, 10), (200, 10),
                           (330, 10), (700, 10)])
        assert classify_gap_sequence(offs, stops) is AccessPattern.MONOTONIC

    def test_random_backward(self):
        offs, stops = seq([(100, 10), (0, 10), (200, 10), (50, 10)])
        assert classify_gap_sequence(offs, stops) is AccessPattern.RANDOM

    def test_trivial_sequence_consecutive(self):
        offs, stops = seq([(5, 10)])
        assert classify_gap_sequence(offs, stops) is \
            AccessPattern.CONSECUTIVE


class TestMetadataFilter:
    def test_drops_small_when_mixed(self):
        records = recs([(0, 64), (4096, 8192), (12288, 8192), (100, 64)])
        kept = drop_library_metadata(records)
        assert all(r.nbytes == 8192 for r in kept)

    def test_keeps_uniform_sizes(self):
        records = recs([(0, 64), (64, 64), (128, 64)])
        assert drop_library_metadata(records) == records

    def test_keeps_moderate_ratio(self):
        records = recs([(0, 1024), (1024, 4096)])  # 4x, below 8x cutoff
        assert len(drop_library_metadata(records)) == 2

    def test_empty(self):
        assert drop_library_metadata([]) == []

    def test_per_file_filtering(self):
        a = recs([(0, 64), (4096, 8192)], path="/a")
        b = recs([(0, 64), (64, 64)], path="/b")
        tables = group_by_path(a + b)
        kept = {path: t.offset[_data_rows(t)].tolist()
                for path, t in tables.items()}
        assert kept["/a"] == [4096]      # metadata dropped
        assert kept["/b"] == [0, 64]     # uniform sizes kept


class TestRankFileClassifier:
    def test_writes_only_default(self):
        writes = recs([(i * 10, 10) for i in range(5)])
        reads = recs([(500, 10), (0, 10)], is_write=False)
        label = classify_rank_file(writes + reads)
        assert label is AccessPattern.CONSECUTIVE

    def test_metadata_exception_applied(self):
        extents = [(i * 1024, 1024) for i in range(8)]
        records = recs(extents)
        # interleave tiny header rewrites that would otherwise look random
        records += recs([(0, 16)] * 3)
        assert classify_rank_file(records) is AccessPattern.CONSECUTIVE


class TestMixes:
    def test_local_vs_global(self):
        # two ranks each reading the whole file consecutively,
        # interleaved in time -> local consecutive, global random-ish
        records = []
        rid = 0
        for step in range(6):
            for rank in (0, 1):
                records.append(AccessRecord(
                    rid=rid, rank=rank, path="/f", offset=step * 10,
                    stop=step * 10 + 10, is_write=False,
                    tstart=float(rid), tend=float(rid) + 0.1))
                rid += 1
        local = local_pattern_mix(records)
        global_ = global_pattern_mix(records)
        assert local.random == 0
        assert local.consecutive == 10
        assert global_.random > 0
