"""Property tests: the vectorized conflict filter equals the per-pair
binary-search oracle, and counting equals detection, on arbitrary
traces."""

import numpy as np
from hypothesis import given, settings

from repro.core.conflicts import (
    VisibilityIndex,
    _actual_conflict_mask,
    _candidate_pairs,
    _is_actual_conflict,
    count_conflicts,
    detect_conflicts,
)
from repro.core.offsets import reconstruct_offsets
from repro.core.records import group_by_path
from repro.core.semantics import Semantics
from tests.properties.test_property_conflicts import build_trace, event

import hypothesis.strategies as st


def assert_mask_matches_oracle(trace, semantics):
    """Over the shared candidate pairs of every file, the vectorized
    mask keeps exactly the pairs the per-pair oracle calls conflicts."""
    vis = VisibilityIndex(trace)
    for path, table in group_by_path(
            reconstruct_offsets(trace.records)).items():
        pairs = _candidate_pairs(table)
        mask = _actual_conflict_mask(table, pairs, vis, semantics)
        oracle = np.array([_is_actual_conflict(
            semantics, vis, path, table.records[int(i)],
            table.records[int(j)]) for i, j in pairs], dtype=bool)
        assert np.array_equal(mask, oracle), (path, semantics)


@given(st.lists(event, max_size=30))
@settings(max_examples=80, deadline=None)
def test_vectorized_equals_python_oracle(events):
    trace = build_trace(events)
    for semantics in (Semantics.STRONG, Semantics.COMMIT,
                      Semantics.SESSION, Semantics.EVENTUAL):
        assert_mask_matches_oracle(trace, semantics)


def test_engines_agree_on_real_apps(study8):
    for label in ("FLASH-HDF5 fbs", "NWChem-POSIX", "LAMMPS-ADIOS",
                  "MACSio-Silo"):
        trace = study8.find(label).trace
        for semantics in (Semantics.COMMIT, Semantics.SESSION):
            assert_mask_matches_oracle(trace, semantics)


@given(st.lists(event, max_size=30))
@settings(max_examples=60, deadline=None)
def test_counting_fast_path_matches_detection(events):
    trace = build_trace(events)
    vis = VisibilityIndex(trace)
    tables = group_by_path(reconstruct_offsets(trace.records))
    for semantics in (Semantics.COMMIT, Semantics.SESSION,
                      Semantics.EVENTUAL, Semantics.OBJECT):
        counts = count_conflicts(vis, tables, semantics)
        cs = detect_conflicts(vis, tables, semantics)
        assert counts == cs.label_counts(), semantics
