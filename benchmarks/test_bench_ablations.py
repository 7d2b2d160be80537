"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation disables one mechanism and shows the result moves away
from the paper's shape — evidence the mechanism is load-bearing:

1. metadata-exception filter off -> Table 3 classification degrades;
2. H5Fflush removed (the paper's fix) -> FLASH conflicts vanish;
3. collective metadata (the other fix) -> cross-process conflicts vanish;
4. timestamp alignment matters once skew approaches operation gaps.
"""

from collections import Counter

import repro
from benchmarks.conftest import save_artifact
from repro.core.highlevel import classify_sharing
from repro.core.patterns import AccessPattern, classify_rank_file
from repro.core.semantics import Semantics


def _unfiltered_pattern(table):
    """Majority label over per-rank write sequences, with no metadata
    exception."""
    weights = Counter()
    for rank in dict.fromkeys(table.rank.tolist()):
        seq = table.for_rank(rank)
        label = classify_rank_file(seq, filter_metadata=False)
        weights[label] += max(1, sum(r.is_write for r in seq) - 1)
    return weights.most_common(1)[0][0]


def test_bench_ablation_metadata_filter(benchmark, study8, artifacts):
    """Without the small-metadata exception, HDF5 header traffic drags
    per-rank sequences toward 'random' (the paper's caveat in §6.2)."""
    run = study8.find("FLASH-HDF5 fbs")
    path = next(p for p in run.report.tables
                if "/flash/ckpt/" in p)
    table = run.report.tables[path]

    def classify_both():
        with_filter = classify_sharing({path: table}, 8)[0].pattern
        without = _unfiltered_pattern(table)
        return with_filter, without

    with_filter, without = benchmark(classify_both)
    assert with_filter is AccessPattern.STRIDED_CYCLIC
    assert without in (AccessPattern.RANDOM, AccessPattern.MONOTONIC)
    save_artifact(artifacts, "ablation_metadata_filter.txt",
                  f"with filter: {with_filter}\nwithout: {without}")


def test_bench_ablation_flash_fix_drop_flush(benchmark, artifacts):
    """The paper's one-line fix: removing H5Fflush makes FLASH safe on
    session-semantics file systems."""
    def run():
        trace = repro.run("FLASH", io_library="HDF5", nranks=8,
                          options={"flush_between_datasets": False})
        return repro.analyze(trace)

    report = benchmark.pedantic(run, rounds=2, iterations=1)
    session = report.conflicts(Semantics.SESSION)
    assert not session, "fixed FLASH must be conflict-free"
    assert report.weakest_sufficient_semantics() is Semantics.EVENTUAL
    save_artifact(artifacts, "ablation_flash_noflush.txt",
                  f"conflicts: {len(session)}; weakest sufficient: "
                  f"{report.weakest_sufficient_semantics().title}")


def test_bench_ablation_flash_fix_collective_metadata(benchmark, artifacts):
    """The alternative fix: rank-0-only metadata keeps the flush but
    removes every cross-process conflict."""
    def run():
        trace = repro.run("FLASH", io_library="HDF5", nranks=8,
                          options={"collective_metadata": True})
        return repro.analyze(trace)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    session = report.conflicts(Semantics.SESSION)
    assert not session.cross_process_only
    save_artifact(artifacts, "ablation_flash_collective_md.txt",
                  f"session flags: {session.flags}")


def test_bench_ablation_clock_skew_tolerance(benchmark, artifacts):
    """§5.2's argument: skews (tens of us) are far below the gaps
    between synchronized conflicting operations (ms), so timestamp
    ordering is safe.  Small skews leave results identical."""
    def sweep():
        out = {}
        for skew in (0.0, 15.0):
            trace = repro.run("FLASH", io_library="HDF5", nranks=8,
                              seed=7, clock_skew_us=skew)
            out[skew] = repro.analyze(trace).conflicts(
                Semantics.SESSION).flags
        return out

    flags = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert flags[0.0] == flags[15.0]
    save_artifact(artifacts, "ablation_clock_skew.txt", repr(flags))
