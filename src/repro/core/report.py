"""Per-run analysis report: the one-stop result object.

:func:`analyze` runs the full pipeline on a trace; :class:`RunReport`
memoizes each analysis and renders the per-application report the paper
published alongside its data (function counters, I/O sizes, per-file
conflicts, pattern mixes, metadata usage, semantics verdict).

``RunReport`` is the only place the §5.1 → §5.2 pipeline is assembled:
lint rules, the lint cross-check, the static-checker soundness harness
and the columnar round trip all read one report per trace, so each
trace gets one offset reconstruction and one visibility index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.advisor import FixSuggestion, suggest_fixes
from repro.core.conflicts import (
    ConflictSet,
    VisibilityIndex,
    detect_conflicts,
)
from repro.core.highlevel import SharingPattern, classify_sharing
from repro.core.metadata import MetadataUsage, metadata_usage
from repro.core.metadata_conflicts import (
    MetadataConflictSet,
    detect_metadata_conflicts,
)
from repro.core.offsets import reconstruct_offsets
from repro.core.overlaps import overlap_rank_matrix
from repro.core.patterns import (
    TransitionMix,
    global_pattern_mix,
    local_pattern_mix,
)
from repro.core.records import AccessRecord, AccessTable, group_by_path
from repro.core.semantics import (
    FileSystemInfo,
    Semantics,
    compatible_filesystems,
    object_store_compatible,
    weakest_sufficient_semantics,
)
from repro.core.happens_before import (
    HappensBefore,
    RaceReport,
    validate_race_freedom,
)
from repro.tracer.profile import TraceProfile, profile_trace
from repro.tracer.trace import Trace
from repro.util.formatting import human_bytes, percentage
from repro.util.tables import AsciiTable


#: default per-file conflict cap of the report path: the Table 4 flags
#: and file lists need far fewer pairs than a pathological file can hold
MAX_CONFLICTS_PER_FILE = 10_000


@dataclass
class RunReport:
    """Lazy bundle of every analysis for one traced run."""

    trace: Trace

    # -- pipeline stages (memoized) ------------------------------------------

    @cached_property
    def accesses(self) -> list[AccessRecord]:
        """Offset-resolved POSIX data accesses (§5.1)."""
        return reconstruct_offsets(self.trace.records)

    @cached_property
    def tables(self) -> dict[str, AccessTable]:
        return group_by_path(self.accesses)

    @cached_property
    def visibility(self) -> VisibilityIndex:
        """Per (rank, path) open/close/commit timelines (§5.2 cond. 3-4)."""
        return VisibilityIndex(self.trace)

    @cached_property
    def happens_before(self) -> HappensBefore:
        return HappensBefore(self.trace)

    def conflicts(self, semantics: Semantics,
                  max_per_file: int | None = MAX_CONFLICTS_PER_FILE,
                  ) -> ConflictSet:
        """Conflict set under one model, cached per (model, cap);
        ``max_per_file=None`` is uncapped."""
        key = (semantics, max_per_file)
        cache = self.__dict__.setdefault("_conflict_cache", {})
        if key not in cache:
            cache[key] = detect_conflicts(
                self.visibility, self.tables, semantics,
                max_conflicts_per_file=max_per_file)
        return cache[key]

    @cached_property
    def conflicts_by_model(self) -> dict[Semantics, ConflictSet]:
        return {s: self.conflicts(s)
                for s in (Semantics.SESSION, Semantics.COMMIT,
                          Semantics.EVENTUAL, Semantics.OBJECT)}

    @cached_property
    def sharing(self) -> list[SharingPattern]:
        return classify_sharing(self.accesses, self.trace.nranks)

    @cached_property
    def local_mix(self) -> TransitionMix:
        return local_pattern_mix(self.accesses)

    @cached_property
    def global_mix(self) -> TransitionMix:
        return global_pattern_mix(self.accesses)

    @cached_property
    def metadata(self) -> MetadataUsage:
        return metadata_usage(self.trace)

    @cached_property
    def profile(self) -> TraceProfile:
        """Darshan-style per-file counters for this run."""
        return profile_trace(self.trace, self.accesses)

    @cached_property
    def metadata_conflicts(self) -> MetadataConflictSet:
        """Namespace produce/consume pairs (the paper's future work;
        relevant for relaxed-*metadata* systems like GekkoFS/BatchFS)."""
        return detect_metadata_conflicts(self.trace)

    # -- verdicts ---------------------------------------------------------------

    def weakest_sufficient_semantics(
            self, *, same_process_ordering: bool = True) -> Semantics:
        """The weakest PFS model this run tolerates (§6.3 logic)."""
        return weakest_sufficient_semantics(
            self.conflicts_by_model,
            same_process_ordering=same_process_ordering)

    def compatible_filesystems(self) -> list[FileSystemInfo]:
        return compatible_filesystems(self.conflicts_by_model)

    def object_store_compatible(
            self, *, same_process_ordering: bool = True) -> bool:
        """Whole-object verdict: safe on an immutable-PUT backend?"""
        return object_store_compatible(
            self.conflicts_by_model,
            same_process_ordering=same_process_ordering)

    def suggested_fixes(self, semantics: Semantics = Semantics.SESSION
                        ) -> list[FixSuggestion]:
        """§4.1 repair advice for this run's conflicts under a model."""
        return suggest_fixes(self.conflicts(semantics))

    def overlap_matrix(self, path: str):
        """The paper's rank-pair overlap table ``P[r_i, r_j]`` for one
        file (Algorithm 1's output form)."""
        return overlap_rank_matrix(self.tables[path], self.trace.nranks)

    def validate(self, semantics: Semantics = Semantics.SESSION,
                 *, raise_on_race: bool = False) -> RaceReport:
        """§5.2 validation: conflicting pairs must be synchronized."""
        pairs = [(c.first, c.second) for c in self.conflicts(semantics)]
        return validate_race_freedom(self.trace, pairs,
                                     raise_on_race=raise_on_race)

    # -- presentation ---------------------------------------------------------------

    @property
    def name(self) -> str:
        meta = self.trace.meta
        app = meta.get("application", meta.get("app", "run"))
        lib = meta.get("io_library")
        return f"{app}-{lib}" if lib else str(app)

    def to_text(self) -> str:
        """The detailed per-run report (counters, sizes, conflicts...)."""
        lines = [f"=== I/O analysis report: {self.name} "
                 f"({self.trace.nranks} ranks) ==="]
        rd, wr = self.trace.bytes_moved()
        lines.append(f"POSIX bytes read {human_bytes(rd)}, "
                     f"written {human_bytes(wr)}; "
                     f"{len(self.trace.records)} records across "
                     f"{len(self.trace.data_paths)} data files")

        counters = AsciiTable(["function", "calls"],
                              title="Function counters (POSIX layer)")
        from repro.tracer.events import Layer
        for func, count in sorted(
                self.trace.function_counts(Layer.POSIX).items()):
            counters.add_row(func, count)
        lines.append(counters.render())

        share = AsciiTable(
            ["file group", "X-Y", "files", "writers", "pattern",
             "bytes written"],
            title="High-level sharing patterns")
        for g in self.sharing:
            share.add_row(g.group, g.xy(self.trace.nranks), g.nfiles,
                          len(g.writer_ranks), g.pattern,
                          human_bytes(g.bytes_written))
        lines.append(share.render())

        mixes = AsciiTable(["view", "consecutive", "monotonic", "random"],
                           title="Fine-grained access mix")
        for label, mix in (("local", self.local_mix),
                           ("global", self.global_mix)):
            mixes.add_row(label,
                          percentage(mix.consecutive, mix.total),
                          percentage(mix.monotonic, mix.total),
                          percentage(mix.random, mix.total))
        lines.append(mixes.render())

        for semantics in (Semantics.SESSION, Semantics.COMMIT):
            cs = self.conflicts(semantics)
            lines.append(f"Conflicts under {semantics.name.lower()} "
                         f"semantics: {len(cs)}"
                         + (f" [{', '.join(k for k, v in cs.flags.items() if v)}]"
                            if cs else ""))
            for path, items in sorted(cs.by_path().items()):
                kinds = sorted({c.label for c in items})
                lines.append(f"  {path}: {len(items)} "
                             f"({', '.join(kinds)})")
        mc = self.metadata_conflicts
        lines.append(f"Metadata produce/consume dependencies: {len(mc)} "
                     f"({len(mc.cross_process)} cross-process)")
        verdict = self.weakest_sufficient_semantics()
        lines.append(f"Weakest sufficient semantics (assuming same-process "
                     f"ordering): {verdict.title}")
        obj = self.object_store_compatible()
        lines.append(f"Object-store compatible (whole-object PUT/GET): "
                     f"{'yes' if obj else 'no'}")
        fs_names = ", ".join(f.name for f in self.compatible_filesystems())
        lines.append(f"Compatible file systems: {fs_names}")
        return "\n".join(lines)


def analyze(trace: Trace) -> RunReport:
    """Run the paper's full analysis pipeline on one trace."""
    trace.validate()
    return RunReport(trace)
