"""The benchmark's three workloads: inputs, one timed pass, output checks.

Each workload builds its inputs from its seed in :meth:`setup`, then
:meth:`run_pass` does one fixed unit of work, timed per cell, and checks
every answer it produced.  One caller runs one cell at a time (a closed
loop with a single client); nothing runs in parallel.

* ``matrix64`` — the ``study all`` campaign: all registry configurations
  at 64 ranks through ``study_cells`` into a fresh result cache, then
  ``matrix_json``.  Simulation dominates (scheduler hand-offs).
* ``synth250k`` — one 250,000-op seeded synthetic trace, analysed the
  way a study cell reads a report.  Per-op cost of the analysis layers
  dominates; there is no simulation.
* ``consumers16`` — every registry trace at 16 ranks, traced once in
  set-up, fed to every downstream consumer (summary, lint, cross-check,
  PFS replay).  Fixed per-call cost on small traces dominates.

The checks do not depend on the seed: registry expectations, agreement
between independent answers, and (at the default seed only) a recorded
digest of the matrix document.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.apps.registry import RunVariant, all_variants
from repro.core.conflicts import count_conflicts_columnar
from repro.core.semantics import Semantics
from repro.lint import crossval
from repro.lint import runner as lint_runner
from repro.pfs import replay
from repro.pfs.config import PFSConfig
from repro.study import runner
from repro.study.cache import ResultCache, code_fingerprint
from repro.tracer.columnar import ColumnarTrace
from repro.tracer.synth import synthetic_columnar_trace

#: the models a study cell summarises (and synth250k checks), in order
MODELS: tuple[Semantics, ...] = runner.SUMMARY_SEMANTICS
#: models consumers16 replays on the PFS simulator
REPLAY_MODELS: tuple[Semantics, ...] = (Semantics.SESSION, Semantics.COMMIT)

#: the small configuration every traced run takes through every layer
CENSUS_LABEL = "FLASH-HDF5 fbs"
CENSUS_RANKS = 8

#: sha256 of ``matrix_json`` for all configurations at 64 ranks, seed 7
MATRIX64_SEED7_DIGEST = (
    "9dd20f1c03684f057ec26893d3ab900b0a0144567051ad005fdd17b47c89f15d")


@dataclass
class Cell:
    """One timed unit of work and the outcome of its output checks.

    ``ops`` answers were produced; ``failures`` maps each operation that
    raised or gave a wrong answer to its first problem.  ``latency`` is
    false for work that is timed but is not one configuration (the
    matrix document).
    """

    label: str
    seconds: float
    records: int
    ops: int
    latency: bool = True
    failures: dict[str, str] = field(default_factory=dict)

    def fail(self, op: str, problem: str) -> None:
        self.failures.setdefault(op, problem)


def check_summary(variant: RunVariant, cell: dict) -> list[str]:
    """Table 3 X-Y and Table 4 flags of one cell against the registry."""
    problems = []
    if cell["xy"] != variant.expected_xy:
        problems.append(f"{variant.label}: X-Y {cell['xy']} != "
                        f"{variant.expected_xy}")
    expected = set(variant.expected_conflicts)
    session = {k for k, v in cell["conflicts"]["session"]["flags"].items()
               if v}
    if session != expected:
        problems.append(f"{variant.label}: session flags {sorted(session)} "
                        f"!= {sorted(expected)}")
    commit = {k for k, v in cell["conflicts"]["commit"]["flags"].items()
              if v}
    if commit != (set() if variant.commit_clean else expected):
        problems.append(f"{variant.label}: commit flags {sorted(commit)} "
                        f"(commit_clean={variant.commit_clean})")
    return problems


class Matrix64:
    """``study all`` at 64 ranks: trace, analyse, cache, serialise."""

    name = "matrix64"
    default_seed = 7

    def __init__(self, seed: int, workdir: Path, *, nranks: int = 64,
                 variants: list[RunVariant] | None = None):
        self.seed = seed
        self.workdir = workdir
        self.nranks = nranks
        self._variants = variants
        self.warm_hit_ratio = 0.0

    def setup(self) -> None:
        code_fingerprint()
        self.variants = (self._variants if self._variants is not None
                         else all_variants())

    def run_pass(self) -> list[Cell]:
        cache = ResultCache(root=Path(tempfile.mkdtemp(dir=self.workdir)))
        try:
            return self._pass(cache)
        finally:
            shutil.rmtree(cache.root, ignore_errors=True)

    def _pass(self, cache: ResultCache) -> list[Cell]:
        cells: list[Cell] = []
        payloads: list[dict] = []
        for variant in self.variants:
            t0 = time.perf_counter()
            payload: dict = {}
            try:
                payload = runner.study_cells(
                    nranks=self.nranks, seed=self.seed, variants=[variant],
                    jobs=1, cache=cache).payloads[0]
                error = None
            except Exception as exc:  # a failed cell is counted, not fatal
                error = f"{variant.label}: {exc!r}"
            cell = Cell(variant.label, time.perf_counter() - t0,
                        payload.get("records", 0), 1)
            for problem in ([error] if error else
                            check_summary(variant, payload)):
                cell.fail(variant.label, problem)
            payloads.append(payload)
            cells.append(cell)
        t0 = time.perf_counter()
        doc = runner.matrix_json(payloads, nranks=self.nranks, seed=self.seed)
        matrix = Cell("matrix_json", time.perf_counter() - t0, 0, 1,
                      latency=False)
        cells.append(matrix)

        # warm pass: every cell from the cache, byte-identical document
        hits0, misses0 = cache.stats.hits, cache.stats.misses
        warm = runner.study_cells(nranks=self.nranks, seed=self.seed,
                                  variants=self.variants, jobs=1,
                                  cache=cache)
        hits = cache.stats.hits - hits0
        probes = hits + cache.stats.misses - misses0
        self.warm_hit_ratio = hits / probes if probes else 0.0
        if hits != len(self.variants):
            matrix.fail("matrix_json", f"warm pass hit {hits} of "
                        f"{len(self.variants)} cells")
        warm_doc = runner.matrix_json(warm.payloads, nranks=self.nranks,
                                      seed=self.seed)
        if warm_doc != doc:
            matrix.fail("matrix_json", "warm matrix differs from the cold one")
        if (self.seed, self.nranks, len(self.variants)) == (
                self.default_seed, 64, len(all_variants())):
            digest = hashlib.sha256(doc.encode()).hexdigest()
            if digest != MATRIX64_SEED7_DIGEST:
                matrix.fail("matrix_json", f"matrix digest {digest} != "
                            f"recorded {MATRIX64_SEED7_DIGEST}")
        return cells


class Synth250k:
    """A study cell's reads of one large seeded synthetic trace."""

    name = "synth250k"
    default_seed = 42

    def __init__(self, seed: int, workdir: Path, *, n_ops: int = 250_000):
        self.seed = seed
        self.workdir = workdir
        self.n_ops = n_ops

    def setup(self) -> None:
        code_fingerprint()
        self.columnar = synthetic_columnar_trace(self.n_ops, seed=self.seed)
        self.trace = self.columnar.to_trace()

    def reference(self) -> None:
        """Conflict counts from the columnar path (not timed)."""
        self.expected = {s: count_conflicts_columnar(self.columnar, s)
                         for s in MODELS}
        del self.columnar

    def run_pass(self) -> list[Cell]:
        t0 = time.perf_counter()
        error = None
        try:
            report = repro.analyze(self.trace)
            report.accesses
            report.tables
            found = {s: report.conflicts(s) for s in MODELS}
            report.sharing
            report.metadata_conflicts
            report.weakest_sufficient_semantics()
            report.object_store_compatible()
            report.compatible_filesystems()
        except Exception as exc:
            error = f"analysis raised {exc!r}"
        cell = Cell(self.name, time.perf_counter() - t0,
                    len(self.trace.records), len(MODELS))
        for s in MODELS:
            if error is not None:
                cell.fail(s.name.lower(), error)
                continue
            got = dict.fromkeys(self.expected[s], 0)
            got.update(Counter(c.label for c in found[s]))
            if got != self.expected[s]:
                cell.fail(s.name.lower(), f"object path {got} != columnar "
                          f"{self.expected[s]}")
        return [cell]


class Consumers16:
    """Every downstream consumer on every registry trace at 16 ranks."""

    name = "consumers16"
    default_seed = 7

    def __init__(self, seed: int, workdir: Path, *, nranks: int = 16,
                 variants: list[RunVariant] | None = None):
        self.seed = seed
        self.workdir = workdir
        self.nranks = nranks
        self._variants = variants

    def setup(self) -> None:
        code_fingerprint()
        variants = (self._variants if self._variants is not None
                    else all_variants())
        self.traces = [(v, v.run(nranks=self.nranks, seed=self.seed))
                       for v in variants]

    def run_pass(self) -> list[Cell]:
        return [self._cell(v, trace) for v, trace in self.traces]

    def _cell(self, variant: RunVariant, trace) -> Cell:
        outputs: dict[str, object] = {}
        t0 = time.perf_counter()
        calls = {
            "summary": lambda: runner.cell_summary(
                variant, trace, nranks=self.nranks, seed=self.seed),
            "lint": lambda: lint_runner.lint_trace(trace, label=variant.label),
            "crossval": lambda: crossval.crossvalidate_trace(
                trace, outputs["lint"], label=variant.label),
            **{f"replay.{s.name.lower()}":
               (lambda s=s: replay.replay_trace(trace, PFSConfig(semantics=s)))
               for s in REPLAY_MODELS},
        }
        failures: dict[str, str] = {}
        for name, call in calls.items():
            try:
                outputs[name] = call()
            except Exception as exc:
                failures[name] = f"{variant.label}: {name} raised {exc!r}"
        cell = Cell(variant.label, time.perf_counter() - t0,
                    len(trace.records), len(calls), failures=failures)

        summary = outputs.get("summary")
        if summary is not None:
            for problem in check_summary(variant, summary):
                cell.fail("summary", problem)
        xv = outputs.get("crossval")
        if xv is not None and not xv.ok:
            cell.fail("crossval", f"{variant.label}: lint missed "
                      f"{len(xv.false_negatives)} conflict pair(s)")
        for s in REPLAY_MODELS:
            name = f"replay.{s.name.lower()}"
            if name not in outputs:
                continue
            if summary is None:
                cell.fail(name, f"{variant.label}: no summary to check "
                          f"the replay against")
                continue
            predicted = set(summary["conflicts"][s.name.lower()]["files"])
            stray = sorted(set(outputs[name].corrupted_files) - predicted)
            if stray:
                cell.fail(name, f"{variant.label}: {s.name.lower()} replay "
                          f"corrupted unpredicted files {stray}")
        return cell


WORKLOADS = {w.name: w for w in (Matrix64, Synth250k, Consumers16)}


def layer_census(seed: int, workdir: Path) -> tuple[list[Cell], float]:
    """One small fixed configuration through every layer.

    Traced runs end with it, so every layer reports measured work on
    every workload, also the layers the workload itself never calls.
    Returns its checked cells and the hit ratio of its warm cache pass.
    """
    variants = [v for v in all_variants() if v.label == CENSUS_LABEL]
    matrix = Matrix64(seed, workdir, nranks=CENSUS_RANKS, variants=variants)
    matrix.setup()
    cells = matrix.run_pass()
    consumers = Consumers16(seed, workdir, nranks=CENSUS_RANKS,
                            variants=variants)
    consumers.setup()
    cells += consumers.run_pass()
    ColumnarTrace.from_trace(consumers.traces[0][1]).to_trace()
    return cells, matrix.warm_hit_ratio
