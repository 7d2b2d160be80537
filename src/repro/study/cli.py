"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro.study [--nranks 8] [--seed 7] [--out results/]
                          [--jobs N] [--app NAME[/LIB]]
    python -m repro.study all [--jobs N] [--format text|json]
                              [--no-cache] [--stats]
    python -m repro.study lint <app|--all> [--format text|json]
    python -m repro.study chaos [--app NAME[/LIB]]... [--all] [--jobs N]
    python -m repro.study crossvalidate <app|--all> [--jobs N]
    python -m repro.study staticcheck <app|--all> [--jobs N]
    python -m repro.study partition <app|--all> [--partitions N]
                                    [--verify] [--jobs N]
    python -m repro.study roundtrip <app|--all|--check FILE>
    python -m repro.study metrics <file|--collect>
    python -m repro.study fingerprint
    python -m repro.study serve [--port 0] [--queue-limit N]
                                [--workers N] [--ready-file FILE]
    python -m repro.study request <endpoint> --port P [--param k=v]...
    python -m repro.study cache <stats|prune> [--max-age-days D]
                                [--max-bytes N]

The default mode prints Tables 1–5 and Figures 1–3 (text form) and,
with ``--out``, writes per-run reports and Figure 2 CSV dot clouds.
``all`` evaluates the app×config matrix as JSON-able summary cells —
fanned out over ``--jobs`` worker processes and served incrementally
from the content-addressed result cache (``.repro-cache/``), with
byte-identical output for every jobs/cache combination.  The ``lint``
subcommand runs the static consistency-semantics linter
(:mod:`repro.lint`); ``chaos`` replays traces under a deterministic
fault matrix (:mod:`repro.pfs.chaos`); ``crossvalidate`` checks the
linter against the replay-based oracle; ``staticcheck`` evaluates the
symbolic I/O plans (:mod:`repro.staticcheck`) and cross-validates the
static conflict predictions against the dynamic detector;
``fingerprint`` prints the
code fingerprint cache keys embed (CI keys its cache restore on it).
``serve`` runs the asyncio analysis service (:mod:`repro.serve`),
``request`` issues one query against it, and ``cache`` inspects and
prunes the content-addressed result store — see ``docs/serving.md``.

Every matrix subcommand accepts ``--metrics FILE``: the run executes
under a :mod:`repro.obs` registry (bypassing the result cache so the
simulator actually runs) and writes the collected counters, timers,
and self-trace spans as JSON lines to ``FILE`` — stdout is unchanged.
``metrics`` renders the text dashboard for such a file (or collects
one live with ``--collect``).

Each subcommand is one :class:`Command` row in :data:`COMMANDS`: its
options (shared groups plus its own) and a body returning the text to
print and the exit code.  :func:`main` is the one runner: it parses,
resolves configurations, opens the metrics scope and the result cache,
prints, writes ``--out`` and the stderr stats line, and maps usage
errors to exit 2.

Exit codes are uniform across every subcommand:

* **0** — ran to completion, nothing to report;
* **1** — a real finding or failure (ERROR diagnostics, an unsound
  chaos cell, a cross-validation false negative);
* **2** — usage error (unknown application/library/plan/rule, bad
  flag combination).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

from repro.core.semantics import Semantics

#: ran to completion, nothing to report
EXIT_OK = 0
#: a real finding or failure (lint ERROR, unsound chaos cell, ...)
EXIT_FINDINGS = 1
#: bad invocation (unknown app/plan/rule, invalid flag combination)
EXIT_USAGE = 2


class _UsageError(Exception):
    """Invalid invocation; the message goes to stderr, exit is 2."""


class Outcome(NamedTuple):
    """What a command body hands back to the runner."""

    #: printed on stdout (``None``: the body printed everything itself)
    text: str | None
    code: int = EXIT_OK
    #: what ``--out`` saves, when it is not ``text``
    saved: str | None = None


# -- option groups -------------------------------------------------------------


def _opt(*flags: str, **kwargs) -> tuple:
    """One ``add_argument`` call, as data."""
    return flags, kwargs


def _run_opts(nranks: int = 8) -> tuple:
    return (_opt("--nranks", type=int, default=nranks,
                 help="MPI ranks per run (default %(default)s)"),
            _opt("--seed", type=int, default=7))


_ALL = _opt("--all", action="store_true",
            help="use every registered configuration")
#: a ``NAME[/LIB]`` argument or ``--all``
_TARGET = (_opt("app", nargs="?", metavar="NAME[/LIB]",
                help="configuration (e.g. FLASH or LAMMPS/ADIOS); omit "
                     "with --all"),
           _ALL)
_JOBS = (_opt("--jobs", type=int, default=1, metavar="N",
              help="worker processes for the matrix (default 1 = "
                   "serial; 0 = one per CPU)"),)
_CACHE = (_opt("--no-cache", action="store_true",
               help="ignore and do not update .repro-cache/"),
          _opt("--cache-dir", type=Path, default=None, metavar="DIR",
               help="result cache root (default .repro-cache/ or "
                    "$REPRO_CACHE_DIR)"))
#: flags shared by every matrix-shaped subcommand
_MATRIX = _JOBS + _CACHE + (
    _opt("--metrics", type=Path, default=None, metavar="FILE",
         help="collect simulator metrics and write them as JSON lines "
              "to FILE (implies --no-cache; the report itself is "
              "unchanged)"),)
_FORMAT = (_opt("--format", choices=("text", "json"), default="text"),)
_STATS = (_opt("--stats", action="store_true",
               help="print per-cell timing/cache provenance to stderr"),)
_OUT = (_opt("--out", type=Path, default=None,
             help="also write the report to this file"),)
_HOST = (_opt("--host", default="127.0.0.1"),)
_PORT = (_opt("--port", type=int, default=None),)


@dataclass(frozen=True)
class Command:
    """One subcommand: how it is invoked and what it does."""

    name: str
    description: str
    body: Callable[["_Invocation"], Outcome]
    options: tuple = ()
    #: ``(flag, help, render)``: print ``render(args)`` and exit 0
    #: before anything else runs
    listing: tuple[str, str, Callable] | None = None

    def parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(
            prog=f"python -m repro.study {self.name}".rstrip(),
            description=self.description)
        for flags, kwargs in self.options:
            parser.add_argument(*flags, **kwargs)
        if self.listing is not None:
            parser.add_argument(self.listing[0], dest="listing",
                                action="store_true", help=self.listing[1])
        return parser


# -- the runner ----------------------------------------------------------------


class _Invocation:
    """One parsed command line plus the state its body shares with the
    runner: resolved configurations, the result cache, the job count,
    and the matrix run behind the stderr stats line."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.run = None

    @cached_property
    def variants(self) -> list:
        """Configurations from ``NAME``, ``--app`` or ``--all``.

        Unknown names and empty filters fail identically (message to
        stderr, exit code 2) in every subcommand.  Without an ``--all``
        flag (the default mode), no ``--app`` means every configuration.
        """
        from repro.apps.registry import APPLICATIONS, all_variants, find_spec

        app = self.args.app
        entries = app if isinstance(app, list) else [app] if app else None
        if getattr(self.args, "all", app is None) == bool(entries):
            raise _UsageError("specify exactly one of --app NAME[/LIB] "
                              "(or a NAME argument) or --all")
        if not entries:
            return all_variants()
        variants = []
        for entry in entries:
            name, _, lib = entry.partition("/")
            try:
                spec = find_spec(name)
            except KeyError:
                known = ", ".join(sorted(s.name for s in APPLICATIONS))
                raise _UsageError(
                    f"unknown application {name!r}; known: {known}")
            matched = [v for v in spec.variants
                       if not lib or v.io_library.lower() == lib.lower()]
            if not matched:
                raise _UsageError(
                    f"no variant of {spec.name} uses {lib!r}")
            variants.extend(matched)
        return variants

    @cached_property
    def cache(self):
        from repro.study.cache import ResultCache

        if getattr(self.args, "metrics", None) is not None:
            # a cached cell never runs the simulator, so a metrics run
            # bypasses the cache entirely — the instruments must fire
            return ResultCache.disabled()
        return ResultCache.from_options(
            cache_dir=self.args.cache_dir,
            no_cache=getattr(self.args, "no_cache", False))

    @property
    def jobs(self) -> int:
        from repro.study.parallel import resolve_jobs

        jobs = self.args.jobs
        return resolve_jobs(None) if jobs == 0 else max(1, jobs)

    def matrix(self, kind: str, specs: list, worker):
        """:func:`repro.study.parallel.run_matrix` over this
        invocation's jobs and cache; reported on the stats line."""
        from repro.study.parallel import run_matrix

        self.run = run_matrix(kind, specs, worker, jobs=self.jobs,
                              cache=self.cache)
        return self.run


def _metrics_scope(args: argparse.Namespace):
    """Registry lifetime for one ``--metrics FILE`` invocation.

    Without the flag this is a no-op pass-through.  With it, a tracing
    registry is active for the body and the JSON-lines export is
    written on normal exit (a usage error leaves no partial file);
    the report on stdout is the same bytes either way.
    """
    from contextlib import contextmanager, nullcontext

    from repro.obs import registry as obs

    target = getattr(args, "metrics", None)
    if target is None:
        return nullcontext()

    @contextmanager
    def scope():
        from repro.obs.export import to_jsonl

        with obs.collecting(trace=True) as reg:
            yield reg
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(to_jsonl(reg))
            print(f"[metrics: {len(reg)} instruments -> {target}]",
                  file=sys.stderr)

    return scope()


def _execute(command: Command, argv: list[str]) -> int:
    args = command.parser().parse_args(argv)
    if getattr(args, "listing", False):
        print(command.listing[2](args))
        return EXIT_OK
    inv = _Invocation(args)
    with _metrics_scope(args):
        outcome = command.body(inv)
        if outcome.text is not None:
            print(outcome.text)
            if getattr(args, "out", None) is not None:
                args.out.parent.mkdir(parents=True, exist_ok=True)
                args.out.write_text((outcome.saved or outcome.text)
                                    + "\n")
        if inv.run is not None:
            # stats go to stderr, never into the payload: keeping
            # stdout pure is what lets the determinism tests (and CI
            # artifact diffs) demand byte-identical reports regardless
            # of jobs count or cache temperature
            print(f"[{inv.run.summary()}; cache: "
                  f"{inv.cache.stats.summary()}]", file=sys.stderr)
            if getattr(args, "stats", False):
                print(inv.run.timing_table(), file=sys.stderr)
    return outcome.code


def main(argv: list[str] | None = None) -> int:
    """Run one ``python -m repro.study`` invocation; return its exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    command = COMMANDS.get(argv[0]) if argv else None
    try:
        if command is None:
            return _execute(DEFAULT, argv)
        return _execute(command, argv[1:])
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


def _check_partitions(partitions: int, nranks: int) -> int:
    """Validate a ``--partitions`` value under the usage contract."""
    if partitions < 1:
        raise _UsageError(f"--partitions must be >= 1, got {partitions}")
    if partitions > nranks:
        raise _UsageError(
            f"cannot split {nranks} rank(s) into {partitions} "
            f"partitions (at least one would be empty)")
    return partitions


def _require_port(args: argparse.Namespace) -> None:
    if args.port is None:
        raise _UsageError("--port is required (see the server's "
                          "ready line)")


# -- the paper's tables and figures --------------------------------------------


def _tables(inv: _Invocation) -> Outcome:
    from repro.study.compat import compat_text
    from repro.study.figures import (
        figure1_text,
        figure2_ascii,
        figure2_csv,
        figure2_text,
        figure3_text,
    )
    from repro.study.runner import run_study
    from repro.study.tables import (
        table1_text,
        table2_text,
        table3_text,
        table4_text,
        table5_text,
    )

    args = inv.args
    if args.app is not None:
        return _single_app(inv)
    variants = inv.variants
    # the preamble prints before the long run as progress
    print(f"{table1_text()}\n\n{table2_text()}\n\n{table5_text()}\n")
    print(f"Running the {len(variants)} configurations at {args.nranks} "
          f"ranks ...", flush=True)
    results = run_study(nranks=args.nranks, seed=args.seed,
                        variants=variants, jobs=inv.jobs)

    fbs = results.find("FLASH-HDF5 fbs")
    nofbs = results.find("FLASH-HDF5 nofbs")
    clean = sum(
        1 for run in results
        if not run.report.conflicts(Semantics.SESSION).cross_process_only)
    parts = ["", table3_text(results), "", table4_text(results), "",
             figure1_text(results), "", figure2_text(fbs, nofbs), "",
             figure2_ascii(fbs, nofbs), "", figure3_text(results), "",
             compat_text(results), "",
             f"{clean} of {len(results)} configurations are free of "
             f"cross-process conflicts under session semantics."]
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for run in results:
            _save_run(args.out_dir, run.label, run.report, run.trace)
        paths = figure2_csv(fbs, nofbs, args.out_dir)
        parts.append(f"wrote {len(results)} reports+traces and "
                     f"{len(paths)} figure-2 CSVs to {args.out_dir}/")
    return Outcome("\n".join(parts))


def _save_run(out_dir: Path, label: str, report, trace) -> str:
    name = label.replace("/", "_").replace(" ", "_")
    (out_dir / f"{name}.report.txt").write_text(report.to_text() + "\n")
    trace.to_jsonl(out_dir / f"{name}.trace.jsonl")
    return name


def _single_app(inv: _Invocation) -> Outcome:
    from repro.core.report import analyze
    from repro.core.timeline import conflict_timelines
    from repro.tracer.recorder_format import to_recorder_text

    args = inv.args
    parts = []
    for variant in inv.variants:
        trace = variant.run(nranks=args.nranks, seed=args.seed)
        report = analyze(trace)
        parts += [report.to_text(), "", report.profile.to_text(), ""]
        session = report.conflicts(Semantics.SESSION)
        if session:
            parts.append(conflict_timelines(trace, session, max_files=2))
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            name = _save_run(args.out_dir, variant.label, report, trace)
            to_recorder_text(trace, args.out_dir / f"{name}.trace.txt")
    return Outcome("\n".join(parts))


# -- matrix subcommands --------------------------------------------------------


def _matrix_text(cells: list[dict]) -> str:
    hdr = (f"{'configuration':<26} {'X-Y':<4} {'pattern':<15} "
           f"{'session':>8} {'commit':>7} {'weakest':<9} files")
    lines = [hdr, "-" * len(hdr)]
    for cell in cells:
        conflicts = cell["conflicts"]
        lines.append(
            f"{cell['label']:<26} {cell.get('xy', '-'):<4} "
            f"{cell.get('pattern', '-'):<15} "
            f"{conflicts['session']['count']:>8} "
            f"{conflicts['commit']['count']:>7} "
            f"{cell['weakest_semantics']:<9} "
            f"{cell.get('data_files', '-')}")
    clean = sum(1 for c in cells
                if not c["conflicts"]["session"]["cross_process"])
    lines.append("")
    lines.append(f"{clean} of {len(cells)} cells are free of "
                 f"cross-process conflicts under session semantics.")
    return "\n".join(lines)


def _summary_text(args: argparse.Namespace, cells: list[dict]) -> Outcome:
    """``study all``-shaped summary cells as text or JSON."""
    from repro.study.runner import matrix_json

    if args.format == "json":
        return Outcome(matrix_json(cells, nranks=args.nranks,
                                   seed=args.seed))
    return Outcome(_matrix_text(cells))


def _all(inv: _Invocation) -> Outcome:
    """The matrix as summary cells, parallel and cached.

    One JSON-able summary per configuration, fanned out over ``--jobs``
    workers and served from the result cache when the cell parameters
    and the code fingerprint are unchanged.  Output on stdout is
    byte-identical for every jobs/cache combination; stats go to
    stderr.
    """
    from repro.study.parallel import run_matrix, workflow_cell, workflow_task
    from repro.study.runner import study_cells

    args = inv.args
    partitions = _check_partitions(args.partitions, args.nranks)
    inv.run = study_cells(nranks=args.nranks, seed=args.seed,
                          jobs=inv.jobs, cache=inv.cache,
                          partitions=partitions)
    cells = list(inv.run.payloads)
    if args.workflows:
        wf = run_matrix("workflow-cell", [workflow_cell(4, 2, args.seed)],
                        workflow_task, jobs=1, cache=inv.cache)
        cells.extend(wf.payloads)
        inv.run.outcomes.extend(wf.outcomes)
    return _summary_text(args, cells)


def _cells_document(inv: _Invocation, cells: list[dict], ok: bool,
                    render: Callable[[list[dict]], str],
                    **extra) -> Outcome:
    """A verdict matrix as its JSON document or text table; exit 1
    unless every cell is ``ok``."""
    args = inv.args
    if args.format == "json":
        text = json.dumps({"nranks": args.nranks, "seed": args.seed,
                           **extra, "cells": cells, "ok": ok},
                          sort_keys=True, indent=2)
    else:
        text = render(cells)
    return Outcome(text, EXIT_OK if ok else EXIT_FINDINGS)


def _lint(inv: _Invocation) -> Outcome:
    """The static semantics linter: exit 1 on any ERROR diagnostic."""
    from repro.errors import LintError
    from repro.lint import lint_variant
    from repro.lint.reporters import (
        render_json,
        render_study_json,
        render_study_text,
        render_text,
    )

    args = inv.args
    variants = inv.variants
    rules = ([r.strip() for r in args.rules.split(",") if r.strip()]
             if args.rules else None)
    try:
        reports = [lint_variant(v, nranks=args.nranks, seed=args.seed,
                                rules=rules)
                   for v in variants]
    except LintError as exc:
        raise _UsageError(str(exc))

    if args.format == "json":
        text = (render_study_json(reports, nranks=args.nranks,
                                  seed=args.seed)
                if args.all or len(reports) > 1
                else render_json(reports[0]))
    else:
        text = (render_study_text(reports) if args.all
                else "\n\n".join(render_text(r) for r in reports))
    return Outcome(text, EXIT_FINDINGS if any(r.errors for r in reports)
                   else EXIT_OK)


def _rule_catalogue(args: argparse.Namespace) -> str:
    from repro.lint import all_rules

    return "\n".join(f"{rule.id}  {rule.name:26s} {rule.summary}"
                     for rule in all_rules())


def _chaos(inv: _Invocation) -> Outcome:
    """Fault-matrix replay: exit 1 on a contract violation or an
    unattributed corruption."""
    from repro.pfs.chaos import ChaosCell, ChaosReport
    from repro.study.parallel import (
        chaos_plans,
        chaos_variant,
        chaos_variant_task,
    )

    args = inv.args
    variants = inv.variants
    wanted = None if args.plans is None else \
        {p.strip() for p in args.plans.split(",") if p.strip()}
    try:
        plans = chaos_plans(args.seed, wanted)
    except ValueError as exc:
        raise _UsageError(str(exc))
    run = inv.matrix(
        "chaos-variant",
        [chaos_variant(v, args.nranks, args.seed, plans) for v in variants],
        chaos_variant_task)

    report = ChaosReport(nranks=args.nranks, seed=args.seed,
                         plans=list(plans))
    for payload in run.payloads:
        report.cells.extend(ChaosCell.from_dict(d) for d in payload["cells"])
    text = report.to_json() if args.format == "json" else report.to_text()
    return Outcome(text, EXIT_OK if report.ok else EXIT_FINDINGS)


def _plan_catalogue(args: argparse.Namespace) -> str:
    from repro.pfs.chaos import default_fault_plans

    return "\n".join(f"{plan.name:<16} crashes={len(plan.crashes)} "
                     f"cache_drops={len(plan.cache_drops)} "
                     f"error_rate={plan.error_rate:g}"
                     for plan in default_fault_plans(args.seed))


def _crossvalidate(inv: _Invocation) -> Outcome:
    """Lint vs the replay oracle: exit 1 when the linter missed a pair
    the replay pipeline reports (its zero-false-negative contract)."""
    from repro.study.parallel import crossval_cell, crossval_task

    args = inv.args
    run = inv.matrix("crossval-cell",
                     [crossval_cell(v, args.nranks, args.seed)
                      for v in inv.variants],
                     crossval_task)
    cells = run.payloads
    return _cells_document(inv, cells, all(c["ok"] for c in cells),
                           _crossval_text)


def _crossval_text(cells: list[dict]) -> str:
    lines = [f"{'configuration':<26} {'pairs':>6} {'missed':>7} "
             f"{'extras':>7}  status"]
    lines.append("-" * len(lines[0]))
    for cell in cells:
        pairs = (cell["hazards"]["checked_pairs"]
                 + cell["durability"]["checked_pairs"])
        missed = (len(cell["hazards"]["false_negatives"])
                  + len(cell["durability"]["false_negatives"]))
        extras = (len(cell["hazards"]["extras"])
                  + len(cell["durability"]["extras"]))
        status = "ok" if cell["ok"] else "FALSE NEGATIVES"
        lines.append(f"{cell['label']:<26} {pairs:>6} {missed:>7} "
                     f"{extras:>7}  {status}")
    bad = [c for c in cells if not c["ok"]]
    lines.append("")
    lines.append(f"{len(cells)} configurations, "
                 f"{len(bad)} with false negatives")
    for cell in bad:
        for msg in (cell["hazards"]["false_negatives"]
                    + cell["durability"]["false_negatives"]):
            lines.append(f"  {msg}")
    return "\n".join(lines)


def _staticcheck(inv: _Invocation) -> Outcome:
    """Static conflict prediction vs the dynamic detector.

    Evaluates each configuration's symbolic I/O plan under the
    interval/stride abstract domain; exit 1 when a dynamic conflict
    was missed.
    """
    from repro.study.parallel import staticcheck_cell, staticcheck_task

    args = inv.args
    run = inv.matrix("staticcheck-cell",
                     [staticcheck_cell(v, args.nranks, args.seed)
                      for v in inv.variants],
                     staticcheck_task)
    cells = run.payloads
    return _cells_document(inv, cells, all(c["ok"] for c in cells),
                           _staticcheck_text)


def _staticcheck_text(cells: list[dict]) -> str:
    lines = [f"{'configuration':<26} {'plan':<6} {'groups':>6} "
             f"{'pairs':>6} {'precision':>9}  status"]
    lines.append("-" * len(lines[0]))
    for cell in cells:
        plan_kind = "exact" if cell["exact"] else "coarse"
        status = "sound" if cell["sound"] else "MISSED CONFLICTS"
        lines.append(
            f"{cell['label']:<26} {plan_kind:<6} "
            f"{cell['groups']:>6} {cell['pairs_checked']:>6} "
            f"{cell['precision']:>9.4f}  {status}")
    bad = [c for c in cells if not c["sound"]]
    lines.append("")
    lines.append(f"{len(cells)} configurations, "
                 f"{len(bad)} with missed dynamic conflicts")
    for cell in bad:
        for name, sem in sorted(cell["semantics"].items()):
            for msg in sem["missed"]:
                lines.append(f"  {cell['label']} [{name}] {msg}")
    return "\n".join(lines)


def _partition(inv: _Invocation) -> Outcome:
    """The partitioned multi-process engine (:mod:`repro.partition`).

    Summarizes the cells exactly like ``study all``.  With ``--verify``
    each configuration is additionally traced single-process and the
    two canonical ``.rtrc`` serializations are compared byte for byte;
    exit 1 on any divergence.
    """
    from repro.study.parallel import partition_verify, partition_verify_task
    from repro.study.runner import study_cells

    args = inv.args
    partitions = _check_partitions(args.partitions, args.nranks)
    variants = inv.variants
    if not args.verify:
        inv.run = study_cells(nranks=args.nranks, seed=args.seed,
                              variants=variants, jobs=inv.jobs,
                              cache=inv.cache, partitions=partitions)
        return _summary_text(args, inv.run.payloads)
    run = inv.matrix("partition-verify",
                     [partition_verify(v, args.nranks, args.seed,
                                       partitions)
                      for v in variants],
                     partition_verify_task)
    cells = run.payloads
    return _cells_document(inv, cells, all(c["identical"] for c in cells),
                           _partition_verify_text,
                           partitions=args.partitions)


def _partition_verify_text(cells: list[dict]) -> str:
    hdr = (f"{'configuration':<26} {'parts':>5} {'rtrc bytes':>10}  "
           f"status")
    lines = [hdr, "-" * len(hdr)]
    for cell in cells:
        status = "identical" if cell["identical"] else "DIVERGED"
        lines.append(f"{cell['label']:<26} {cell['partitions']:>5} "
                     f"{cell['rtrc_bytes']:>10}  {status}")
    bad = sum(1 for c in cells if not c["identical"])
    lines.append("")
    lines.append(f"{len(cells)} configuration(s), {bad} diverged "
                 f"between single-process and partitioned runs")
    return "\n".join(lines)


# -- trace format and observability --------------------------------------------


def _roundtrip(inv: _Invocation) -> Outcome:
    """The ``.rtrc`` parity gate.

    For each selected configuration: trace it, summarize the cell from
    the in-memory records, then convert the trace to a columnar
    ``.rtrc`` file, load it back (zero-copy), rebuild the records, and
    summarize again.  The two reports must be *byte-identical* in the
    canonical ``study all`` serialization, and the columnar conflict
    pipeline must count exactly what the object pipeline counts under
    every semantics model.

    With ``--check FILE`` (repeatable) no configurations are traced:
    each named ``.rtrc`` file is loaded, structurally validated, and
    rebuilt into records instead.  A missing file is a usage error
    (exit 2); a damaged one — truncated, bad CRC, malformed header —
    is a finding (exit 1), never a traceback.
    """
    import tempfile

    from repro.core.conflicts import count_conflicts_columnar
    from repro.core.report import RunReport
    from repro.study.runner import cell_summary, matrix_json
    from repro.tracer.columnar import ColumnarTrace, read_rtrc

    args = inv.args
    if args.check is not None:
        if args.app or args.all:
            raise _UsageError("--check cannot be combined with a "
                              "configuration selection")
        return _roundtrip_check(args.check)
    variants = inv.variants

    lines = []
    failures = 0
    with tempfile.TemporaryDirectory(prefix="rtrc-") as tmp:
        out_dir = args.keep_dir if args.keep_dir is not None else Path(tmp)
        out_dir.mkdir(parents=True, exist_ok=True)
        for variant in variants:
            trace = variant.run(nranks=args.nranks, seed=args.seed)
            before = cell_summary(variant, trace, nranks=args.nranks,
                                  seed=args.seed)
            path = out_dir / (variant.label.replace("/", "_") + ".rtrc")
            ColumnarTrace.from_trace(trace).save(path)
            loaded = read_rtrc(path)
            after = cell_summary(variant, loaded.to_trace(),
                                 nranks=args.nranks, seed=args.seed)
            report_ok = (
                matrix_json([before], nranks=args.nranks, seed=args.seed)
                == matrix_json([after], nranks=args.nranks,
                               seed=args.seed))
            report = RunReport(trace)
            counts_ok = all(
                count_conflicts_columnar(loaded, semantics)
                == report.conflicts(semantics,
                                    max_per_file=None).label_counts()
                for semantics in Semantics)
            ok = report_ok and counts_ok
            failures += not ok
            detail = ("identical" if ok
                      else "report diverged" if not report_ok
                      else "conflict counts diverged")
            lines.append(f"{variant.label:<26} {path.stat().st_size:>9d} "
                         f"bytes {'ok    ' if ok else 'FAIL  '}{detail}")
    if failures:
        print(f"roundtrip: {failures} of {len(variants)} "
              f"configuration(s) diverged", file=sys.stderr)
        return Outcome("\n".join(lines), EXIT_FINDINGS)
    lines.append(f"roundtrip: {len(variants)} configuration(s) "
                 f"byte-identical through .rtrc")
    return Outcome("\n".join(lines))


def _roundtrip_check(files: list[Path]) -> Outcome:
    """Validate on-disk ``.rtrc`` files under the 0/1/2 contract."""
    from repro.errors import AnalysisError
    from repro.tracer.columnar import read_rtrc

    for path in files:
        if not path.is_file():
            raise _UsageError(f"cannot read {path}: no such file")
    lines = []
    failures = 0
    for path in files:
        try:
            ct = read_rtrc(path)
            ct.validate()
            nrecords = len(ct.to_trace().records)
        except AnalysisError as exc:
            failures += 1
            lines.append(f"{path}  FAIL  {exc}")
            continue
        lines.append(f"{path}  ok    {nrecords} record(s), "
                     f"{path.stat().st_size} bytes")
    if failures:
        print(f"roundtrip: {failures} of {len(files)} file(s) damaged",
              file=sys.stderr)
    return Outcome("\n".join(lines),
                   EXIT_FINDINGS if failures else EXIT_OK)


def _metrics(inv: _Invocation) -> Outcome:
    """The observability dashboard.

    Renders the counter/timer/self-trace dashboard for a JSON-lines
    file previously written by ``--metrics``, or (with ``--collect``)
    runs the study matrix live under a fresh registry and reports what
    the simulator did.  Exit 2 when there is no input or the file is
    unreadable or malformed.
    """
    from repro.obs import registry as obs
    from repro.obs.export import parse_jsonl, render_dashboard, to_jsonl

    args = inv.args
    if args.collect == (args.file is not None):
        raise _UsageError("specify exactly one of FILE or --collect")

    if args.collect:
        from repro.study.cache import ResultCache
        from repro.study.runner import study_cells

        with obs.collecting(trace=True) as reg:
            study_cells(nranks=args.nranks, seed=args.seed, jobs=inv.jobs,
                        cache=ResultCache.disabled())
    else:
        try:
            raw = args.file.read_text()
        except OSError as exc:
            raise _UsageError(f"cannot read {args.file}: "
                              f"{exc.strerror or exc}")
        try:
            reg, _ = parse_jsonl(raw)
        except (ValueError, KeyError, TypeError) as exc:
            raise _UsageError(
                f"{args.file} is not a --metrics JSON-lines file: {exc}")

    text = to_jsonl(reg) if args.format == "json" \
        else render_dashboard(reg)
    # the runner adds the final newline back
    return Outcome(text[:-1] if text.endswith("\n") else text)


def _fingerprint(inv: _Invocation) -> Outcome:
    """The code digest cache keys embed.

    CI uses this as the ``actions/cache`` key for ``.repro-cache/``:
    any change to the :mod:`repro` source invalidates every cached
    cell at once, so a restored cache can never serve stale results.
    """
    from repro.study.cache import code_fingerprint

    return Outcome(code_fingerprint())


# -- the analysis service ------------------------------------------------------


def _serve(inv: _Invocation) -> Outcome:
    """The analysis service.

    Binds, prints one JSON ready line (``{"event": "ready", "host":
    ..., "port": ...}``) on stdout, and serves until SIGINT/SIGTERM,
    then drains admitted requests before exiting 0.  ``--ready-file``
    additionally writes the ready document to a file for scripts that
    cannot capture stdout (the CI smoke job).
    """
    import asyncio
    import os
    import signal

    from repro.serve.server import AnalysisServer, ServeConfig

    args = inv.args
    if args.queue_limit < 1 or args.workers < 1:
        raise _UsageError("--queue-limit and --workers must be >= 1")
    if not (math.isfinite(args.default_deadline)
            and math.isfinite(args.drain)) \
            or args.default_deadline <= 0 or args.drain < 0:
        raise _UsageError("--default-deadline must be finite and > 0 "
                          "and --drain finite and >= 0")

    async def run() -> None:
        server = AnalysisServer(
            ServeConfig(host=args.host, port=args.port,
                        queue_limit=args.queue_limit,
                        workers=args.workers,
                        default_deadline_s=args.default_deadline,
                        drain_s=args.drain),
            cache=inv.cache)
        await server.start()
        ready = json.dumps({"event": "ready", "host": args.host,
                            "port": server.port, "pid": os.getpid()},
                           sort_keys=True)
        print(ready, flush=True)
        if args.ready_file is not None:
            args.ready_file.parent.mkdir(parents=True, exist_ok=True)
            args.ready_file.write_text(ready + "\n")

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-unix event loops: Ctrl-C still unwinds us
        forever = asyncio.ensure_future(server.serve_forever())
        try:
            await stop.wait()
        finally:
            print("[serve: draining]", file=sys.stderr)
            await server.stop()
            forever.cancel()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        raise _UsageError(f"cannot bind {args.host}:{args.port}: "
                          f"{exc.strerror or exc}")
    return Outcome(None)


def _request_params(args: argparse.Namespace) -> dict:
    params: dict = {}
    if args.json:
        try:
            doc = json.loads(args.json)
        except ValueError as exc:
            raise _UsageError(f"--json is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise _UsageError("--json must be a JSON object")
        params.update(doc)
    for entry in args.param or []:
        key, sep, value = entry.partition("=")
        if not sep or not key:
            raise _UsageError(
                f"--param takes KEY=VALUE, got {entry!r}")
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value  # bare strings need no quoting
    return params


def _request(inv: _Invocation) -> Outcome:
    """One query to the service, printed as its full response document.

    Exit 1 when the server answered ``overloaded``/``deadline``/
    ``internal`` or is unreachable, 2 when the request itself is bad
    (``bad_request``, malformed parameters, missing --port).
    """
    from repro.serve.client import ServeConnectionError, request_sync
    from repro.serve.protocol import ERR_BAD_REQUEST, response_error_code

    args = inv.args
    if not args.endpoint:
        raise _UsageError("an endpoint name is required")
    _require_port(args)
    if args.deadline is not None \
            and not (math.isfinite(args.deadline) and args.deadline > 0):
        raise _UsageError("--deadline must be finite and > 0")
    params = _request_params(args)
    try:
        response = request_sync(args.host, args.port, args.endpoint,
                                params, deadline_s=args.deadline,
                                seed=args.seed)
    except ServeConnectionError as exc:
        print(str(exc), file=sys.stderr)
        return Outcome(None, EXIT_FINDINGS)
    text = json.dumps(response, indent=2, sort_keys=True)
    code = response_error_code(response)
    if code is None:
        return Outcome(text)
    print(f"{code}: {response['error']['message']}", file=sys.stderr)
    return Outcome(text, EXIT_USAGE if code == ERR_BAD_REQUEST
                   else EXIT_FINDINGS)


def _cache(inv: _Invocation) -> Outcome:
    """Result-store maintenance.

    ``stats`` summarizes the store; ``prune`` evicts by age and/or a
    total-size cap (oldest-first).  Exit 2 on an unknown action or a
    prune without a criterion.
    """
    from repro.study.cache import prune, usage_stats

    args = inv.args
    if args.action not in ("stats", "prune"):
        raise _UsageError("action must be 'stats' or 'prune'")
    root = inv.cache.root
    if args.action == "stats":
        doc = usage_stats(root)
        lines = [f"cache root: {doc['root']}",
                 f"entries: {doc['entries']} "
                 f"({doc['total_bytes']} bytes, "
                 f"{doc['stray_tempfiles']} stray tempfiles)"]
        if doc.get("oldest_age_s") is not None:
            lines.append(f"age: oldest {doc['oldest_age_s']:.0f}s, "
                         f"newest {doc['newest_age_s']:.0f}s")
        text = "\n".join(lines)
    else:
        if args.max_age_days is None and args.max_bytes is None:
            raise _UsageError("prune needs --max-age-days and/or "
                              "--max-bytes")
        if (args.max_age_days is not None and args.max_age_days < 0) \
                or (args.max_bytes is not None and args.max_bytes < 0):
            raise _UsageError("--max-age-days and --max-bytes must "
                              "be >= 0")
        doc = prune(root,
                    max_age_s=None if args.max_age_days is None
                    else args.max_age_days * 86400.0,
                    max_total_bytes=args.max_bytes,
                    dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        text = (f"{verb} {doc['removed']} of {doc['scanned']} entries "
                f"({doc['removed_bytes']} bytes) and "
                f"{doc['removed_strays']} stray tempfiles; "
                f"{doc['kept']} entries ({doc['kept_bytes']} bytes) "
                f"kept")
    return Outcome(json.dumps(doc, indent=2, sort_keys=True)
                   if args.format == "json" else text)


# -- the table -----------------------------------------------------------------

#: the default mode (no subcommand): the paper's tables and figures
DEFAULT = Command(
    "", "Regenerate the paper's tables and figures from fresh simulated "
        "traces.",
    _tables,
    (*_run_opts(), *_JOBS,
     _opt("--out", dest="out_dir", type=Path, default=None, metavar="DIR",
          help="directory for per-run reports and CSVs"),
     _opt("--app", default=None, metavar="NAME[/LIB]",
          help="analyze a single application instead of the full study "
               "(e.g. FLASH or LAMMPS/ADIOS)")))

COMMANDS: dict[str, Command] = {command.name: command for command in (
    Command(
        "all", "Evaluate every registered configuration into summary "
               "cells (parallel + cached).",
        _all,
        (*_run_opts(), *_MATRIX,
         _opt("--partitions", type=int, default=1, metavar="N",
              help="trace each cell with the partitioned multi-process "
                   "engine split across N worker subprocesses (default "
                   "1 = the single-process engine; byte-identical "
                   "either way)"),
         *_FORMAT,
         _opt("--workflows", action="store_true",
              help="append the canonical producer/consumer workflow "
                   "cell to the matrix"),
         *_STATS, *_OUT)),
    Command(
        "lint", "Statically lint application traces for "
                "consistency-semantics hazards (no PFS replay).",
        _lint,
        (*_TARGET, *_run_opts(), *_FORMAT,
         _opt("--rules", default=None, metavar="R1,R2",
              help="comma-separated rule names/ids to run (default: "
                   "all)"),
         *_OUT),
        listing=("--list-rules", "print the rule catalogue and exit",
                 _rule_catalogue)),
    Command(
        "chaos", "Replay application traces under a deterministic fault "
                 "matrix and audit crash recovery against the "
                 "per-semantics durability contract.",
        _chaos,
        (_opt("--app", action="append", default=None,
              metavar="NAME[/LIB]",
              help="configuration to test (repeatable, e.g. --app FLASH "
                   "--app LAMMPS/ADIOS)"),
         _ALL, *_run_opts(nranks=4), *_MATRIX,
         _opt("--plans", default=None, metavar="P1,P2",
              help="subset of plan names to run (default: the full "
                   "matrix; see --list-plans)"),
         *_FORMAT, *_STATS, *_OUT),
        listing=("--list-plans", "print the default fault plans and exit",
                 _plan_catalogue)),
    Command(
        "crossvalidate", "Cross-validate the static linter against the "
                         "replay-based conflict and durability oracles.",
        _crossvalidate,
        (*_TARGET, *_run_opts(), *_MATRIX, *_FORMAT, *_STATS, *_OUT)),
    Command(
        "staticcheck", "Predict per-semantics conflicts from symbolic I/O "
                       "plans and cross-validate the predictions against "
                       "the dynamic detector.",
        _staticcheck,
        (*_TARGET, *_run_opts(), *_MATRIX, *_FORMAT, *_STATS, *_OUT)),
    Command(
        "partition", "Trace configurations with the partitioned "
                     "multi-process simulation engine; optionally verify "
                     "byte-identity against the single-process engine.",
        _partition,
        (*_TARGET, *_run_opts(), *_MATRIX,
         _opt("--partitions", type=int, default=2, metavar="N",
              help="worker subprocesses per run (default 2)"),
         _opt("--verify", action="store_true",
              help="also trace single-process and require "
                   "byte-identical canonical .rtrc output"),
         *_FORMAT, *_STATS, *_OUT)),
    Command(
        "roundtrip", "Assert the binary .rtrc trace format is lossless: "
                     "study reports and conflict counts must be "
                     "byte-identical across a save/load round trip.",
        _roundtrip,
        (*_TARGET, *_run_opts(),
         _opt("--keep-dir", type=Path, default=None, metavar="DIR",
              help="write the .rtrc files here instead of a temporary "
                   "directory (kept afterwards)"),
         _opt("--check", action="append", type=Path, default=None,
              metavar="FILE",
              help="validate existing .rtrc file(s) instead of tracing "
                   "configurations (repeatable)"))),
    Command(
        "metrics", "Render the metrics dashboard for a --metrics "
                   "JSON-lines file, or collect one live from the study "
                   "matrix.",
        _metrics,
        (_opt("file", nargs="?", type=Path, metavar="FILE",
              help="JSON-lines file written by --metrics; omit with "
                   "--collect"),
         _opt("--collect", action="store_true",
              help="run the study matrix now and report its metrics "
                   "(ignores the result cache)"),
         *_run_opts(nranks=4), *_JOBS, *_FORMAT, *_OUT)),
    Command(
        "fingerprint", "Print the repro source fingerprint that scopes "
                       "result-cache keys.",
        _fingerprint),
    Command(
        "serve", "Serve the consistency analyses over length-prefixed "
                 "JSON TCP (see docs/serving.md).",
        _serve,
        (*_HOST,
         _opt("--port", type=int, default=0,
              help="TCP port (default 0 = ephemeral; the ready line "
                   "reports the bound port)"),
         _opt("--queue-limit", type=int, default=16, metavar="N",
              help="max admitted in-flight requests; beyond this "
                   "arrivals get 'overloaded' (default 16)"),
         _opt("--workers", type=int, default=2, metavar="N",
              help="analysis worker processes (default 2)"),
         _opt("--default-deadline", type=float, default=60.0,
              metavar="S",
              help="deadline budget for requests that set none "
                   "(default 60)"),
         _opt("--drain", type=float, default=10.0, metavar="S",
              help="shutdown grace for in-flight requests (default 10)"),
         *_CACHE,
         _opt("--ready-file", type=Path, default=None, metavar="FILE",
              help="write the ready JSON document here too"))),
    Command(
        "request", "Issue one request against a running analysis server "
                   "and print the response.",
        _request,
        (_opt("endpoint", nargs="?",
              help="endpoint name (healthz, fingerprint, metrics, cell, "
                   "lint, advise, chaos, staticcheck)"),
         *_HOST, *_PORT,
         _opt("--param", action="append", default=None,
              metavar="KEY=VALUE",
              help="request parameter (repeatable); VALUE parses as "
                   "JSON, falling back to string"),
         _opt("--json", default=None, metavar="DOC",
              help="request parameters as one JSON object (--param "
                   "entries override)"),
         _opt("--deadline", type=float, default=None, metavar="S",
              help="per-request deadline budget in seconds"),
         _opt("--seed", type=int, default=0,
              help="retry-jitter seed (default 0)"),
         *_OUT)),
    Command(
        "cache", "Inspect or prune the content-addressed result cache "
                 "(.repro-cache/).",
        _cache,
        (_opt("action", nargs="?", help="'stats' or 'prune'"),
         _CACHE[1],
         _opt("--max-age-days", type=float, default=None, metavar="D",
              help="prune entries not written in D days"),
         _opt("--max-bytes", type=int, default=None, metavar="N",
              help="prune oldest entries until the store fits in N "
                   "bytes"),
         _opt("--dry-run", action="store_true",
              help="report what prune would remove, remove nothing"),
         *_FORMAT)),
)}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
