"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload matrix64 --seed 7 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is a separate run that wraps each layer's public functions
(``layers.py``), reports the per-layer metrics, and writes the spans as a
Chrome trace-event file under ``.perfbench_out/``.  Both modes check
every answer the workload produced.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The process pins itself to one CPU before anything else runs: the
simulator runs one rank thread at a time, so a second CPU adds only
cross-CPU wake-up latency, which made whole passes vary by a quarter
between minutes on a 2-vCPU host.  See ``README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: set-ups measured per run (this process plus fresh child processes)
SETUP_SAMPLES = 3
#: configurations timed per rank count by the scheduler scaling probe
PROBE_LABELS = ("Nek5000-POSIX", "FLASH-HDF5 nofbs")
PROBE_RANKS = (16, 32, 64)

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "ops_per_s": "1/s",
    "cell_p50_s": "s",
    "cell_p90_s": "s",
    "peak_rss_mb": "MB",
}
_LAYER_CALLS = ("apps", "iolibs", "mpiio", "mpi", "posix")
_CORE_SPANS = {"core.offsets_s": "core.offsets",
               "core.group_s": "core.group",
               "core.overlaps_s": "core.overlaps",
               **{f"core.conflicts_s.{m}": f"core.conflicts.{m}"
                  for m in ("session", "commit", "eventual", "object")},
               "core.sharing_s": "core.sharing",
               "core.metadata_conflicts_s": "core.metadata_conflicts",
               "core.verdicts_s": "core.verdicts"}
#: per-layer metrics (``--trace 1``): name -> unit
PER_LAYER = {
    "sim.handoffs": "count",
    "sim.sched_s": "s",
    "sim.sched_us_per_handoff": "us",
    **{f"sim.sched_us_per_handoff.r{n}": "us" for n in PROBE_RANKS},
    "sim.handoff_cost_exponent": "ratio",
    **{f"{layer}.{kind}": unit for layer in _LAYER_CALLS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "posix.bytes_written": "B",
    "posix.bytes_read": "B",
    "tracer.build_trace_s": "s",
    "tracer.records": "count",
    "tracer.to_trace_s": "s",
    "core.accesses": "count",
    "core.overlap_pairs": "count",
    "core.conflicts_per_overlap": "ratio",
    **{name: "s" for name in _CORE_SPANS},
    "lint.lint_s": "s",
    "lint.diagnostics": "count",
    "lint.crossval_s": "s",
    "lint.checked_pairs": "count",
    "pfs.replay_s": "s",
    "pfs.ops": "count",
    "pfs.corrupted_files": "count",
    "study.cell_summary_self_s": "s",
    "study.cache_put_s": "s",
    "study.cache_get_s": "s",
    "study.cache_hit_ratio": "ratio",
    "study.matrix_json_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("matrix64", "synth250k", "consumers16"))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: 7 for the simulated "
                        "workloads, 42 for synth250k)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measure whole passes until this much time passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # one set-up sample, for the parent
    return p.parse_args(argv)


def _pin_to_one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build(args: argparse.Namespace):
    """Import the program and set the workload up; returns (workload, s)."""
    t0 = time.perf_counter()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    wl = cls(args.seed if args.seed is not None else cls.default_seed, OUT)
    wl.setup()
    return wl, time.perf_counter() - t0


def _setup_sample_in_child(args: argparse.Namespace) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--setup-only"]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _measure(wl, seconds: float) -> list[list]:
    """Whole passes until ``seconds`` have passed (at least one).

    Each pass starts from a collected heap, so a pass does not pay for
    the previous pass's garbage.
    """
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        gc.collect()
        passes.append(wl.run_pass())
    return passes


def _tally(cells: list) -> tuple[int, int, list[str]]:
    attempted = sum(c.ops for c in cells)
    problems = [p for c in cells for p in c.failures.values()]
    return attempted, len(problems), problems


def _percentiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=10, method="inclusive")
    return q[4], q[8]


def end_to_end(passes: list[list], setup_s: float) -> dict[str, float]:
    """Rates are medians over passes; latency percentiles pool all cells."""
    cells_per_s, ops_per_s = [], []
    for cells in passes:
        timed = sum(c.seconds for c in cells)
        cells_per_s.append(sum(c.latency for c in cells) / timed)
        ops_per_s.append(sum(c.records for c in cells) / timed)
    p50, p90 = _percentiles([c.seconds for cells in passes for c in cells
                             if c.latency])
    return {"setup_s": setup_s,
            "cells_per_s": statistics.median(cells_per_s),
            "ops_per_s": statistics.median(ops_per_s),
            "cell_p50_s": p50,
            "cell_p90_s": p90,
            "peak_rss_mb": _peak_rss_mb()}


def scheduler_probe(seed: int) -> dict[str, float]:
    """Scheduler time per hand-off at 16, 32 and 64 ranks."""
    from layers import LayerTracer
    from repro.apps.registry import all_variants

    variants = {v.label: v for v in all_variants()}
    cost = {}
    for n in PROBE_RANKS:
        with LayerTracer({"sim"}) as tracer:
            for label in PROBE_LABELS:
                variants[label].run(nranks=n, seed=seed)
        cost[n] = tracer.counts["sim.sched_s"] / tracer.handoffs() * 1e6
    slope = statistics.linear_regression(
        [math.log(n) for n in PROBE_RANKS],
        [math.log(cost[n]) for n in PROBE_RANKS]).slope
    out = {f"sim.sched_us_per_handoff.r{n}": cost[n] for n in PROBE_RANKS}
    out["sim.handoff_cost_exponent"] = slope
    return out


def per_layer(tracer, hit_ratio: float, overhead: float,
              probe: dict) -> dict[str, float]:
    handoffs = tracer.handoffs()
    sched = tracer.counts["sim.sched_s"]
    pairs = tracer.counts["core.overlap_pairs"]
    m = {"sim.handoffs": handoffs,
         "sim.sched_s": sched,
         "sim.sched_us_per_handoff": sched / handoffs * 1e6 if handoffs
         else 0.0,
         **probe}
    for layer in _LAYER_CALLS:
        m[f"{layer}.calls"] = tracer.calls[layer]
        m[f"{layer}.self_s"] = tracer.self_s[layer]
    m.update({
        "posix.bytes_written": tracer.counts["posix.bytes_written"],
        "posix.bytes_read": tracer.counts["posix.bytes_read"],
        "tracer.build_trace_s": tracer.total_s["tracer.build_trace"],
        "tracer.records": tracer.counts["tracer.records"],
        "tracer.to_trace_s": tracer.total_s["tracer.to_trace"],
        "core.accesses": tracer.counts["core.accesses"],
        "core.overlap_pairs": pairs,
        "core.conflicts_per_overlap":
            tracer.counts["core.byte_conflicts"] / pairs if pairs else 0.0,
        **{name: tracer.total_s[span] for name, span in _CORE_SPANS.items()},
        "lint.lint_s": tracer.total_s["lint.lint"],
        "lint.diagnostics": tracer.counts["lint.diagnostics"],
        "lint.crossval_s": tracer.total_s["lint.crossval"],
        "lint.checked_pairs": tracer.counts["lint.checked_pairs"],
        "pfs.replay_s": tracer.total_s["pfs.replay"],
        "pfs.ops": tracer.counts["pfs.ops"],
        "pfs.corrupted_files": tracer.counts["pfs.corrupted_files"],
        "study.cell_summary_self_s": tracer.self_s["study.cell_summary"],
        "study.cache_put_s": tracer.total_s["study.cache_put"],
        "study.cache_get_s": tracer.total_s["study.cache_get"],
        "study.cache_hit_ratio": hit_ratio,
        "study.matrix_json_s": tracer.total_s["study.matrix_json"],
        "trace.overhead_ratio": overhead,
    })
    return m


def _traced_run(args: argparse.Namespace):
    """Per-layer metrics: traced set-up, then untraced, traced and
    untraced passes of the same work, then the traced layer census."""
    import workloads
    from layers import LayerTracer

    tracer = LayerTracer()
    with tracer:
        wl, _ = _build(args)
    if hasattr(wl, "reference"):
        wl.reference()
    # untraced passes on both sides of the traced one, so drift and the
    # first pass's warm-up do not land on one side of the ratio
    passes = []
    for traced in (False, True, False):
        gc.collect()
        with tracer if traced else contextlib.nullcontext():
            passes.append(wl.run_pass())
    seconds = [sum(c.seconds for c in cells) for cells in passes]
    overhead = seconds[1] / statistics.fmean(seconds[::2])
    with tracer:
        census, census_hit_ratio = workloads.layer_census(wl.seed, OUT)
    probe = scheduler_probe(wl.seed)
    path = OUT / f"{args.workload}-seed{wl.seed}.trace.json"
    spans = tracer.write_chrome_trace(path)
    print(f"{spans} spans written to {path.relative_to(ROOT)}")
    hit_ratio = getattr(wl, "warm_hit_ratio", census_hit_ratio)
    return ([c for cells in passes for c in cells] + census,
            per_layer(tracer, hit_ratio, overhead, probe), PER_LAYER)


def _timed_run(args: argparse.Namespace):
    """End-to-end metrics: set-up samples, then timed passes."""
    samples = [_setup_sample_in_child(args)
               for _ in range(SETUP_SAMPLES - 1)]
    wl, seconds = _build(args)
    samples.append(seconds)
    if hasattr(wl, "reference"):
        wl.reference()
    passes = _measure(wl, args.seconds)
    return ([c for cells in passes for c in cells],
            end_to_end(passes, statistics.median(samples)), END_TO_END)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    _pin_to_one_cpu()

    if args.setup_only:
        _, seconds = _build(args)
        print(json.dumps({"setup_s": seconds}))
        return 0
    cells, values, units = (_traced_run if args.trace else _timed_run)(args)
    attempted, failed, problems = _tally(cells)
    for problem in problems:
        print(f"FAILED: {problem}")
    latencies = sum(1 for c in cells if c.latency)
    print(f"{args.workload}: {latencies} cell(s) timed, {attempted} answers "
          f"checked, fail_frac {failed}/{attempted} = "
          f"{failed / attempted:.4g}")
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
