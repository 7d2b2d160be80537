"""Benchmark-side layer tracing: spans around calls into each layer.

Nothing in the program changes.  :meth:`LayerTracer.install` replaces
selected public functions and methods with wrappers that record one span
per call that crosses into the layer, and :meth:`LayerTracer.uninstall`
puts the originals back.  A call made from inside the same layer (a
``PosixAPI`` method calling another one) is not a new span, so
``<layer>.calls`` counts layer-boundary calls only.

A span is ``(id, parent id, name, layer, start, end, thread)``.  Self
time is computed as the spans close: a span's duration minus the
durations of the child spans that closed inside it on the same thread.
``SimEngine.checkpoint`` and ``wait_until`` are spans of their own
(layer ``sim.wait``), so the time a rank thread spends handed off to
other ranks never counts as the caller's self time.

Scheduler time uses the engine's one-rank-at-a-time discipline: the
``program`` handed to ``SimEngine.run`` is wrapped, its duration minus
the ``sim.wait`` time inside it is the time that rank spent running, and
``SimEngine.run`` wall time minus the running time of all ranks is the
time spent scheduling (dispatch, handoffs, thread start and join).
Hand-off counts come from the engine's own ``sim.checkpoints`` and
``sim.blocks`` instruments, enabled only while an engine is built so no
other component switches to its instrumented path.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.core.semantics import Semantics

#: layers whose public methods are wrapped, by defining class
LAYER_CLASSES: dict[str, tuple[tuple[str, str], ...]] = {
    "iolibs": (("repro.iolibs.hdf5lite", "H5File"),
               ("repro.iolibs.netcdflite", "NetCDFFile"),
               ("repro.iolibs.adioslite", "AdiosStream"),
               ("repro.iolibs.silolite", "SiloGroupWriter")),
    "mpiio": (("repro.mpiio.file", "MPIFile"),),
    "mpi": (("repro.mpi.comm", "Communicator"),
            ("repro.mpi.comm", "SubComm"),
            ("repro.mpi.comm", "Request")),
    "posix": (("repro.posix.api", "PosixAPI"),),
}
#: layers whose constructors do I/O of their own (file headers, opens)
CONSTRUCTOR_LAYERS = frozenset({"iolibs"})

#: every layer :meth:`LayerTracer.install` knows
ALL_LAYERS = frozenset(
    {"sim", "apps", "tracer", "core", "lint", "pfs", "study"}
    | set(LAYER_CLASSES))

_WAIT = "sim.wait"
#: modules that bind wrapped functions by name; imported before wrapping
#: so that no module imported later keeps a wrapper after uninstall
_PRELOAD = ("repro.core.report", "repro.lint.context", "repro.lint.crossval",
            "repro.pfs.replay", "repro.study.parallel", "repro.study.runner")


def _semantics_key(prefix: str) -> Callable[[tuple, dict], str]:
    def key(args: tuple, kwargs: dict) -> str:
        semantics = kwargs.get("semantics", args[2] if len(args) > 2
                               else None)
        return f"{prefix}.{semantics.name.lower()}"
    return key


class LayerTracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, layers: frozenset[str] | set[str] = ALL_LAYERS):
        self.layers = frozenset(layers)
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._registry = None

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.wait_s = 0.0
            return self._local.stack

    def call(self, layer: str, name: str, fn: Callable, args: tuple,
             kwargs: dict):
        """Run ``fn`` under a span unless the caller is already in
        ``layer`` (an internal call of that layer)."""
        stack = self._stack()
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, time.perf_counter(), 0.0, next(self._ids)]
        parent = stack[-1][3] if stack else 0
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - frame[1]
            if stack:
                stack[-1][2] += dur
            self.calls[layer] += 1
            self.total_s[layer] += dur
            self.self_s[layer] += dur - frame[2]
            if layer == _WAIT:
                # kept as totals only: a hand-off shows in the trace as
                # the gap it leaves in the rank's other spans
                self._local.wait_s += dur
            else:
                self.spans.append((frame[3], parent, name, layer, frame[1],
                                   end, threading.get_ident()))

    def wait_seconds(self) -> float:
        """Time this thread has spent in ``sim.wait`` spans so far."""
        self._stack()
        return self._local.wait_s

    # -- installing wrappers -------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, module: str, name: str, layer: Any,
                       after: Callable | None = None) -> None:
        """Wrap a module-level function at every ``repro`` module that
        bound it by name (``from x import f`` copies the reference)."""
        __import__(module)
        original = getattr(sys.modules[module], name)
        span_name = f"{module}.{name}"
        key = layer if callable(layer) else (lambda a, k, _l=layer: _l)

        def wrapper(*args, **kwargs):
            result = self.call(key(args, kwargs), span_name, original,
                               args, kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, name, None) is original:
                self._set(mod, name, wrapper)

    def _wrap_method(self, cls: type, attr: str, layer: str,
                     after: Callable | None = None) -> None:
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        span_name = f"{cls.__name__}.{attr}"

        def wrapper(*args, **kwargs):
            result = self.call(layer, span_name, original, args, kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        self._set(cls, attr, classmethod(wrapper) if is_classmethod
                  else wrapper)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or (
                attr == "__init__" and layer in CONSTRUCTOR_LAYERS)
            function = callable(raw) or isinstance(raw, classmethod)
            if public and function and not isinstance(raw, staticmethod):
                self._wrap_method(cls, attr, layer)

    def install(self) -> "LayerTracer":
        for module in _PRELOAD:
            __import__(module)
        for layer, classes in LAYER_CLASSES.items():
            if layer in self.layers:
                for module, name in classes:
                    __import__(module)
                    self._wrap_class(getattr(sys.modules[module], name),
                                     layer)
        if self.layers & {"sim", "apps"}:
            self._install_sim()
        if "tracer" in self.layers:
            self._install_tracer()
        if "core" in self.layers:
            self._install_core()
        if "lint" in self.layers:
            self._wrap_function("repro.lint.runner", "lint_trace",
                                "lint.lint", _count_diagnostics)
            self._wrap_function("repro.lint.crossval", "crossvalidate_trace",
                                "lint.crossval", _count_checked_pairs)
        if "pfs" in self.layers:
            self._wrap_function("repro.pfs.replay", "replay_trace",
                                "pfs.replay", _count_replay)
        if "study" in self.layers:
            from repro.study.cache import ResultCache

            self._wrap_function("repro.study.runner", "cell_summary",
                                "study.cell_summary")
            self._wrap_function("repro.study.runner", "matrix_json",
                                "study.matrix_json")
            self._wrap_method(ResultCache, "get", "study.cache_get")
            self._wrap_method(ResultCache, "put", "study.cache_put")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _install_sim(self) -> None:
        from repro.sim.engine import SimEngine

        if self._registry is None:
            self._registry = obs.MetricsRegistry()
        registry = self._registry
        tracer = self
        engine_init = SimEngine.__init__
        engine_run = SimEngine.run

        def init(engine, config):
            # the engine captures its instruments here; nothing else
            # built later sees an active registry
            with obs.collecting(registry):
                engine_init(engine, config)

        def run(engine, program, services_factory=None):
            running: list[float] = []

            def rank_program(ctx):
                waited0 = tracer.wait_seconds()
                t0 = time.perf_counter()
                try:
                    return tracer.call("apps", "program", program,
                                       (ctx,), {})
                finally:
                    running.append(time.perf_counter() - t0
                                   - (tracer.wait_seconds() - waited0))

            t0 = time.perf_counter()
            try:
                return tracer.call("sim.run", "SimEngine.run", engine_run,
                                   (engine, rank_program, services_factory),
                                   {})
            finally:
                wall = time.perf_counter() - t0
                tracer.counts["sim.sched_s"] += wall - sum(running)

        self._set(SimEngine, "__init__", init)
        self._set(SimEngine, "run", run)
        self._wrap_method(SimEngine, "checkpoint", _WAIT)
        self._wrap_method(SimEngine, "wait_until", _WAIT)

    def _install_tracer(self) -> None:
        from repro.tracer.columnar import ColumnarTrace
        from repro.tracer.recorder import Recorder

        self._wrap_method(Recorder, "build_trace", "tracer.build_trace",
                          _count_trace)
        self._wrap_method(ColumnarTrace, "to_trace", "tracer.to_trace")

    def _install_core(self) -> None:
        wrap = self._wrap_function
        wrap("repro.core.offsets", "reconstruct_offsets", "core.offsets",
             _count_accesses)
        wrap("repro.core.records", "group_by_path", "core.group")
        wrap("repro.core.overlaps", "find_overlaps", "core.overlaps",
             _count_overlaps)
        wrap("repro.core.conflicts", "detect_conflicts",
             _semantics_key("core.conflicts"), _count_conflicts)
        wrap("repro.core.highlevel", "classify_sharing", "core.sharing")
        wrap("repro.core.metadata_conflicts", "detect_metadata_conflicts",
             "core.metadata_conflicts")
        for name in ("weakest_sufficient_semantics", "compatible_filesystems",
                     "object_store_compatible"):
            wrap("repro.core.semantics", name, "core.verdicts")

    # -- results -------------------------------------------------------------

    def handoffs(self) -> int:
        """Engine hand-offs so far (``sim.checkpoints`` + ``sim.blocks``)."""
        if self._registry is None:
            return 0
        return int(self._registry.counter("sim.checkpoints").value
                   + self._registry.counter("sim.blocks").value)

    def write_chrome_trace(self, path: Path) -> int:
        """Write the spans as Chrome trace-event JSON; returns the count."""
        threads: dict[int, int] = {}
        with open(path, "w") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i, (sid, parent, name, layer, start, end, thread) in \
                    enumerate(sorted(self.spans, key=lambda s: s[4])):
                tid = threads.setdefault(thread, len(threads))
                fh.write(("" if i == 0 else ",\n") + json.dumps({
                    "name": name, "cat": layer, "ph": "X", "pid": 1,
                    "tid": tid, "ts": round(start * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "args": {"id": sid, "parent": parent}}))
            fh.write("\n]}\n")
        return len(self.spans)


# -- work counters read off each layer's results ------------------------------


def _count_trace(tracer: LayerTracer, args, kwargs, trace) -> None:
    read, written = trace.bytes_moved()
    tracer.counts["tracer.records"] += len(trace.records)
    tracer.counts["posix.bytes_read"] += read
    tracer.counts["posix.bytes_written"] += written


def _count_accesses(tracer: LayerTracer, args, kwargs, accesses) -> None:
    tracer.counts["core.accesses"] += len(accesses)


def _count_overlaps(tracer: LayerTracer, args, kwargs, pairs) -> None:
    tracer.counts["core.overlap_pairs"] += len(pairs)


def _count_conflicts(tracer: LayerTracer, args, kwargs, conflict_set) -> None:
    # OBJECT pairs whole-object sessions without the overlap sweep, so
    # only byte-granular models enter the useful/attempted ratio
    if conflict_set.semantics is not Semantics.OBJECT:
        tracer.counts["core.byte_conflicts"] += len(conflict_set)


def _count_diagnostics(tracer: LayerTracer, args, kwargs, report) -> None:
    tracer.counts["lint.diagnostics"] += len(report.diagnostics)


def _count_checked_pairs(tracer: LayerTracer, args, kwargs, result) -> None:
    tracer.counts["lint.checked_pairs"] += result.checked_pairs


def _count_replay(tracer: LayerTracer, args, kwargs, result) -> None:
    s = result.stats
    tracer.counts["pfs.ops"] += (s.reads + s.writes + s.opens + s.closes
                                 + s.commits)
    tracer.counts["pfs.corrupted_files"] += len(result.corrupted_files)
