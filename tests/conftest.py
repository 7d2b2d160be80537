"""Shared fixtures: quick simulation harnesses, a cached study run, and
a slow endpoint for the analysis service."""

from __future__ import annotations

import time
from typing import Any, Callable

import pytest

from repro.apps.registry import all_variants
from repro.core.report import analyze
from repro.mpi.comm import Communicator, MPIWorld
from repro.posix.api import PosixAPI
from repro.posix.vfs import VirtualFileSystem
from repro.serve import handlers
from repro.sim.engine import RankContext, SimConfig, SimEngine
from repro.study.runner import StudyResults, run_study
from repro.tracer.recorder import Recorder
from repro.tracer.trace import Trace


class SimHarness:
    """One-call engine + VFS + tracer + MPI world for unit tests."""

    def __init__(self, nranks: int = 4, seed: int = 3,
                 clock_skew_us: float = 0.0):
        self.config = SimConfig(nranks=nranks, seed=seed,
                                clock_skew_us=clock_skew_us)
        self.engine = SimEngine(self.config)
        self.vfs = VirtualFileSystem()
        self.recorder = Recorder(nranks)
        self.world = MPIWorld(self.engine, self.recorder)

    def services(self, ctx: RankContext) -> dict[str, Any]:
        return {
            "comm": Communicator(self.world, ctx),
            "posix": PosixAPI(self.vfs, ctx, self.recorder),
            "recorder": self.recorder,
        }

    def run(self, program: Callable[[RankContext], Any],
            align: bool = True) -> list[Any]:
        def wrapper(ctx: RankContext):
            if align:
                ctx.comm.barrier()
                self.recorder.set_time_origin(ctx.rank,
                                              ctx.clock.local_time)
            return program(ctx)
        return self.engine.run(wrapper, self.services)

    def trace(self, **meta: Any) -> Trace:
        return self.recorder.build_trace(meta=meta)


@pytest.fixture
def harness() -> Callable[..., SimHarness]:
    return SimHarness


@pytest.fixture
def run_traced(harness):
    """Run a program on a fresh harness; returns (trace, vfs)."""

    def _run(program, nranks: int = 4, seed: int = 3,
             clock_skew_us: float = 0.0):
        h = harness(nranks=nranks, seed=seed, clock_skew_us=clock_skew_us)
        h.run(program)
        return h.trace(app="test"), h.vfs

    return _run


@pytest.fixture(scope="session")
def study8() -> StudyResults:
    """The full 28-configuration study at 8 ranks (run once per session)."""
    return run_study(nranks=8, seed=7)


@pytest.fixture(scope="session")
def variant_by_label():
    return {v.label: v for v in all_variants()}


@pytest.fixture(scope="session")
def flash_reports():
    """FLASH fbs/nofbs traces + reports at 8 ranks, shared by tests."""
    out = {}
    for label in ("FLASH-HDF5 fbs", "FLASH-HDF5 nofbs"):
        variant = {v.label: v for v in all_variants()}[label]
        trace = variant.run(nranks=8)
        out[label] = (variant, trace, analyze(trace))
    return out


def slow_task(task: tuple) -> dict:
    """(seconds, token) -> sleep, then echo the token.

    Module-level so the server's forked pool workers can unpickle it.
    """
    seconds, token = task
    time.sleep(seconds)
    return {"slept_s": seconds, "token": token}


def prepare_slow(params: dict) -> handlers.Prepared:
    seconds = float(params.get("seconds", 0.0))
    token = params.get("token", 0)
    return handlers.Prepared(
        kind="test-slow", key_fields={"seconds": seconds, "token": token},
        worker=slow_task, task=(seconds, token))


@pytest.fixture
def slow_endpoint(monkeypatch) -> str:
    """Register a ``slow`` compute endpoint for the duration of a test.

    A latency probe that makes deadlines, coalescing and backpressure
    cheap and deterministic to drive without running analyses.
    """
    monkeypatch.setitem(
        handlers.ENDPOINTS, "slow",
        handlers.Endpoint("slow", "sleep 'seconds', echo 'token'",
                          prepare=prepare_slow,
                          param_names=("seconds", "token")))
    return "slow"
