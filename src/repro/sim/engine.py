"""The cooperative, deterministic multi-rank execution engine.

Ranks run as OS threads but execute strictly one at a time.  A thread gives
up control only at *checkpoints* (:meth:`SimEngine.checkpoint`,
:meth:`SimEngine.wait_until`), and the engine always resumes the runnable
rank with the smallest ``(true virtual time, rank)`` key.  Together with
seeded RNGs this makes entire application runs — including every trace
timestamp — bit-reproducible, regardless of OS scheduling.

Runnable ranks wait in a heap keyed ``(true time, rank)``; the key stays
valid while a rank waits, because only the running rank moves its clock.
Blocking is predicate-based: every dispatch polls the blocked set's
predicates in ascending rank order, and a rank whose predicate comes true
is ready before the next predicate runs.  MPI receive ("a matching send
was posted") and barrier ("generation advanced") are both one-line
predicates on shared state; only one rank runs at a time, so plain Python
data structures are safe.  Each rank waits on a pre-acquired lock (its
gate) that the dispatcher releases to hand it control.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import DeadlockError, SimulationError
from repro.obs import registry as obs
from repro.sim.clock import RankClock
from repro.util.rng import make_rng

_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"

#: public names for :meth:`SimEngine.rank_status` values
RANK_READY = _READY
RANK_RUNNING = _RUNNING
RANK_BLOCKED = _BLOCKED
RANK_DONE = _DONE

#: most ranks one engine may run, one OS thread each: 4096 threads ran
#: on a 2-vCPU host, and the paper traced at most 1024 ranks (§4)
MAX_RANK_THREADS = 4096


@dataclass
class SimConfig:
    """Knobs of a simulated run.

    ``clock_skew_us`` draws a fixed per-rank skew uniformly from
    ``[-clock_skew_us, +clock_skew_us]`` microseconds (the paper observed
    < 20 us on Quartz).  The cost fields are the virtual-time charges that
    the POSIX/MPI layers apply per operation; absolute values are
    arbitrary, only their ratios shape the traces.
    """

    nranks: int = 8
    seed: int = 7
    clock_skew_us: float = 0.0
    # virtual-time costs (seconds)
    cpu_op_cost: float = 1e-7
    io_meta_cost: float = 50e-6
    io_byte_cost: float = 5e-9
    net_latency: float = 2e-6
    net_byte_cost: float = 1e-9
    barrier_cost: float = 5e-6

    def __post_init__(self) -> None:
        for name in ("clock_skew_us", "cpu_op_cost", "io_meta_cost",
                     "io_byte_cost", "net_latency", "net_byte_cost",
                     "barrier_cost"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise SimulationError(
                    f"{name} must be finite and >= 0, got {value}")
        if self.net_latency == 0:
            raise SimulationError("net_latency must be > 0: any-source "
                                  "matching relies on it")
        if self.nranks < 1:
            raise SimulationError(f"nranks must be >= 1, got {self.nranks}")


class _RankState:
    __slots__ = ("clock", "status", "reason", "predicate", "gate", "thread")

    def __init__(self, clock: RankClock):
        self.clock = clock
        self.status = _READY
        self.reason = ""
        self.predicate: Callable[[], bool] | None = None
        # held while the rank may not run; released to hand it control
        self.gate = threading.Lock()
        self.gate.acquire()
        self.thread: threading.Thread | None = None


@dataclass
class RankContext:
    """Everything a rank's program sees: its identity, clock, engine, rng.

    The application harness (:mod:`repro.apps.base`) attaches the MPI
    communicator, the traced POSIX API, and the I/O libraries as extra
    attributes in ``services``.
    """

    rank: int
    nranks: int
    engine: "SimEngine"
    clock: RankClock
    rng: Any
    services: dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        services = object.__getattribute__(self, "services")
        try:
            return services[name]
        except KeyError:
            raise AttributeError(name) from None


class SimEngine:
    """Owns the rank threads, their clocks, and the scheduling discipline.

    Invariant: a rank's clock moves only while that rank runs (ranks call
    ``advance``/``sync_to`` on their own clock), so a ready-heap key still
    holds when it is popped.
    """

    def __init__(self, config: SimConfig):
        if config.nranks > MAX_RANK_THREADS:
            raise SimulationError(
                f"nranks={config.nranks} exceeds the limit of "
                f"{MAX_RANK_THREADS} rank threads per run")
        self.config = config
        skews = self._draw_skews(config)
        self._ranks = [_RankState(RankClock(r, skews[r]))
                       for r in range(config.nranks)]
        #: ``(true_time, rank)`` of every READY rank
        self._ready: list[tuple[float, int]] = []
        #: every BLOCKED rank
        self._blocked: set[int] = set()
        self._failure: BaseException | None = None
        self._woken = False
        self._main_event = threading.Event()
        self._started = False
        #: virtual-time callbacks, fired by the dispatcher in (t, FIFO)
        #: order before any rank whose clock has passed them runs
        self._scheduled: list[
            tuple[float, int, Callable[[float], None]]] = []
        self._sched_counter = itertools.count()
        # observability instruments, captured once (no-ops when metrics
        # are off, so the dispatch loop pays one dead call per event)
        reg = obs.current()
        self._obs_scheduled = reg.counter("sim.events_scheduled")
        self._obs_fired = reg.counter("sim.events_fired")
        self._obs_checkpoints = reg.counter("sim.checkpoints")
        self._obs_blocks = reg.counter("sim.blocks")
        self._obs_vtime = reg.gauge("sim.virtual_time")
        reg.counter("sim.engines").inc()
        reg.counter("sim.ranks").inc(config.nranks)

    @staticmethod
    def _draw_skews(config: SimConfig) -> list[float]:
        """Per-rank skews, drawn from their own seeded stream."""
        if config.clock_skew_us <= 0:
            return [0.0] * config.nranks
        rng = make_rng(config.seed, 0xC10C)
        bound = config.clock_skew_us * 1e-6
        return rng.uniform(-bound, bound, size=config.nranks).tolist()

    # -- public API ------------------------------------------------------------

    @property
    def nranks(self) -> int:
        return self.config.nranks

    def clock(self, rank: int) -> RankClock:
        return self._ranks[rank].clock

    def rank_status(self, rank: int) -> tuple[str, float]:
        """(status, true_time) of a rank, for matching/safety rules."""
        state = self._ranks[rank]
        return state.status, state.clock.true_time

    def run(self, program: Callable[[RankContext], Any],
            services_factory: Callable[[RankContext], dict[str, Any]] | None = None,
            ) -> list[Any]:
        """Execute ``program`` SPMD on every rank; return per-rank results.

        ``services_factory`` may populate per-rank services (communicator,
        file APIs) before any rank starts; it receives the bare context and
        returns the services dict.
        """
        if self._started:
            raise SimulationError("a SimEngine can only run once")
        self._started = True

        results: list[Any] = [None] * self.nranks
        contexts = [
            RankContext(rank=r, nranks=self.nranks, engine=self,
                        clock=self._ranks[r].clock,
                        rng=make_rng(self.config.seed, r))
            for r in range(self.nranks)
        ]
        if services_factory is not None:
            for ctx in contexts:
                ctx.services.update(services_factory(ctx))

        def runner(rank: int) -> None:
            state = self._ranks[rank]
            state.gate.acquire()  # wait to be scheduled the first time
            if self._failure is not None:
                self._finish_rank(rank)
                return
            try:
                results[rank] = program(contexts[rank])
            except BaseException as exc:  # propagate to the driving thread
                if self._failure is None:
                    self._failure = exc
            finally:
                self._finish_rank(rank)

        for r, state in enumerate(self._ranks):
            state.thread = threading.Thread(
                target=runner, args=(r,), name=f"simrank-{r}",
                daemon=True)
            state.thread.start()

        self._ready = [(s.clock.true_time, r)
                       for r, s in enumerate(self._ranks)]
        heapq.heapify(self._ready)
        self._dispatch_next()
        self._main_event.wait()
        for state in self._ranks:
            assert state.thread is not None
            state.thread.join()
        if self._failure is not None:
            raise self._failure
        return results

    # -- checkpoints called from inside rank threads ------------------------------

    def checkpoint(self, rank: int) -> None:
        """Offer the scheduler a chance to switch to an earlier-time rank."""
        state = self._ranks[rank]
        state.status = _READY
        heapq.heappush(self._ready, (state.clock.true_time, rank))
        self._obs_checkpoints.inc()
        self._hand_off(state)

    def wait_until(self, rank: int, predicate: Callable[[], bool],
                   reason: str) -> None:
        """Block this rank until ``predicate()`` is true.

        The predicate is evaluated under the engine's one-runner-at-a-time
        discipline, so it may read any shared state without extra locking.
        """
        state = self._ranks[rank]
        while not predicate():
            state.status = _BLOCKED
            state.reason = reason
            state.predicate = predicate
            self._blocked.add(rank)
            self._obs_blocks.inc()
            self._hand_off(state)
        state.predicate = None
        state.reason = ""
        state.status = _RUNNING

    def advance(self, rank: int, dt: float) -> float:
        """Charge ``dt`` seconds of virtual time to ``rank``."""
        return self._ranks[rank].clock.advance(dt)

    def schedule(self, t: float, callback: Callable[[float], None]) -> None:
        """Run ``callback(t)`` once virtual time reaches ``t``.

        The callback fires under the engine's one-runner-at-a-time
        discipline, before any rank whose clock has passed ``t`` is
        dispatched, so it may mutate shared state (crash a simulated
        server, drop a cache) without extra locking.  Callbacks with
        equal times fire in registration order; determinism of the
        schedule follows from determinism of the run.
        """
        heapq.heappush(self._scheduled,
                       (t, next(self._sched_counter), callback))
        self._obs_scheduled.inc()

    # -- internals -----------------------------------------------------------------

    def _finish_rank(self, rank: int) -> None:
        self._ranks[rank].status = _DONE
        self._dispatch_next()

    def _hand_off(self, state: _RankState) -> None:
        """Dispatch the next rank, then wait until this one is resumed."""
        self._dispatch_next()
        if self._failure is None:  # after a failure every gate stays open
            state.gate.acquire()
        if self._failure is not None:
            # Re-raised inside a rank thread to unwind it; the original
            # exception object still reaches the driving thread.
            raise SimulationError("simulation aborted") from self._failure

    def _dispatch_next(self) -> None:
        if self._failure is not None:
            self._wake_everyone()
            return
        ready, blocked, scheduled = self._ready, self._blocked, self._scheduled
        try:
            while True:
                # Unblock, in rank order, every rank whose wait predicate
                # has become true.
                for rank in sorted(blocked):
                    state = self._ranks[rank]
                    if state.predicate():
                        state.status = _READY
                        blocked.discard(rank)
                        heapq.heappush(ready,
                                       (state.clock.true_time, rank))
                # Fire scheduled virtual-time callbacks that come before
                # the next runnable rank (or any time no rank is runnable —
                # a callback may be exactly what unblocks one).
                if not scheduled or (ready and
                                     scheduled[0][0] > ready[0][0]):
                    break
                t, _, callback = heapq.heappop(scheduled)
                self._obs_fired.inc()
                callback(t)  # state may have changed; re-evaluate
        except BaseException as exc:
            self._failure = exc
            self._wake_everyone()
            return
        if ready:
            t, nxt = heapq.heappop(ready)
            self._obs_vtime.set_max(t)
            state = self._ranks[nxt]
            state.status = _RUNNING
            state.gate.release()
            return
        if blocked:
            self._failure = DeadlockError(
                f"deadlock: {len(blocked)} rank(s) blocked, none runnable",
                {s.clock.rank: s.reason
                 for s in self._ranks if s.status == _BLOCKED})
            self._wake_everyone()
            return
        # Everyone done.
        self._main_event.set()

    def _wake_everyone(self) -> None:
        # the first call runs while every other thread waits at its gate
        if not self._woken:
            self._woken = True
            for state in self._ranks:
                state.gate.release()
        self._main_event.set()
