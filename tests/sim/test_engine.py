"""Tests for the deterministic cooperative engine and virtual clocks."""

import math
import threading

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.clock import RankClock
from repro.sim.engine import RANK_READY, SimConfig, SimEngine


def run_bounded(engine, program, timeout=30.0):
    """``engine.run(program)`` on a helper thread, failing on a hang.

    Returns the results, or the exception ``run`` raised.
    """
    outcome: list = []

    def drive():
        try:
            outcome.append(engine.run(program))
        except BaseException as exc:
            outcome.append(exc)

    driver = threading.Thread(target=drive, daemon=True)
    driver.start()
    driver.join(timeout)
    assert not driver.is_alive(), "SimEngine.run hung"
    assert not [t for t in threading.enumerate()
                if t.name.startswith("simrank-")], "rank threads left over"
    return outcome[0]


class TestRankClock:
    def test_advance_and_skew(self):
        c = RankClock(0, skew=5e-6)
        c.advance(1e-3)
        assert c.true_time == pytest.approx(1e-3)
        assert c.local_time == pytest.approx(1e-3 + 5e-6)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            RankClock(0).advance(-1)

    def test_sync_never_moves_backward(self):
        c = RankClock(0)
        c.advance(2.0)
        c.sync_to(1.0)
        assert c.true_time == 2.0
        c.sync_to(3.0)
        assert c.true_time == 3.0


class TestSimConfig:
    def test_rejects_zero_ranks(self):
        with pytest.raises(SimulationError):
            SimConfig(nranks=0)

    def test_skew_draw_is_bounded_and_deterministic(self):
        a = SimEngine._draw_skews(SimConfig(nranks=16, seed=5,
                                            clock_skew_us=20))
        b = SimEngine._draw_skews(SimConfig(nranks=16, seed=5,
                                            clock_skew_us=20))
        assert a == b
        assert all(abs(s) <= 20e-6 for s in a)

    def test_zero_skew(self):
        skews = SimEngine._draw_skews(SimConfig(nranks=4))
        assert skews == [0.0] * 4

    @pytest.mark.parametrize(("field", "value"), [
        ("clock_skew_us", math.nan),
        ("clock_skew_us", math.inf),
        ("clock_skew_us", -5.0),
        ("cpu_op_cost", -1e-7),
        ("io_meta_cost", math.nan),
        ("io_byte_cost", math.inf),
        ("net_byte_cost", -1e-9),
        ("barrier_cost", -math.inf),
        ("net_latency", 0.0),
        ("net_latency", -2e-6),
    ])
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(SimulationError, match=field):
            SimConfig(nranks=4, **{field: value})


class TestSimEngine:
    def test_runs_all_ranks_and_collects_results(self):
        engine = SimEngine(SimConfig(nranks=5))
        results = engine.run(lambda ctx: ctx.rank * 10)
        assert results == [0, 10, 20, 30, 40]

    def test_scheduling_follows_virtual_time(self):
        """The rank that advances least runs most often first."""
        order: list[int] = []
        engine = SimEngine(SimConfig(nranks=2))

        def program(ctx):
            for _ in range(3):
                dt = 1e-6 if ctx.rank == 0 else 10e-6
                ctx.engine.advance(ctx.rank, dt)
                order.append(ctx.rank)
                ctx.engine.checkpoint(ctx.rank)

        engine.run(program)
        # rank 0 (cheap steps) completes all three before rank 1's second
        assert order.index(1) > order.index(0)
        assert order[:3].count(0) >= 2

    def test_exception_propagates(self):
        engine = SimEngine(SimConfig(nranks=3))

        def program(ctx):
            if ctx.rank == 1:
                raise RuntimeError("boom from rank 1")
            ctx.engine.checkpoint(ctx.rank)

        with pytest.raises(RuntimeError, match="boom from rank 1"):
            engine.run(program)

    def test_deadlock_detected(self):
        engine = SimEngine(SimConfig(nranks=2))

        def program(ctx):
            # both ranks wait for a condition nobody ever makes true
            ctx.engine.wait_until(ctx.rank, lambda: False, "never")

        with pytest.raises(DeadlockError) as exc:
            engine.run(program)
        assert set(exc.value.states) == {0, 1}
        assert "never" in next(iter(exc.value.states.values()))

    def test_wait_until_unblocks_on_state_change(self):
        engine = SimEngine(SimConfig(nranks=2))
        box: list[int] = []

        def program(ctx):
            if ctx.rank == 0:
                ctx.engine.advance(0, 1e-3)
                ctx.engine.checkpoint(0)
                box.append(99)
                ctx.engine.checkpoint(0)
            else:
                ctx.engine.wait_until(1, lambda: bool(box), "waiting")
                return box[0]

        results = engine.run(program)
        assert results[1] == 99

    def test_engine_runs_once_only(self):
        engine = SimEngine(SimConfig(nranks=1))
        engine.run(lambda ctx: None)
        with pytest.raises(SimulationError):
            engine.run(lambda ctx: None)

    def test_context_service_attribute_access(self):
        engine = SimEngine(SimConfig(nranks=1))

        def services(ctx):
            return {"gadget": 123}

        def program(ctx):
            assert ctx.gadget == 123
            with pytest.raises(AttributeError):
                _ = ctx.missing
            return "ok"

        assert engine.run(program, services) == ["ok"]

    def test_scheduled_callbacks_fire_in_time_order(self):
        engine = SimEngine(SimConfig(nranks=1))
        fired: list[tuple[str, float]] = []
        engine.schedule(2e-6, lambda t: fired.append(("b", t)))
        engine.schedule(1e-6, lambda t: fired.append(("a", t)))
        engine.schedule(1e-6, lambda t: fired.append(("a2", t)))

        def program(ctx):
            ctx.engine.advance(0, 5e-6)
            ctx.engine.checkpoint(0)
            return list(fired)

        (seen,) = engine.run(program)
        # equal times fire in registration order; nothing fires before
        # some rank's clock reaches the callback time
        assert seen == [] or seen == fired
        assert fired == [("a", 1e-6), ("a2", 1e-6), ("b", 2e-6)]

    def test_scheduled_callback_interleaves_with_rank_steps(self):
        engine = SimEngine(SimConfig(nranks=1))
        log: list[str] = []
        engine.schedule(1.5e-6, lambda t: log.append("cb"))

        def program(ctx):
            for i in range(3):
                ctx.engine.advance(0, 1e-6)
                ctx.engine.checkpoint(0)
                log.append(f"step{i}")

        engine.run(program)
        # the callback lands after the step that crossed t=1.5us was
        # granted, but before the next step runs
        assert log.index("cb") < log.index("step2")

    def test_scheduled_callback_can_unblock_a_rank(self):
        engine = SimEngine(SimConfig(nranks=1))
        box: list[int] = []
        engine.schedule(1e-6, lambda t: box.append(7))

        def program(ctx):
            ctx.engine.advance(0, 2e-6)
            ctx.engine.wait_until(0, lambda: bool(box), "box")
            return box[0]

        assert engine.run(program) == [7]

    def test_scheduled_callback_failure_propagates(self):
        engine = SimEngine(SimConfig(nranks=2))

        def bomb(t):
            raise RuntimeError("scheduled boom")

        engine.schedule(1e-6, bomb)

        def program(ctx):
            ctx.engine.advance(ctx.rank, 5e-6)
            ctx.engine.checkpoint(ctx.rank)

        with pytest.raises(RuntimeError, match="scheduled boom"):
            engine.run(program)

    def test_per_rank_rng_deterministic(self):
        def program(ctx):
            return int(ctx.rng.integers(0, 10_000))

        a = SimEngine(SimConfig(nranks=3, seed=11)).run(program)
        b = SimEngine(SimConfig(nranks=3, seed=11)).run(program)
        c = SimEngine(SimConfig(nranks=3, seed=12)).run(program)
        assert a == b
        assert a != c

    def test_equal_times_resume_lower_rank_first(self):
        """Ties on true time go to the lower rank, whatever the push order."""
        order: list[int] = []
        engine = SimEngine(SimConfig(nranks=4))

        def program(ctx):
            # stagger so ranks reach the common time in reverse order
            ctx.engine.advance(ctx.rank, (10 - ctx.rank) * 1e-6)
            ctx.engine.checkpoint(ctx.rank)
            ctx.clock.sync_to(100e-6)
            ctx.engine.checkpoint(ctx.rank)
            order.append(ctx.rank)

        engine.run(program)
        assert order == [0, 1, 2, 3]

    def test_predicate_sees_rank_unblocked_in_same_dispatch(self):
        """Blocked predicates run in rank order, each seeing the last."""
        engine = SimEngine(SimConfig(nranks=3))
        flag: list[bool] = []
        seen: list[str] = []

        def rank1_was_ready():
            # latches: rank 1 is READY only within the dispatch that
            # unblocked it, before it is resumed and runs to completion
            seen.append(engine.rank_status(1)[0])
            return RANK_READY in seen

        def program(ctx):
            if ctx.rank == 0:
                ctx.engine.advance(0, 1e-6)
                ctx.engine.checkpoint(0)   # ranks 1 and 2 block meanwhile
                flag.append(True)
                ctx.engine.checkpoint(0)
            elif ctx.rank == 1:
                ctx.engine.wait_until(1, lambda: bool(flag), "flag")
            else:
                ctx.engine.wait_until(2, rank1_was_ready, "rank 1 ready")

        engine.run(program)
        assert RANK_READY in seen

    def test_raising_predicate_ends_run(self):
        engine = SimEngine(SimConfig(nranks=3))
        calls = [0]

        def predicate():
            calls[0] += 1
            if calls[0] > 1:
                raise ValueError("predicate boom")
            return False

        def program(ctx):
            if ctx.rank == 1:
                ctx.engine.wait_until(1, predicate, "boom")
            for _ in range(3):
                ctx.engine.advance(ctx.rank, 1e-6)
                ctx.engine.checkpoint(ctx.rank)

        outcome = run_bounded(engine, program)
        assert isinstance(outcome, ValueError)
        assert str(outcome) == "predicate boom"

    def test_rank_failure_beats_blocked_and_undispatched_ranks(self):
        """Rank 0 is blocked and ranks 2-3 never ran when rank 1 raises."""
        engine = SimEngine(SimConfig(nranks=4))

        def program(ctx):
            if ctx.rank == 0:
                ctx.engine.wait_until(0, lambda: False, "never")
            elif ctx.rank == 1:
                raise RuntimeError("boom from rank 1")
            ctx.engine.checkpoint(ctx.rank)

        outcome = run_bounded(engine, program)
        assert type(outcome) is RuntimeError
        assert str(outcome) == "boom from rank 1"

    def test_rank_swallowing_abort_still_ends_run(self):
        engine = SimEngine(SimConfig(nranks=2))

        def program(ctx):
            if ctx.rank == 1:
                raise RuntimeError("boom")
            ctx.engine.advance(0, 1e-6)
            for _ in range(3):
                try:
                    ctx.engine.checkpoint(0)
                except SimulationError:
                    pass

        outcome = run_bounded(engine, program)
        assert type(outcome) is RuntimeError
