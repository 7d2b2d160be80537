"""Tests for the rank-thread limit of one engine.

Construction only: ``SimEngine.__init__`` starts no thread, so these
checks build engines at and past the limit without running a rank.
"""

import threading

import pytest

from repro.errors import SimulationError
from repro.sim.engine import MAX_RANK_THREADS, SimConfig, SimEngine


class TestThreadCap:
    def test_cap_is_4096(self):
        assert MAX_RANK_THREADS == 4096

    def test_at_cap_is_allowed(self):
        before = threading.active_count()
        engine = SimEngine(SimConfig(nranks=MAX_RANK_THREADS))
        assert engine.nranks == MAX_RANK_THREADS
        assert threading.active_count() == before

    def test_over_cap_refused_before_any_thread_starts(self):
        before = threading.active_count()
        with pytest.raises(SimulationError) as exc_info:
            SimEngine(SimConfig(nranks=MAX_RANK_THREADS + 1))
        message = str(exc_info.value)
        assert str(MAX_RANK_THREADS + 1) in message
        assert str(MAX_RANK_THREADS) in message
        assert "partition" not in message
        assert threading.active_count() == before
