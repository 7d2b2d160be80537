"""Deterministic cooperative multi-rank simulator.

Each simulated MPI rank runs as an OS thread, but only one thread executes
at a time and control transfers happen at well-defined *checkpoints*
(every traced I/O or communication operation).  The scheduler always
resumes the runnable rank with the smallest ``(virtual time, rank)`` key,
so a given program + seed yields a bit-identical execution, timestamps
included — which is what makes trace-analysis results reproducible and
testable.

Runnable ranks wait in a heap keyed ``(true time, rank)``, which stays
valid because only the running rank moves its own clock.  Blocked ranks
form a set whose wait predicates every dispatch polls in ascending rank
order.  Each rank waits on its own pre-acquired lock, which the
dispatcher releases to hand it control.
"""

from repro.sim.clock import RankClock
from repro.sim.engine import SimConfig, SimEngine, RankContext

__all__ = ["RankClock", "SimConfig", "SimEngine", "RankContext"]
