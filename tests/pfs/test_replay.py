"""Integration tests: trace replay closes the predict/observe loop."""

import pytest

import repro
from repro.core.semantics import Semantics
from repro.pfs.config import PFSConfig
from repro.pfs.replay import replay_trace
from repro.posix import flags as F
from tests.conftest import SimHarness


@pytest.fixture(scope="module")
def flash_trace():
    return repro.run("FLASH", io_library="HDF5", nranks=8,
                     options={"steps": 100})


class TestFlashValidation:
    """The §6.3 story, executed: FLASH misbehaves under session
    semantics and is clean under commit semantics."""

    def test_strong_always_clean(self, flash_trace):
        res = replay_trace(flash_trace, PFSConfig(
            semantics=Semantics.STRONG))
        assert res.clean
        assert not res.simulator.nondeterministic_files()

    def test_commit_clean(self, flash_trace):
        res = replay_trace(flash_trace, PFSConfig(
            semantics=Semantics.COMMIT))
        assert res.clean
        assert not res.simulator.nondeterministic_files()

    def test_session_nondeterministic(self, flash_trace):
        res = replay_trace(flash_trace, PFSConfig(
            semantics=Semantics.SESSION))
        nondet = res.simulator.nondeterministic_files()
        assert nondet, "FLASH checkpoint metadata must be hazardous"
        assert all("/flash/" in p for p in nondet)

    def test_session_client_merge_corrupts(self, flash_trace):
        res = replay_trace(flash_trace, PFSConfig(
            semantics=Semantics.SESSION, settle_order="client"))
        assert res.corrupted_files

    def test_fixed_flash_clean_under_session(self):
        """The paper's one-line fix: drop H5Fflush between datasets."""
        trace = repro.run("FLASH", io_library="HDF5", nranks=8,
                          options={"steps": 100,
                                   "flush_between_datasets": False})
        for order in ("close", "client"):
            res = replay_trace(trace, PFSConfig(
                semantics=Semantics.SESSION, settle_order=order))
            assert res.clean
            assert not res.simulator.nondeterministic_files()

    def test_collective_metadata_fix_clean_under_session(self):
        """The other fix: rank 0 performs all metadata I/O."""
        trace = repro.run("FLASH", io_library="HDF5", nranks=8,
                          options={"steps": 100,
                                   "collective_metadata": True})
        res = replay_trace(trace, PFSConfig(semantics=Semantics.SESSION,
                                            settle_order="client"))
        # all metadata by one rank: same-process ordering handles it
        assert not res.corrupted_files
        assert not res.simulator.nondeterministic_files()


class TestCleanAppsReplayClean:
    @pytest.mark.parametrize("app,lib", [
        ("HACC-IO", "POSIX"),
        ("Chombo", "HDF5"),
        ("VPIC-IO", "HDF5"),
        ("LAMMPS", "MPI-IO"),
    ])
    def test_conflict_free_apps(self, app, lib):
        trace = repro.run(app, io_library=lib, nranks=8)
        for sem in (Semantics.SESSION, Semantics.COMMIT):
            res = replay_trace(trace, PFSConfig(semantics=sem,
                                                settle_order="client"))
            assert res.clean, (app, lib, sem)
            assert not res.simulator.nondeterministic_files()


class TestSameProcessConflictsAreLocal:
    def test_raw_s_apps_have_no_cross_process_damage(self):
        """pF3D/NWChem read their own writes: fine on any PFS that
        orders a process's own operations."""
        for app in ("pF3D-IO", "NWChem"):
            trace = repro.run(app, nranks=4)
            res = replay_trace(trace, PFSConfig(
                semantics=Semantics.SESSION))
            assert not res.stale_reads, app
            assert not res.simulator.nondeterministic_files()

    def test_burstfs_like_breaks_same_process_waw(self):
        """Without same-process ordering, NWChem's WAW-S corrupts."""
        trace = repro.run("NWChem", nranks=4)
        res = replay_trace(trace, PFSConfig(
            semantics=Semantics.COMMIT, same_process_ordering=False))
        assert res.corrupted_files or res.stale_reads


class TestPerformanceShape:
    def test_strong_slower_than_relaxed(self, flash_trace):
        strong = replay_trace(flash_trace,
                              PFSConfig(semantics=Semantics.STRONG))
        commit = replay_trace(flash_trace,
                              PFSConfig(semantics=Semantics.COMMIT))
        assert strong.makespan > commit.makespan
        assert strong.simulator.mds.lock_requests > 0
        assert commit.simulator.mds.lock_requests == 0


def _put_in_turn(ctx):
    """Each rank opens, writes its own half and closes, one at a time."""
    px = ctx.posix
    for turn in range(ctx.comm.size):
        if turn == ctx.rank:
            fd = px.open("/obj", F.O_WRONLY | F.O_CREAT)
            px.pwrite(fd, 64, 64 * ctx.rank)
            px.close(fd)
        ctx.comm.barrier()


def _overlapping_sessions(ctx):
    """Both ranks open before either closes: two racing PUTs."""
    px = ctx.posix
    fd = px.open("/obj", F.O_WRONLY | F.O_CREAT)
    ctx.comm.barrier()
    px.pwrite(fd, 64, 64 * ctx.rank)
    for turn in range(ctx.comm.size):
        if turn == ctx.rank:
            px.close(fd)
        ctx.comm.barrier()


class TestObjectPut:
    """A PUT writes back the object its session opened on."""

    def _replay(self, program):
        h = SimHarness(nranks=2)
        h.run(program)
        trace = h.trace(app="test")
        res = replay_trace(trace, PFSConfig(semantics=Semantics.OBJECT))
        return repro.analyze(trace).conflicts(Semantics.OBJECT), res

    def test_sessions_in_turn_keep_every_half(self):
        conflicts, res = self._replay(_put_in_turn)
        assert not conflicts
        assert res.corrupted_files == []
        assert res.clean

    def test_overlapping_sessions_lose_an_update(self):
        conflicts, res = self._replay(_overlapping_sessions)
        assert {c.label for c in conflicts} == {"WAW-D"}
        assert res.corrupted_files == ["/obj"]
