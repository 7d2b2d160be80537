"""Property: a synthetic MPI program traces to the same bytes every run.

Hypothesis draws small synthetic MPI programs — deterministic per-rank
operation scripts mixing file I/O, racing O_CREAT opens, point-to-point
sends, ``ANY_SOURCE`` fan-in, rooted collectives, and barriers.  The
same ``(script, seed)`` run twice with clock skew on must produce
identical canonical ``.rtrc`` bytes, whatever program the strategy
produces: ``ANY_SOURCE`` matching and first-create races are decided by
program behaviour, not by how the OS schedules the rank threads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppConfig, run_application
from repro.mpi.comm import ANY_SOURCE, ReduceOp
from repro.tracer import ColumnarTrace, write_rtrc

NRANKS = 8

O_CREAT_RDWR = 64 | 2

#: one drawn integer per slot selects the op each rank performs there
N_SLOTS = 4


def make_program(script):
    """Build a deterministic (ctx, cfg) program from drawn op codes.

    Every op either involves all ranks symmetrically or pairs rank
    ``2k`` with rank ``2k+1``.
    """

    def program(ctx, cfg):
        px, comm, rank = ctx.posix, ctx.comm, ctx.rank
        for slot, op in enumerate(script):
            if op == 0:  # file-per-rank write
                fd = px.open(f"/data/s{slot}-r{rank}.dat", O_CREAT_RDWR)
                px.pwrite(fd, bytes([slot]) * 128, 0)
                px.close(fd)
            elif op == 1:  # racing creates + strided shared writes
                fd = px.open(f"/data/shared-{slot}.dat", O_CREAT_RDWR)
                px.pwrite(fd, bytes([rank]) * 64, 64 * rank)
                px.close(fd)
            elif op == 2:  # neighbor exchange: even sends, odd recvs
                if rank % 2 == 0:
                    comm.send(rank + 1, {"slot": slot, "from": rank})
                else:
                    comm.recv(rank - 1)
            elif op == 3:  # fan-in to rank 0 via ANY_SOURCE
                if rank == 0:
                    for _ in range(cfg.nranks - 1):
                        comm.recv(ANY_SOURCE, tag=slot)
                else:
                    comm.send(0, bytes([rank]), tag=slot)
            elif op == 4:  # rooted collective (rotating root)
                comm.reduce(rank + slot, ReduceOp.SUM,
                            root=slot % cfg.nranks)
            elif op == 5:  # bcast from a fixed non-zero root
                comm.bcast({"slot": slot} if rank == 3 else None, root=3)
            else:  # barrier
                comm.barrier()
            comm.barrier()  # slot boundary keeps scripts deadlock-free

    return program


def setup(fs, cfg):
    fs.makedirs("/data")


scripts = st.lists(st.integers(0, 6), min_size=1, max_size=N_SLOTS)


def rtrc_bytes(script, seed, path):
    cfg = AppConfig(application="synthetic", nranks=NRANKS, seed=seed,
                    clock_skew_us=10.0)
    trace = run_application(cfg, make_program(script), setup=setup)
    write_rtrc(ColumnarTrace.from_trace(trace), path)
    return path.read_bytes()


@given(script=scripts, seed=st.integers(0, 2 ** 16))
@settings(max_examples=12, deadline=None)
def test_same_program_same_rtrc_bytes(script, seed, tmp_path_factory):
    root = tmp_path_factory.mktemp("programs")
    first = rtrc_bytes(script, seed, root / "first.rtrc")
    assert rtrc_bytes(script, seed, root / "second.rtrc") == first
