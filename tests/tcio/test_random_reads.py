"""Property test: arbitrary lazy-read patterns return exact file bytes."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.simmpi import DOUBLE, INT, run_mpi
from repro.tcio import TCIO_RDONLY, TcioConfig, TcioFile
from tests.conftest import make_test_cluster

FILE_BYTES = 2048
PAD = 5  # bytes around a memoryview slice that must stay untouched

#: Destination kinds: the fast path (a 1-D "B" memoryview slice) and every
#: kind that still goes through the checked cast.
KINDS = ("bytearray", "slice", "int32", "float64", "2d")


def reference() -> bytes:
    return bytes((i * 131 + 7) % 251 for i in range(FILE_BYTES))


@st.composite
def read_plans(draw):
    """Per-rank lists of (offset, length, kind) reads, any order, any
    overlap, into any destination kind."""
    nprocs = draw(st.integers(1, 4))
    plans = []
    for _ in range(nprocs):
        n = draw(st.integers(1, 10))
        plan = []
        for _ in range(n):
            off = draw(st.integers(0, FILE_BYTES - 1))
            ln = draw(st.integers(1, min(200, FILE_BYTES - off)))
            kind = draw(st.sampled_from(KINDS))
            if kind in ("int32", "float64") and ln < 8:
                kind = "bytearray"
            plan.append((off, ln, kind))
        plans.append(plan)
    return plans


def make_dest(ln, kind):
    """(target, count, datatype, bytes the read fills, view of the filled
    bytes, check-that-nothing-else-changed)."""
    if kind == "bytearray":
        buf = bytearray(ln)
        return buf, None, None, ln, lambda: bytes(buf), lambda: True
    if kind == "slice":
        big = bytearray(b"\xee" * (ln + 2 * PAD))
        return (
            memoryview(big)[PAD : PAD + ln],
            None,
            None,
            ln,
            lambda: bytes(big[PAD : PAD + ln]),
            lambda: big[:PAD] + big[PAD + ln :] == b"\xee" * (2 * PAD),
        )
    if kind == "2d":
        rows = 2 if ln % 2 == 0 else 1
        buf = bytearray(ln)
        view = memoryview(buf).cast("B", (rows, ln // rows))
        return view, None, None, ln, lambda: bytes(buf), lambda: True
    dtype, datatype = (np.int32, INT) if kind == "int32" else (np.float64, DOUBLE)
    size = np.dtype(dtype).itemsize
    count = ln // size
    # One spare element past the counted ones must keep its sentinel.
    arr = np.zeros(count + 1, dtype=dtype)
    arr.view(np.uint8)[:] = 0xEE
    n = count * size
    return (
        arr,
        count,
        datatype,
        n,
        lambda: arr.tobytes()[:n],
        lambda: arr.tobytes()[n:] == b"\xee" * size,
    )


class TestRandomLazyReads:
    @settings(max_examples=15, deadline=None)
    @given(read_plans(), st.sampled_from([64, 256]), st.sampled_from([1, 4, 64]))
    def test_any_pattern_matches_reference(self, plans, segment, window):
        data = reference()

        def seed(pfs):
            pfs.create("f").write_bytes(0, data)

        def main(env):
            cfg = TcioConfig(
                segment_size=segment,
                segments_per_process=-(-FILE_BYTES // (segment * env.size)) + 1,
                read_window_segments=window,
            )
            fh = (yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg))
            reads = []
            for off, ln, kind in plans[env.rank]:
                dest, count, datatype, n, got, untouched = make_dest(ln, kind)
                if count is None:
                    assert (yield from fh.read_at(off, dest)) == n
                else:
                    assert (yield from fh.read_at(off, dest, count, datatype)) == n
                reads.append((off, n, kind, got, untouched))
            (yield from fh.fetch())
            (yield from fh.close())
            for off, n, kind, got, untouched in reads:
                assert got() == data[off : off + n], (env.rank, off, n, kind)
                assert untouched(), (env.rank, off, n, kind)
            # Rank-side counters equal the plan.
            planned = sum(n for _, n, _, _, _ in reads)
            assert (fh.read_calls, fh.read_bytes) == (len(reads), planned)
            assert fh.stats.value("read_calls") == len(reads)
            assert fh.stats.value("read_bytes") == planned

        run_mpi(len(plans), main, cluster=make_test_cluster(), pfs_init=seed)
