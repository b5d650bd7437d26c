"""Shared pointers, nonblocking I/O, set_size, and rounds-based two-phase."""

import pytest

from repro.mpiio import IoHints, MODE_CREATE, MODE_RDWR, MpiFile
from repro.simmpi import run_mpi
from repro.simmpi import collectives as coll
from repro.simmpi.datatypes import BYTE, Contiguous
from repro.util.errors import MpiIoError
from tests.conftest import make_test_cluster


def run(n, fn, **kw):
    kw.setdefault("cluster", make_test_cluster())
    return run_mpi(n, fn, **kw)


class TestSharedPointer:
    def test_appends_claim_disjoint_regions(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "log"))
            offset = (yield from fh.write_shared(bytes([65 + env.rank]) * 8))
            (yield from fh.close())
            return offset

        res = run(4, main)
        assert sorted(res.returns) == [0, 8, 16, 24]
        data = res.pfs.lookup("log").contents()
        assert len(data) == 32
        # every rank's record is intact somewhere
        for r in range(4):
            assert bytes([65 + r]) * 8 in data

    def test_read_shared_advances(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "log"))
            if env.rank == 0:
                (yield from fh.write_at(0, b"AAAABBBB"))
            (yield from coll.barrier(env.comm))
            off, data = (yield from fh.read_shared(4))
            (yield from fh.close())
            return off, data

        res = run(2, main)
        got = dict(res.returns)
        assert set(got) == {0, 4}
        assert got[0] == b"AAAA" and got[4] == b"BBBB"

    def test_shared_write_needs_whole_etypes(self):
        def main(env):
            from repro.simmpi.datatypes import INT

            fh = (yield from MpiFile.open(env, "log"))
            (yield from fh.set_view(0, INT))
            with pytest.raises(MpiIoError):
                (yield from fh.write_shared(b"xyz"))  # 3 bytes, not a whole INT
            (yield from fh.close())

        run(2, main)


class TestNonblockingIo:
    def test_iwrite_then_wait(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f"))
            req = fh.iwrite_at(env.rank * 4, bytes([env.rank]) * 4)
            assert not req.test()
            (yield from req.wait())
            assert req.test()
            (yield from fh.close())

        res = run(3, main)
        assert res.pfs.lookup("f").contents() == bytes(
            [0] * 4 + [1] * 4 + [2] * 4
        )

    def test_iread_returns_data_at_wait(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f"))
            (yield from fh.write_at(0, b"0123456789"))
            req = fh.iread_at(2, 4)
            assert (yield from req.wait()) == b"2345"
            (yield from fh.close())

        run(1, main)


class TestSizeManagement:
    def test_set_size_truncates(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f"))
            (yield from fh.write_at(0, b"x" * 100))
            (yield from coll.barrier(env.comm))
            (yield from fh.set_size(10))
            assert fh.size_bytes() == 10
            (yield from fh.close())

        run(2, main)

    def test_preallocate_extends_only(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f"))
            (yield from fh.write_at(0, b"abc"))
            (yield from coll.barrier(env.comm))
            (yield from fh.preallocate(50))
            assert fh.size_bytes() == 50
            (yield from fh.preallocate(10))  # never shrinks
            assert fh.size_bytes() == 50
            (yield from fh.close())

        run(2, main)

    def test_negative_sizes_rejected(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f"))
            with pytest.raises(MpiIoError):
                (yield from fh.set_size(-1))
            with pytest.raises(MpiIoError):
                (yield from fh.preallocate(-1))
            (yield from fh.close())

        run(1, main)


class TestRoundsBasedTwoPhase:
    def _write(self, env, hints):
        etype = Contiguous(4, BYTE)
        ft = etype.vector(8, 1, env.size)
        fh = (yield from MpiFile.open(env, "f", MODE_RDWR | MODE_CREATE, hints))
        (yield from fh.set_view(env.rank * 4, etype, ft))
        (yield from fh.write_all(bytes([65 + env.rank]) * 32))
        (yield from fh.close())

    def expected(self, n):
        return b"".join(bytes([65 + r]) * 4 for r in range(n)) * 8

    def test_rounds_produce_identical_file(self):
        def main(env):
            (yield from self._write(env, IoHints(cb_rounds_buffer=8)))

        res = run(4, main)
        assert res.pfs.lookup("f").contents() == self.expected(4)

    @pytest.mark.parametrize("cap", [1, 5, 13, 1 << 20])
    @pytest.mark.parametrize("align", [True, False])
    @pytest.mark.parametrize("cb_nodes", [None, 5])
    def test_any_cap_matches_whole_domain_write(self, cap, align, cb_nodes):
        # Caps that do not divide the 4-byte blocks, and 5 unaligned domains
        # over 8 ranks, cut blocks at round and domain boundaries.
        hints = IoHints(cb_rounds_buffer=cap, cb_align_stripes=align, cb_nodes=cb_nodes)

        def main(env):
            (yield from self._write(env, hints))

        res = run(8, main)
        assert res.pfs.lookup("f").contents() == self.expected(8)

    def test_single_giant_round_matches_default(self):
        def main(env):
            (yield from self._write(env, IoHints(cb_rounds_buffer=1 << 20)))

        res = run(4, main)
        assert res.pfs.lookup("f").contents() == self.expected(4)

    def test_rounds_cap_aggregator_memory(self):
        highs = {}

        def main(env, hints, key):
            (yield from self._write(env, hints))
            highs[key] = env.world.memory.high_water()

        run(4, lambda env: main(env, IoHints(cb_rounds_buffer=8), "rounds"))
        run(4, lambda env: main(env, IoHints(), "whole"))
        assert highs["rounds"] < highs["whole"]

    def test_rounds_with_holes(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f", MODE_RDWR | MODE_CREATE, IoHints(cb_rounds_buffer=6)))
            (yield from fh.write_at_all(env.rank * 40, bytes([65 + env.rank]) * 8))
            (yield from fh.close())

        res = run(2, main)
        data = res.pfs.lookup("f").contents()
        assert data[0:8] == b"A" * 8
        assert data[40:48] == b"B" * 8

    @pytest.mark.parametrize("cap", [3, 7, 40])
    def test_rounds_with_holes_match_whole_domain_write(self, cap):
        def image(hints):
            def main(env):
                fh = (yield from MpiFile.open(env, "f", MODE_RDWR | MODE_CREATE, hints))
                (yield from fh.write_at_all(env.rank * 40 + 3, bytes([65 + env.rank]) * (8 + 5 * env.rank)))
                (yield from fh.close())

            return run(3, main).pfs.lookup("f").contents()

        assert image(IoHints(cb_rounds_buffer=cap)) == image(IoHints())
