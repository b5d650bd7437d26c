"""Two-phase collective I/O (OCIO) tests: domains, exchange, correctness."""

import pytest

from repro.mpiio import IoHints, MODE_CREATE, MODE_RDWR, MpiFile
from repro.mpiio.twophase import FileDomains, _assemble
from repro.simmpi import collectives as coll
from repro.simmpi.datatypes import BYTE, Contiguous
from repro.util.errors import MpiIoError
from repro.util.intervals import Extent
from tests.conftest import run_small as run


class TestFileDomains:
    def test_equal_division(self):
        d = FileDomains(0, 100, 4)
        assert [d.domain(i) for i in range(4)] == [
            Extent(0, 25),
            Extent(25, 50),
            Extent(50, 75),
            Extent(75, 100),
        ]

    def test_remainder_goes_to_first_domains(self):
        d = FileDomains(0, 10, 3)
        assert [d.domain(i).length for i in range(3)] == [4, 3, 3]

    def test_owner_of(self):
        d = FileDomains(0, 100, 4)
        assert d.owner_of(0) == 0
        assert d.owner_of(24) == 0
        assert d.owner_of(25) == 1
        assert d.owner_of(99) == 3
        with pytest.raises(MpiIoError):
            d.owner_of(100)

    def test_split_cuts_at_boundaries(self):
        d = FileDomains(0, 100, 4)
        assert d.split(Extent(20, 60)) == [
            (0, Extent(20, 25)),
            (1, Extent(25, 50)),
            (2, Extent(50, 60)),
        ]

    def test_aligned_division_snaps_to_units(self):
        d = FileDomains(0, 100, 4, align=32)
        bounds = d.bounds
        assert bounds[0] == 0 and bounds[-1] == 100
        for b in bounds[1:-1]:
            assert b % 32 == 0

    def test_aligned_domains_may_be_empty(self):
        d = FileDomains(0, 64, 4, align=32)
        lengths = [d.domain(i).length for i in range(4)]
        assert sum(lengths) == 64
        assert 0 in lengths


class TestCollectiveWrite:
    def test_interleaved_pattern_lands_correctly(self):
        def main(env):
            etype = Contiguous(4, BYTE)
            ft = etype.vector(4, 1, env.size)
            fh = (yield from MpiFile.open(env, "f"))
            (yield from fh.set_view(env.rank * 4, etype, ft))
            (yield from fh.write_all(bytes([65 + env.rank]) * 16))
            (yield from fh.close())

        res = run(4, main)
        expected = b"".join(bytes([65 + r]) * 4 for r in range(4)) * 4
        assert res.pfs.lookup("f").contents() == expected

    def test_unaligned_domains_also_correct(self):
        hints = IoHints(cb_align_stripes=False)

        def main(env):
            etype = Contiguous(4, BYTE)
            ft = etype.vector(4, 1, env.size)
            fh = (yield from MpiFile.open(env, "f", MODE_RDWR | MODE_CREATE, hints))
            (yield from fh.set_view(env.rank * 4, etype, ft))
            (yield from fh.write_all(bytes([65 + env.rank]) * 16))
            (yield from fh.close())

        res = run(3, main)
        expected = b"".join(bytes([65 + r]) * 4 for r in range(3)) * 4
        assert res.pfs.lookup("f").contents() == expected

    def test_reduced_aggregator_count(self):
        hints = IoHints(cb_nodes=2)

        def main(env):
            fh = (yield from MpiFile.open(env, "f", MODE_RDWR | MODE_CREATE, hints))
            (yield from fh.write_at_all(env.rank * 8, bytes([env.rank]) * 8))
            (yield from fh.close())

        res = run(4, main)
        expected = b"".join(bytes([r]) * 8 for r in range(4))
        assert res.pfs.lookup("f").contents() == expected

    def test_holes_in_aggregate_region_preserved(self):
        def main(env):
            f = env.pfs.create("f")
            if env.rank == 0:
                f.write_bytes(0, b"?" * 64)
            (yield from coll.barrier(env.comm))
            fh = (yield from MpiFile.open(env, "f", MODE_RDWR))
            # ranks write disjoint pieces far apart; the gap must survive
            (yield from fh.write_at_all(env.rank * 40, bytes([65 + env.rank]) * 8))
            (yield from fh.close())

        res = run(2, main)
        data = res.pfs.lookup("f").contents()
        assert data[0:8] == b"A" * 8
        assert data[40:48] == b"B" * 8
        assert data[8:40] == b"?" * 32  # untouched hole

    def test_ranks_with_no_data_still_participate(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f"))
            payload = bytes([env.rank]) * 8 if env.rank < 2 else b""
            (yield from fh.write_at_all(env.rank * 8, payload))
            (yield from fh.close())

        res = run(4, main)
        assert res.pfs.lookup("f").contents() == bytes([0] * 8 + [1] * 8)

    def test_all_empty_write_is_a_noop(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f"))
            (yield from fh.write_at_all(0, b""))
            (yield from fh.close())

        res = run(3, main)
        assert res.pfs.lookup("f").size == 0

    def test_aggregators_issue_one_large_write_each(self):
        def main(env):
            etype = Contiguous(4, BYTE)
            ft = etype.vector(8, 1, env.size)
            fh = (yield from MpiFile.open(env, "f"))
            (yield from fh.set_view(env.rank * 4, etype, ft))
            (yield from fh.write_all(bytes([env.rank]) * 32))
            (yield from fh.close())

        res = run(4, main)
        total_writes = sum(o.write_requests for o in res.pfs.osts)
        # the aggregation effect: far fewer storage writes than the 32
        # noncontiguous application blocks
        assert total_writes <= 4


class TestCollectiveRead:
    def test_round_trip(self):
        def main(env):
            etype = Contiguous(4, BYTE)
            ft = etype.vector(4, 1, env.size)
            fh = (yield from MpiFile.open(env, "f"))
            (yield from fh.set_view(env.rank * 4, etype, ft))
            payload = bytes([65 + env.rank]) * 16
            (yield from fh.write_all(payload))
            got = (yield from fh.read_at_all(0, 4, etype))
            (yield from fh.close())
            assert got == payload

        run(4, main)

    def test_read_all_with_empty_request(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f"))
            (yield from fh.write_at_all(env.rank * 4, bytes([env.rank]) * 4))
            if env.rank == 0:
                got = (yield from fh.read_at_all(0, 0))
                assert got == b""
            else:
                got = (yield from fh.read_at_all((env.rank - 1) * 4, 4))
                assert got == bytes([env.rank - 1]) * 4
            (yield from fh.close())

        run(3, main)

    def test_read_all_uses_few_storage_requests(self):
        def write_then_read(collective):
            def main(env):
                etype = Contiguous(4, BYTE)
                ft = etype.vector(8, 1, env.size)
                fh = (yield from MpiFile.open(env, "f"))
                (yield from fh.set_view(env.rank * 4, etype, ft))
                (yield from fh.write_all(bytes([env.rank]) * 32))
                (yield from coll.barrier(env.comm))
                before = sum(o.read_requests for o in env.pfs.osts)
                if collective:
                    (yield from fh.read_at_all(0, 8, etype))
                else:
                    (yield from fh.read_at(0, 8, etype))
                (yield from fh.close())
                return sum(o.read_requests for o in env.pfs.osts) - before

            res = run(4, main)
            return sum(res.returns)

        assert write_then_read(True) <= write_then_read(False)


def _blocks12(rank, size):
    """Fig. 2's view with 12-byte blocks: under unaligned domains and
    cb_nodes=5, pieces straddle the domain boundaries."""
    etype = Contiguous(12, BYTE)
    return rank * 12, etype, etype.vector(6, 1, size)


def _payload(rank, nbytes):
    return bytes((rank * 31 + i) % 251 + 1 for i in range(nbytes))


class TestReadAssembly:
    """read_all places reply blocks at the buffer offsets recorded while
    planning the requests, including pieces cut at domain boundaries."""

    @pytest.mark.parametrize(
        "hints",
        [
            IoHints(cb_align_stripes=False, cb_nodes=5),
            IoHints(cb_aggregation="node", cb_align_stripes=False, cb_nodes=5),
        ],
        ids=["flat", "node"],
    )
    def test_straddling_pieces_round_trip(self, hints):
        def main(env):
            fh = (yield from MpiFile.open(env, "f", MODE_RDWR | MODE_CREATE, hints))
            (yield from fh.set_view(*_blocks12(env.rank, env.size)))
            (yield from fh.write_all(_payload(env.rank, 72)))
            whole = (yield from fh.read_at_all(0, 6, Contiguous(12, BYTE)))
            part = (yield from fh.read_at_all(1, 3, Contiguous(12, BYTE)))
            (yield from fh.close())
            return whole, part

        res = run(8, main)
        for rank, (whole, part) in enumerate(res.returns):
            assert whole == _payload(rank, 72)
            assert part == _payload(rank, 72)[12:48]

    def test_missing_reply_block_is_an_error(self):
        # One block came back for two planned placements: fail loudly
        # rather than leave the second placement zero-filled.
        with pytest.raises(ValueError):
            _assemble(4, [(0, [(0, b"ab")])], {0: [0, 2]})
