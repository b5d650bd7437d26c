"""Equations (1)-(3) and the segment mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tcio import TCIO_RDONLY, TCIO_WRONLY, TcioConfig, TcioFile
from repro.tcio.mapping import SegmentMapping
from repro.util.errors import TcioError
from tests.conftest import run_small


class TestEquations:
    """The paper's worked structure: offsets map round-robin over ranks."""

    def test_equation_1_rank(self):
        m = SegmentMapping(segment_size=100, nranks=4)
        assert [m.rank_of(o) for o in (0, 100, 200, 300, 400)] == [0, 1, 2, 3, 0]

    def test_equation_2_segment(self):
        m = SegmentMapping(segment_size=100, nranks=4)
        assert m.segment_of(0) == 0
        assert m.segment_of(399) == 0
        assert m.segment_of(400) == 1
        assert m.segment_of(850) == 2

    def test_equation_3_disp(self):
        m = SegmentMapping(segment_size=100, nranks=4)
        assert m.disp_of(0) == 0
        assert m.disp_of(123) == 23
        assert m.disp_of(999) == 99

    def test_single_rank_owns_everything(self):
        m = SegmentMapping(segment_size=10, nranks=1)
        assert all(m.rank_of(o) == 0 for o in range(0, 100, 7))

    def test_negative_offset_rejected(self):
        m = SegmentMapping(10, 2)
        with pytest.raises(TcioError):
            m.rank_of(-1)

    def test_validation(self):
        with pytest.raises(TcioError):
            SegmentMapping(0, 1)
        with pytest.raises(TcioError):
            SegmentMapping(10, 0)


class TestDerived:
    def test_inverse_mapping(self):
        m = SegmentMapping(segment_size=100, nranks=4)
        assert m.file_offset(rank=2, slot=1, disp=30) == (1 * 4 + 2) * 100 + 30

    def test_inverse_validation(self):
        m = SegmentMapping(100, 4)
        with pytest.raises(TcioError):
            m.file_offset(4, 0, 0)
        with pytest.raises(TcioError):
            m.file_offset(0, 0, 100)
        with pytest.raises(TcioError):
            m.file_offset(0, -1, 0)

    def test_segment_extent(self):
        m = SegmentMapping(100, 4)
        e = m.segment_extent(3)
        assert (e.start, e.stop) == (300, 400)

class TestMappingProperties:
    @given(st.integers(0, 10**7), st.integers(1, 1 << 20), st.integers(1, 1024))
    def test_bijection(self, offset, segment_size, nranks):
        m = SegmentMapping(segment_size, nranks)
        rank = m.rank_of(offset)
        slot = m.segment_of(offset)
        disp = m.disp_of(offset)
        assert 0 <= rank < nranks
        assert 0 <= disp < segment_size
        assert m.file_offset(rank, slot, disp) == offset

    @given(st.integers(1, 100), st.integers(1, 32))
    def test_round_robin_balance(self, nsegs_per_rank, nranks):
        """Consecutive segments distribute perfectly evenly over ranks."""
        m = SegmentMapping(10, nranks)
        counts = [0] * nranks
        for g in range(nsegs_per_rank * nranks):
            counts[m.owner_of_segment(g)] += 1
        assert counts == [nsegs_per_rank] * nranks


def _round_trip(nranks, segment, writes, reads, file_bytes=1024):
    """Rank 0 writes *writes* ((offset, payload) pairs) and closes; then
    rank 0 records *reads* ((offset, length) pairs) and fetches.

    Returns (dirty segments after the write, the read log's
    ``{gseg: [(disp, length), ...]}`` before the fetch, the bytes read).
    """
    cfg = TcioConfig(
        segment_size=segment,
        segments_per_process=-(-file_bytes // (segment * nranks)),
    )

    def main(env):
        fh = yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg)
        if env.rank == 0:
            for offset, payload in writes:
                yield from fh.write_at(offset, payload)
        yield from fh.close()
        dirty = sorted(fh.directory.dirty)
        fh = yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg)
        bufs = []
        if env.rank == 0:
            for offset, length in reads:
                bufs.append(bytearray(length))
                yield from fh.read_at(offset, bufs[-1])
        pieces = {
            g: [(d, n) for d, n, _ in bucket]
            for g, bucket in fh.readlog.segments.items()
        }
        yield from fh.fetch()
        yield from fh.close()
        return dirty, pieces, [bytes(b) for b in bufs]

    return run_small(nranks, main).returns[0]


class TestSubdivision:
    """The subdivision rule through the API: "If a combined data block
    were larger than the size of one level-2 buffer segment, it has to be
    subdivided and placed in different segments"."""

    def test_straddling_request_splits_at_segment_boundaries(self):
        payload = bytes(i % 251 for i in range(200))
        dirty, pieces, [got] = _round_trip(
            2, 100, [(150, payload)], [(150, 200)]  # spans segments 1, 2, 3
        )
        # Segments 1 and 3 live on rank 1, segment 2 on rank 0 (eq. (1)).
        assert dirty == [1, 2, 3]
        assert pieces == {1: [(50, 50)], 2: [(0, 100)], 3: [(0, 50)]}
        assert got == payload

    def test_request_within_one_segment_is_one_piece(self):
        dirty, pieces, [got] = _round_trip(
            2, 100, [(210, b"z" * 50)], [(210, 50)]
        )
        assert dirty == [2]
        assert pieces == {2: [(10, 50)]}
        assert got == b"z" * 50

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 500), st.integers(1, 64), st.integers(1, 4), st.data())
    def test_straddling_round_trip_matches_reference(
        self, offset, segment, nranks, data
    ):
        # At least three segments' worth, so the block straddles >= 3.
        length = data.draw(st.integers(2 * segment + 1, 3 * segment + 40))
        payload = bytes((offset + i) % 251 for i in range(length))
        cut = data.draw(st.integers(0, length))
        dirty, pieces, got = _round_trip(
            nranks,
            segment,
            [(offset, payload)],
            [(offset, cut), (offset + cut, length - cut)],
            file_bytes=offset + length,
        )
        first, last = offset // segment, (offset + length - 1) // segment
        assert last - first >= 2
        assert dirty == list(range(first, last + 1))
        assert sorted(pieces) == dirty
        assert sum(n for bucket in pieces.values() for _, n in bucket) == length
        assert all(d + n <= segment for bucket in pieces.values() for d, n in bucket)
        assert b"".join(got) == payload
