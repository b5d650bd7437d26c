"""Level-1 buffer combining and the lazy-read log."""

import pytest
from hypothesis import given, strategies as st

from repro.tcio import TCIO_RDONLY, TcioConfig, TcioFile
from repro.tcio.level1 import Level1Buffer, ReadLog
from repro.util.errors import TcioError
from tests.conftest import run_small


class TestLevel1Buffer:
    def test_place_and_take(self):
        b = Level1Buffer(100)
        b.align(5)
        b.place(10, b"abc")
        b.place(50, b"xy")
        seg, blocks = b.take()
        assert seg == 5
        assert blocks == [(10, 3, b"abc"), (50, 2, b"xy")]
        assert b.empty
        assert b.aligned_segment is None

    def test_adjacent_blocks_merge(self):
        b = Level1Buffer(100)
        b.align(0)
        b.place(0, b"aa")
        b.place(2, b"bb")
        b.place(4, b"cc")
        _, blocks = b.take()
        assert blocks == [(0, 6, b"aabbcc")]

    def test_overlapping_blocks_coalesce_with_last_writer_wins(self):
        b = Level1Buffer(100)
        b.align(0)
        b.place(0, b"aaaa")
        b.place(2, b"BB")
        _, blocks = b.take()
        assert blocks == [(0, 4, b"aaBB")]

    def test_out_of_order_placement_sorts(self):
        b = Level1Buffer(100)
        b.align(0)
        b.place(50, b"late")
        b.place(0, b"early")
        assert [d for d, _ in b.blocks] == [0, 50]

    def test_accepts_only_aligned_segment(self):
        b = Level1Buffer(100)
        assert b.accepts(7)  # unaligned accepts anything
        b.align(7)
        b.place(0, b"x")
        assert b.accepts(7)
        assert not b.accepts(8)

    def test_realign_nonempty_rejected(self):
        b = Level1Buffer(100)
        b.align(1)
        b.place(0, b"x")
        with pytest.raises(TcioError):
            b.align(2)

    def test_place_outside_segment_rejected(self):
        b = Level1Buffer(10)
        b.align(0)
        with pytest.raises(TcioError):
            b.place(8, b"abc")

    def test_place_unaligned_rejected(self):
        b = Level1Buffer(10)
        with pytest.raises(TcioError):
            b.place(0, b"x")

    def test_take_unaligned_rejected(self):
        with pytest.raises(TcioError):
            Level1Buffer(10).take()

    def test_buffered_bytes(self):
        b = Level1Buffer(100)
        b.align(0)
        b.place(0, b"abc")
        b.place(10, b"de")
        assert b.buffered_bytes == 5


def _fetches_after(reads, *, segment=10, window=10):
    """Record *reads* ((offset, length) pairs) on one rank; return the
    handle's fetch count before close and the log's span after the last."""

    def seed(pfs):
        pfs.create("f").write_bytes(0, bytes(256))

    def main(env):
        cfg = TcioConfig(
            segment_size=segment,
            segments_per_process=-(-256 // segment),
            read_window_segments=window // segment,
        )
        fh = yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg)
        for offset, length in reads:
            yield from fh.read_at(offset, bytearray(length))
        span = fh.readlog.domain_span
        fetches = fh.stats.value("fetches")
        yield from fh.close()
        return fetches, span

    return run_small(1, main, pfs_init=seed).returns[0]


class TestReadLog:
    def _record(self, log, offset, length):
        dest = memoryview(bytearray(length))
        log.record(offset, length, dest)
        return dest

    def test_records_and_drains(self):
        log = ReadLog(100, 100)
        a = self._record(log, 0, 10)
        b = self._record(log, 50, 10)
        assert not log.empty
        assert log.domain_span == 60
        requests, segments = log.drain()
        assert requests == 2
        # Both requests sit in segment 0, in record order, unsplit.
        assert [(d, n) for d, n, _ in segments[0]] == [(0, 10), (50, 10)]
        assert segments[0][0][2] is a and segments[0][1][2] is b
        assert log.empty
        assert log.domain_span == 0
        assert log.drain() == (0, {})

    def test_buckets_by_global_segment(self):
        log = ReadLog(100, 10_000)
        self._record(log, 730, 5)
        self._record(log, 120, 5)
        self._record(log, 140, 5)
        _, segments = log.drain()
        assert {g: [(d, n) for d, n, _ in b] for g, b in segments.items()} == {
            7: [(30, 5)],
            1: [(20, 5), (40, 5)],
        }

    def test_straddling_request_splits_in_file_order(self):
        log = ReadLog(100, 10_000)
        dest = memoryview(bytearray(range(200)))
        log.record(150, 200, dest)  # spans segments 1, 2, 3
        requests, segments = log.drain()
        assert requests == 1  # one request, three pieces
        pieces = [(g, d, n, bytes(v)) for g in sorted(segments) for d, n, v in segments[g]]
        assert pieces == [
            (1, 50, 50, bytes(range(0, 50))),
            (2, 0, 100, bytes(range(50, 150))),
            (3, 0, 50, bytes(range(150, 200))),
        ]

    @given(st.integers(0, 10**5), st.integers(1, 5000), st.integers(1, 64))
    def test_pieces_cover_request_exactly(self, offset, length, segment_size):
        log = ReadLog(segment_size, 10**9)
        dest = memoryview(bytearray(length))
        log.record(offset, length, dest)
        _, segments = log.drain()
        pos = offset
        for gseg in sorted(segments):
            [(disp, n, view)] = segments[gseg]
            # Equations (2)-(3) of the piece's first byte, and no piece
            # crosses a segment boundary.
            assert (gseg, disp) == divmod(pos, segment_size)
            assert disp + n <= segment_size and len(view) == n
            pos += n
        assert pos == offset + length

    def test_overflow_detection(self):
        # Window of 100 bytes; reads within it never fetch early.
        assert _fetches_after([(0, 10), (50, 10)], window=100) == (0, 60)
        # Span exactly one window is allowed ...
        assert _fetches_after([(0, 10), (90, 10)], window=100) == (0, 100)
        # ... one byte more triggers a fetch and restarts the span.
        assert _fetches_after([(0, 10), (95, 10)], window=100) == (1, 10)
        # Widening to the left counts the same way.
        assert _fetches_after([(100, 10), (10, 10)], window=100) == (0, 100)
        assert _fetches_after([(100, 10), (9, 10)], window=100) == (1, 10)

    def test_empty_log_never_overflows(self):
        # A single read wider than the window records without a fetch.
        assert _fetches_after([(0, 200)], window=10) == (0, 200)
