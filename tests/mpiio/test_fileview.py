"""File view translation tests (the machinery behind Program 2)."""

import pytest
from hypothesis import given, strategies as st

from repro.mpiio.fileview import FileView
from repro.simmpi.datatypes import BYTE, Contiguous, Indexed, INT, Vector
from repro.util.errors import MpiIoError
from repro.util.intervals import Extent


class TestConstruction:
    def test_default_view_is_linear_bytes(self):
        v = FileView()
        assert v.is_contiguous
        assert v.map_extents(3, 5) == [Extent(3, 8)]

    def test_displacement_shifts_everything(self):
        v = FileView(displacement=100)
        assert v.map_extents(0, 10) == [Extent(100, 110)]

    def test_filetype_must_hold_whole_etypes(self):
        with pytest.raises(MpiIoError):
            FileView(etype=INT, filetype=Contiguous(3, BYTE))

    def test_negative_displacement_rejected(self):
        with pytest.raises(MpiIoError):
            FileView(displacement=-1)

    def test_empty_filetype_rejected(self):
        with pytest.raises(MpiIoError):
            FileView(filetype=Contiguous(0, BYTE))


class TestPaperExample:
    """The Fig. 2 view: etype = 12-byte block, filetype = vector stride P."""

    def view(self, rank, nprocs=2, blocks=3):
        etype = Contiguous(12, BYTE)
        filetype = etype.vector(blocks, 1, nprocs)
        return FileView(rank * 12, etype, filetype)

    def test_rank0_blocks(self):
        v = self.view(0)
        assert v.map_etype_extents(0, 3) == [
            Extent(0, 12),
            Extent(24, 36),
            Extent(48, 60),
        ]

    def test_rank1_blocks_interleave(self):
        v = self.view(1)
        assert v.map_etype_extents(0, 3) == [
            Extent(12, 24),
            Extent(36, 48),
            Extent(60, 72),
        ]

    def test_partial_access_spans_tiles(self):
        v = self.view(0)
        # bytes 6..18 of the stream: second half of block 0, first half of block 1
        assert v.map_extents(6, 12) == [Extent(6, 12), Extent(24, 30)]


class TestMapping:
    def test_indexed_filetype(self):
        ft = Indexed([2, 1], [0, 5], BYTE)  # bytes 0-1 and 5
        v = FileView(0, BYTE, ft)
        assert v.map_extents(0, 3) == [Extent(0, 2), Extent(5, 6)]
        # next tile starts at extent 6
        assert v.map_extents(3, 3) == [Extent(6, 8), Extent(11, 12)]

    def test_adjacent_extents_merge(self):
        ft = Vector(2, 1, 1, INT)  # stride == blocklength: contiguous
        v = FileView(0, INT, ft)
        assert v.map_extents(0, 16) == [Extent(0, 16)]

    def test_map_pieces_tracks_buffer_offsets(self):
        ft = Indexed([1, 1], [0, 3], BYTE)
        v = FileView(0, BYTE, ft)
        pieces = v.map_pieces(0, 4)
        # stream bytes 1 and 2 are file-adjacent (tile 0's second segment
        # touches tile 1's first) and stream-consecutive, so they merge
        assert pieces == [
            (Extent(0, 1), 0),
            (Extent(3, 5), 1),
            (Extent(7, 8), 3),
        ]

    def test_rejects_negative_ranges(self):
        v = FileView()
        with pytest.raises(MpiIoError):
            v.map_extents(-1, 4)
        with pytest.raises(MpiIoError):
            v.byte_offset(-1)

    def test_stream_size_for(self):
        etype = Contiguous(4, BYTE)
        ft = etype.vector(2, 1, 2)  # data at [0,4) and [8,12), extent 12
        v = FileView(0, etype, ft)
        assert v.stream_size_for(0) == 0
        assert v.stream_size_for(4) == 4
        assert v.stream_size_for(8) == 4
        assert v.stream_size_for(12) == 8
        assert v.stream_size_for(16) == 12


@st.composite
def views(draw):
    etype_size = draw(st.sampled_from([1, 2, 4]))
    etype = Contiguous(etype_size, BYTE)
    nprocs = draw(st.integers(1, 4))
    blocks = draw(st.integers(1, 5))
    rank = draw(st.integers(0, nprocs - 1))
    ft = etype.vector(blocks, 1, nprocs)
    return FileView(rank * etype_size, etype, ft), blocks * etype_size


class TestViewProperties:
    @given(views(), st.data())
    def test_pieces_conserve_bytes_and_order(self, vw, data):
        view, stream_len = vw
        pos = data.draw(st.integers(0, stream_len - 1))
        ln = data.draw(st.integers(0, stream_len))
        pieces = view.map_pieces(pos, ln)
        assert sum(e.length for e, _ in pieces) == ln
        # file extents strictly increasing; buffer offsets consistent
        expect_mem = 0
        last_stop = -1
        for ext, mem in pieces:
            assert mem == expect_mem
            expect_mem += ext.length
            assert ext.start > last_stop
            last_stop = ext.stop

    @given(views())
    def test_distinct_ranks_views_are_disjoint(self, vw):
        view, stream_len = vw
        # Rebuild views for every rank of the same tiling and check that
        # full-stream extents never overlap across ranks.
        etype = view.etype
        nprocs = view.filetype.stride if hasattr(view.filetype, "stride") else 1
        all_extents = []
        for r in range(nprocs):
            v = FileView(r * etype.size, etype, view.filetype)
            all_extents.extend(v.map_extents(0, stream_len))
        all_extents.sort(key=lambda e: e.start)
        for a, b in zip(all_extents, all_extents[1:]):
            assert a.stop <= b.start


class TestMonotoneViews:
    """MPI requires nondecreasing filetype displacements; the two-phase
    planner takes a rank's first and last extent as its access range."""

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(MpiIoError, match="segment 1 starts at byte 0"):
            FileView(0, BYTE, Indexed([2, 2], [6, 0], BYTE))

    def test_overlapping_segments_rejected(self):
        with pytest.raises(MpiIoError, match="segment 1 starts at byte 2, before byte 3"):
            FileView(0, BYTE, Indexed([3, 2], [0, 2], BYTE))

    def test_negative_segment_offset_rejected(self):
        with pytest.raises(MpiIoError, match="segment 0 starts at byte -2"):
            FileView(8, BYTE, Contiguous(4, BYTE).resized(2, 8))

    def test_tiles_that_overlap_rejected(self):
        # 8 data bytes tiled every 4 bytes: tile 1 would start inside tile 0
        with pytest.raises(MpiIoError, match="next tile"):
            FileView(0, BYTE, Contiguous(8, BYTE).resized(0, 4))

    def test_monotone_views_accepted(self):
        FileView(0, BYTE, Indexed([2, 2], [0, 6], BYTE))
        FileView(0, BYTE, Indexed([2, 2], [0, 2], BYTE))  # touching is fine
        FileView(0, BYTE, Contiguous(4, BYTE).resized(0, 4))

    def test_set_view_rejects_non_monotone_filetype(self):
        from repro.mpiio import MpiFile
        from tests.conftest import run_small

        def main(env):
            fh = yield from MpiFile.open(env, "f")
            try:
                yield from fh.set_view(0, BYTE, Indexed([2, 2], [6, 0], BYTE))
            except MpiIoError as exc:
                return str(exc)
            finally:
                yield from fh.close()

        res = run_small(2, main)
        assert all("non-monotone filetype" in r for r in res.returns)


# ----------------------------------------------------------------------
# differential tests against a per-byte oracle
# ----------------------------------------------------------------------


def oracle_pieces(view, stream_pos, nbytes):
    """Map the stream one byte at a time, then merge file-adjacent bytes."""
    tile_bytes = [off + j for off, ln in view.filetype.segments for j in range(ln)]
    size, extent = view.filetype.size, view.filetype.extent
    out = []
    for mem in range(nbytes):
        tile, within = divmod(stream_pos + mem, size)
        byte = view.displacement + tile * extent + tile_bytes[within]
        if out and out[-1][1] == byte:
            out[-1][1] = byte + 1
        else:
            out.append([byte, byte + 1, mem])
    return [(Extent(lo, hi), mem) for lo, hi, mem in out]


@st.composite
def filetypes(draw):
    """Contiguous, BYTE, Vector, Indexed-with-holes and Resized filetypes."""
    kind = draw(st.sampled_from(["byte", "contig", "vector", "indexed", "resized"]))
    etype = draw(st.sampled_from([BYTE, Contiguous(2, BYTE), INT]))
    if kind == "byte":
        return BYTE, BYTE
    if kind == "contig":
        return etype, Contiguous(draw(st.integers(1, 5)), etype)
    if kind == "vector":
        bl = draw(st.integers(1, 3))
        stride = draw(st.integers(bl, bl + 3))
        return etype, Vector(draw(st.integers(1, 5)), bl, stride, etype)
    if kind == "indexed":
        n = draw(st.integers(1, 4))
        lengths = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if sum(lengths) == 0:
            lengths[0] = 1
        gaps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        disps, pos = [], 0
        for ln, gap in zip(lengths, gaps):
            pos += gap
            disps.append(pos)
            pos += ln
        return etype, Indexed(lengths, disps, etype)
    inner = Indexed([1, 2], [0, 3], etype)
    lb = draw(st.integers(-4, 0))  # shift the data right, never left of 0
    return etype, inner.resized(lb, inner.extent - lb + draw(st.integers(0, 8)))


class TestMappingMatchesByteOracle:
    @given(filetypes(), st.integers(0, 64), st.data())
    def test_map_pieces_and_extents(self, types, displacement, data):
        etype, filetype = types
        view = FileView(displacement, etype, filetype)
        tile = filetype.size
        pos = data.draw(st.integers(0, 4 * tile))
        nbytes = data.draw(st.integers(0, 5 * tile))
        expected = oracle_pieces(view, pos, nbytes)
        pieces = view.map_pieces(pos, nbytes)
        assert pieces == expected
        if view.is_contiguous:
            assert len(pieces) <= 1
        assert view.map_extents(pos, nbytes) == [ext for ext, _ in expected]

