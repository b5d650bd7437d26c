"""File views: mapping a linear data stream onto noncontiguous file bytes.

A view is ``(displacement, etype, filetype)``: the file appears to the rank
as the concatenation of the *data* bytes of successive filetype tiles,
starting at byte *displacement*. MPI file offsets count **etypes** within
that stream. ``map_extents`` translates a (stream position, byte count)
pair into the absolute file extents it touches — the single primitive both
independent and collective I/O build on (``map_pieces`` also returns each
extent's offset in the caller's buffer).
"""

from __future__ import annotations

import bisect
from typing import Optional

from repro.simmpi.datatypes import BYTE, Datatype
from repro.util.errors import MpiIoError
from repro.util.intervals import Extent


class FileView:
    """An immutable view; create via :meth:`repro.mpiio.file.MpiFile.set_view`.

    The filetype's segments must be monotone: each starts at or after the
    end of the one before it, at a non-negative offset, and the last ends
    no later than where the next tile's first segment begins. MPI requires
    nondecreasing filetype displacements, and the two-phase planner relies
    on it (a rank's extents come back in ascending file order, so the first
    and last bound its access range); a view breaking it raises
    :class:`MpiIoError` naming the offending segment.

    A contiguous filetype (the default ``BYTE`` view included) maps any
    stream range to a single extent in O(1); any other view walks its
    segment table once, doing O(1) work per segment touched and building
    one :class:`Extent` per emitted run.
    """

    def __init__(
        self,
        displacement: int = 0,
        etype: Datatype = BYTE,
        filetype: Optional[Datatype] = None,
    ):
        if displacement < 0:
            raise MpiIoError(f"negative view displacement {displacement}")
        filetype = etype if filetype is None else filetype
        if etype.size <= 0:
            raise MpiIoError("etype must have positive size")
        if filetype.size % etype.size != 0:
            raise MpiIoError(
                f"filetype size {filetype.size} is not a multiple of etype size {etype.size}"
            )
        if filetype.size == 0:
            raise MpiIoError("filetype must contain data")
        self.displacement = displacement
        self.etype = etype
        self.filetype = filetype
        # Segment table of one filetype tile, with cumulative data offsets.
        self._segments = segments = filetype.segments  # ((file_off, length), ...)
        self._cum = cum = [0]
        stop = 0
        for i, (off, length) in enumerate(segments):
            if off < stop:
                raise MpiIoError(
                    f"non-monotone filetype: segment {i} starts at byte {off}, before "
                    + (f"byte {stop} where segment {i - 1} ends" if i else "the tile")
                )
            stop = off + length
            cum.append(cum[-1] + length)
        self._tile_data = cum[-1]  # == filetype.size
        self._tile_extent = filetype.extent
        if stop > self._tile_extent + segments[0][0]:
            raise MpiIoError(
                f"non-monotone filetype: segment {len(segments) - 1} ends at byte "
                f"{stop}, past the next tile's first byte {self._tile_extent + segments[0][0]}"
            )
        self._contiguous = filetype.is_contiguous

    @property
    def is_contiguous(self) -> bool:
        """Whether the view maps the stream to one unbroken byte range."""
        return self._contiguous

    # ------------------------------------------------------------------
    def byte_offset(self, offset_etypes: int) -> int:
        """Stream byte position of an MPI offset (counted in etypes)."""
        if offset_etypes < 0:
            raise MpiIoError(f"negative file offset {offset_etypes}")
        return offset_etypes * self.etype.size

    def map_extents(self, stream_pos: int, nbytes: int) -> list[Extent]:
        """Absolute file extents for stream bytes [stream_pos, +nbytes).

        Extents come back in stream (and so file) order; adjacent-in-file
        extents are merged. Holes in the filetype consume no stream bytes.
        """
        return [ext for ext, _ in self.map_pieces(stream_pos, nbytes)]

    def map_pieces(self, stream_pos: int, nbytes: int) -> list[tuple[Extent, int]]:
        """Like :meth:`map_extents` but each extent carries the offset of its
        first byte *within the request's data buffer* — what scatter/gather
        and two-phase splitting need. Merged extents always map contiguous
        buffer ranges, because merging only happens for stream-consecutive
        pieces."""
        if stream_pos < 0 or nbytes < 0:
            raise MpiIoError(f"bad view range [{stream_pos}, +{nbytes})")
        if nbytes == 0:
            return []
        if self._contiguous:
            start = self.displacement + stream_pos
            return [(Extent(start, start + nbytes), 0)]
        segments = self._segments
        last = len(segments) - 1
        tile_extent = self._tile_extent
        tile, within = divmod(stream_pos, self._tile_data)
        idx = bisect.bisect_right(self._cum, within) - 1
        base = self.displacement + tile * tile_extent
        seg_off, seg_len = segments[idx]
        into = within - self._cum[idx]
        # The open run: file bytes [lo, hi) holding buffer bytes from run_mem.
        lo = base + seg_off + into
        take = min(nbytes, seg_len - into)
        hi = lo + take
        run_mem = 0
        mem = take
        out: list[tuple[Extent, int]] = []
        while mem < nbytes:
            if idx == last:
                idx = 0
                base += tile_extent
            else:
                idx += 1
            seg_off, seg_len = segments[idx]
            start = base + seg_off
            take = seg_len if seg_len < nbytes - mem else nbytes - mem
            if start != hi:
                out.append((Extent(lo, hi), run_mem))
                lo = start
                run_mem = mem
            hi = start + take
            mem += take
        out.append((Extent(lo, hi), run_mem))
        return out

    def map_etype_extents(self, offset_etypes: int, count_etypes: int) -> list[Extent]:
        """map_extents with MPI units: offset and count in etypes."""
        return self.map_extents(
            self.byte_offset(offset_etypes), count_etypes * self.etype.size
        )

    def stream_size_for(self, extent_stop: int) -> int:
        """How many stream bytes map below absolute file offset *extent_stop*
        (used to size reads that must cover a view region)."""
        if extent_stop <= self.displacement:
            return 0
        span = extent_stop - self.displacement
        tiles, rem = divmod(span, self._tile_extent)
        covered = tiles * self._tile_data
        for seg_off, seg_len in self._segments:
            if seg_off >= rem:
                break
            covered += min(seg_len, rem - seg_off)
        return covered

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FileView disp={self.displacement} etype={self.etype.size}B "
            f"tile={self._tile_data}B/{self._tile_extent}B>"
        )
