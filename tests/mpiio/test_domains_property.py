"""Property tests for the file-domain partition (two-phase core math)."""

import pytest
from hypothesis import given, strategies as st

from repro.mpiio.twophase import FileDomains
from repro.util.errors import MpiIoError
from repro.util.intervals import Extent


@st.composite
def regions(draw):
    gmin = draw(st.integers(0, 10_000))
    length = draw(st.integers(0, 10_000))
    naggs = draw(st.integers(1, 64))
    align = draw(st.sampled_from([1, 1, 16, 64, 1024]))
    return gmin, gmin + length, naggs, align


class TestFileDomainProperties:
    @given(regions())
    def test_domains_partition_the_region(self, region):
        gmin, gmax, naggs, align = region
        d = FileDomains(gmin, gmax, naggs, align)
        total = sum(d.domain(a).length for a in range(naggs))
        assert total == gmax - gmin
        pos = gmin
        for a in range(naggs):
            dom = d.domain(a)
            assert dom.start == pos
            pos = dom.stop
        assert pos == gmax

    @given(regions(), st.data())
    def test_owner_of_matches_domains(self, region, data):
        gmin, gmax, naggs, align = region
        if gmax == gmin:
            return
        d = FileDomains(gmin, gmax, naggs, align)
        offset = data.draw(st.integers(gmin, gmax - 1))
        owner = d.owner_of(offset)
        assert d.domain(owner).contains(offset)

    @given(regions(), st.data())
    def test_split_covers_any_extent(self, region, data):
        gmin, gmax, naggs, align = region
        if gmax == gmin:
            return
        d = FileDomains(gmin, gmax, naggs, align)
        lo = data.draw(st.integers(gmin, gmax - 1))
        hi = data.draw(st.integers(lo + 1, gmax))
        pieces = d.split(Extent(lo, hi))
        assert sum(p.length for _, p in pieces) == hi - lo
        pos = lo
        for agg, piece in pieces:
            assert piece.start == pos
            assert d.domain(agg).covers(piece)
            pos = piece.stop

    @given(regions())
    def test_aligned_interior_bounds(self, region):
        gmin, gmax, naggs, align = region
        d = FileDomains(gmin, gmax, naggs, align)
        if align > 1:
            for b in d.bounds[1:-1]:
                assert (b - gmin) % align == 0 or b == gmax

    @given(st.integers(0, 1000), st.integers(1, 40))
    def test_unaligned_domains_differ_by_at_most_one(self, total, naggs):
        d = FileDomains(0, total, naggs, align=1)
        lengths = [d.domain(a).length for a in range(naggs)]
        assert max(lengths) - min(lengths) <= 1


def oracle_split(d, extent):
    """Find each byte's domain by scanning every domain, then merge runs."""
    out = []
    for byte in range(extent.start, extent.stop):
        (agg,) = [a for a in range(d.naggs) if d.domain(a).contains(byte)]
        assert d.owner_of(byte) == agg
        if out and out[-1][0] == agg:
            out[-1][2] = byte + 1
        else:
            out.append([agg, byte, byte + 1])
    return [(agg, Extent(lo, hi)) for agg, lo, hi in out]


@st.composite
def small_domains(draw):
    """Regions cut into small domains, so extents often cross several, and
    alignments larger than a domain, so some aligned domains are empty."""
    gmin = draw(st.integers(0, 50))
    naggs = draw(st.integers(1, 12))
    length = draw(st.integers(1, 12 * naggs))
    align = draw(st.sampled_from([1, 1, 2, 5, 16, 64]))
    return FileDomains(gmin, gmin + length, naggs, align)


class TestSplitMatchesByteOracle:
    @given(small_domains(), st.data())
    def test_split_matches_oracle(self, d, data):
        lo = data.draw(st.integers(d.gmin, d.gmax - 1))
        hi = data.draw(st.integers(lo, d.gmax))
        assert d.split(Extent(lo, hi)) == oracle_split(d, Extent(lo, hi))

    @given(small_domains(), st.data())
    def test_extent_ending_at_gmax(self, d, data):
        lo = data.draw(st.integers(d.gmin, d.gmax - 1))
        ext = Extent(lo, d.gmax)
        pieces = d.split(ext)
        assert pieces == oracle_split(d, ext)
        assert pieces[-1][1].stop == d.gmax

    @given(small_domains(), st.data())
    def test_extent_inside_one_domain_is_returned_as_is(self, d, data):
        lo = data.draw(st.integers(d.gmin, d.gmax - 1))
        agg = d.owner_of(lo)
        hi = data.draw(st.integers(lo + 1, d.bounds[agg + 1]))
        ext = Extent(lo, hi)
        ((got_agg, piece),) = d.split(ext)
        assert got_agg == agg and piece is ext

    @given(small_domains(), st.data())
    def test_offsets_outside_the_region_raise(self, d, data):
        past = data.draw(st.integers(d.gmax, d.gmax + 20))
        with pytest.raises(MpiIoError):
            d.split(Extent(past, past + data.draw(st.integers(1, 5))))
        inside = data.draw(st.integers(d.gmin, d.gmax - 1))
        with pytest.raises(MpiIoError):
            d.split(Extent(inside, d.gmax + data.draw(st.integers(1, 5))))
        if d.gmin > 0:
            before = data.draw(st.integers(0, d.gmin - 1))
            with pytest.raises(MpiIoError):
                d.split(Extent(before, data.draw(st.integers(before + 1, d.gmax))))

    def test_crossing_several_domains_and_empty_aligned_ones(self):
        d = FileDomains(0, 40, 8, align=16)  # domain size 5, snapped to 16
        assert [d.domain(a).length for a in range(8)] == [16, 0, 0, 16, 0, 0, 8, 0]
        # cuts land only on nonempty domains; the empty ones are skipped
        assert d.split(Extent(3, 40)) == [
            (0, Extent(3, 16)),
            (3, Extent(16, 32)),
            (6, Extent(32, 40)),
        ]
