"""RAID-5 geometry property tests and timing-model behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import DiskParams
from repro.simfs.raid import Raid5Geometry, Raid5Model
from repro.units import KiB


class TestGeometryValidation:
    def test_minimum_drives(self):
        with pytest.raises(ValueError):
            Raid5Geometry(2)

    def test_stripe_width_positive(self):
        with pytest.raises(ValueError):
            Raid5Geometry(4, 0)

    def test_negative_offset_rejected(self):
        g = Raid5Geometry(4)
        with pytest.raises(ValueError):
            g.locate(-1)
        with pytest.raises(ValueError):
            g.map_extent(0, -1)


class TestParityLayout:
    def test_parity_rotates_over_all_drives(self):
        g = Raid5Geometry(5, 64 * KiB)
        drives = {g.parity_drive(row) for row in range(5)}
        assert drives == set(range(5))

    def test_data_never_lands_on_parity_drive(self):
        g = Raid5Geometry(4, 4096)
        for off in range(0, g.data_per_row * 6, 4096):
            drive, _ = g.locate(off)
            row = off // g.data_per_row
            assert drive != g.parity_drive(row)


@st.composite
def geometries(draw):
    n = draw(st.integers(min_value=3, max_value=16))
    width = draw(st.sampled_from([512, 4096, 64 * KiB]))
    return Raid5Geometry(n, width)


class TestMappingProperties:
    @given(g=geometries(), offset=st.integers(0, 2**30), nbytes=st.integers(0, 2**22))
    @settings(max_examples=60, deadline=None)
    def test_extent_partition(self, g, offset, nbytes):
        """Segments tile the logical extent exactly: no gaps, no overlap."""
        segs = g.map_extent(offset, nbytes)
        assert sum(s.nbytes for s in segs) == nbytes
        pos = offset
        for s in segs:
            assert s.logical_offset == pos
            assert s.nbytes > 0
            pos += s.nbytes
        assert pos == offset + nbytes

    @given(g=geometries(), offset=st.integers(0, 2**30), nbytes=st.integers(1, 2**20))
    @settings(max_examples=60, deadline=None)
    def test_segments_agree_with_locate(self, g, offset, nbytes):
        for s in g.map_extent(offset, nbytes):
            drive, drive_off = g.locate(s.logical_offset)
            assert (drive, drive_off) == (s.drive, s.drive_offset)

    @given(g=geometries(), offsets=st.lists(st.integers(0, 2**26), min_size=2, max_size=50, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_distinct_bytes_distinct_locations(self, g, offsets):
        """The logical->physical map is injective."""
        seen = {}
        for off in offsets:
            loc = g.locate(off)
            assert loc not in seen, "bytes %d and %d collide" % (off, seen.get(loc, -1))
            seen[loc] = off

    @given(g=geometries(), offset=st.integers(0, 2**28), nbytes=st.integers(1, 2**22))
    @settings(max_examples=40, deadline=None)
    def test_rows_touched_consistent(self, g, offset, nbytes):
        rows = g.rows_touched(offset, nbytes)
        seg_rows = {s.logical_offset // g.data_per_row for s in g.map_extent(offset, nbytes)}
        assert seg_rows == set(rows)


class TestFullRowDetection:
    def test_exact_row_is_full(self):
        g = Raid5Geometry(4, 4096)
        assert g.is_full_row_write(0, g.data_per_row, 0)

    def test_partial_row_is_not_full(self):
        g = Raid5Geometry(4, 4096)
        assert not g.is_full_row_write(0, g.data_per_row - 1, 0)
        assert not g.is_full_row_write(1, g.data_per_row, 0)


class TestServiceModel:
    def make(self, n=8):
        return Raid5Model(Raid5Geometry(n, 64 * KiB), DiskParams())

    def test_small_write_pays_rmw_penalty(self):
        m = self.make()
        small = m.service_time(0, 4 * KiB, sequential=True)
        # same bytes, aligned full row: no read-modify-write
        full_row = m.service_time(0, m.geometry.data_per_row, sequential=True)
        # the small write is *slower per byte* by far
        assert small / (4 * KiB) > full_row / m.geometry.data_per_row

    def test_seek_penalty_applied(self):
        m = self.make()
        seq = m.service_time(0, 64 * KiB, sequential=True)
        rnd = m.service_time(0, 64 * KiB, sequential=False)
        assert rnd == pytest.approx(seq + m.disk.seek_time)

    def test_large_extents_gain_drive_parallelism(self):
        m = self.make(n=8)
        t1 = m.service_time(0, 256 * KiB, sequential=True)
        t2 = m.service_time(0, 2048 * KiB, sequential=True)
        # 8x the bytes in well under 8x the time (parallel drives)
        assert t2 < 6 * t1

    def test_zero_byte_write_costs_settle_only(self):
        m = self.make()
        assert m.service_time(0, 0, sequential=True) == pytest.approx(m.disk.settle_time)
