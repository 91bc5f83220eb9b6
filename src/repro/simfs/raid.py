"""RAID-5 geometry and timing model.

The paper's storage system: "we wrote constant sized output files under
RAID 5 with a stripe width of 64 kilobytes across 252 hard drives"
(§4.1.2).  Two pieces here:

* :class:`Raid5Geometry` — the pure address arithmetic: byte extents map to
  per-drive segments with left-symmetric rotating parity.  This is
  property-tested (every byte maps to exactly one drive segment, no two
  extents overlap, parity never coincides with data in a row).
* :class:`Raid5Model` — an *analytic* service-time model over the geometry.
  Individual drives are not discrete-event simulated (252 drives × millions
  of ops would drown the event queue); instead each array computes the
  parallel completion time of an extent across its drives, including the
  read-modify-write penalty for partial-stripe writes that makes small
  blocks expensive on RAID-5 — one of the physical reasons the paper's
  bandwidth is so much worse at 64 KiB than at 8 MiB.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.machine import DiskParams
from repro.units import KiB

__all__ = ["Raid5Geometry", "Raid5Model", "Segment"]


@dataclass(frozen=True)
class Segment:
    """One contiguous piece of an extent on one drive."""

    drive: int
    drive_offset: int
    nbytes: int
    logical_offset: int


class Raid5Geometry:
    """Left-symmetric RAID-5 address arithmetic.

    Logical bytes are grouped into stripes of ``(n_drives - 1)`` data units
    of ``stripe_width`` bytes each; the parity unit rotates right-to-left
    across rows (left-symmetric layout, the common md/raid5 default).
    """

    def __init__(self, n_drives: int, stripe_width: int = 64 * KiB):
        if n_drives < 3:
            raise ValueError("RAID-5 needs at least 3 drives")
        if stripe_width <= 0:
            raise ValueError("stripe width must be positive")
        self.n_drives = n_drives
        self.stripe_width = stripe_width
        self.data_per_row = (n_drives - 1) * stripe_width

    def parity_drive(self, row: int) -> int:
        """Drive holding parity for stripe row ``row`` (rotating)."""
        return (self.n_drives - 1 - (row % self.n_drives)) % self.n_drives

    def locate(self, logical_offset: int) -> Tuple[int, int]:
        """Map one logical byte to ``(drive, drive_offset)``."""
        if logical_offset < 0:
            raise ValueError("negative offset")
        row, in_row = divmod(logical_offset, self.data_per_row)
        unit, in_unit = divmod(in_row, self.stripe_width)
        parity = self.parity_drive(row)
        # Data units fill drives left to right, skipping the parity drive.
        drive = unit if unit < parity else unit + 1
        return drive, row * self.stripe_width + in_unit

    def map_extent(self, offset: int, nbytes: int) -> List[Segment]:
        """Split a logical extent into maximal per-drive segments."""
        if nbytes < 0:
            raise ValueError("negative extent length")
        segments: List[Segment] = []
        pos = offset
        end = offset + nbytes
        while pos < end:
            drive, drive_off = self.locate(pos)
            # Run length until the end of the current stripe unit.
            in_unit = pos % self.stripe_width
            run = min(self.stripe_width - in_unit, end - pos)
            segments.append(Segment(drive, drive_off, run, pos))
            pos += run
        return segments

    def rows_touched(self, offset: int, nbytes: int) -> range:
        """Stripe rows overlapped by the extent."""
        if nbytes <= 0:
            return range(0)
        first = offset // self.data_per_row
        last = (offset + nbytes - 1) // self.data_per_row
        return range(first, last + 1)

    def is_full_row_write(self, offset: int, nbytes: int, row: int) -> bool:
        """Does the extent cover stripe row ``row`` completely?

        Full-row writes compute parity from the new data alone (no
        read-modify-write); partial-row writes must read old data+parity.
        """
        row_start = row * self.data_per_row
        return offset <= row_start and offset + nbytes >= row_start + self.data_per_row


class Raid5Model:
    """Analytic service time of one extent on a RAID-5 array.

    The extent's per-drive byte loads are computed from the geometry; the
    array completes when its most-loaded drive finishes.  Every involved
    row adds a parity write, and every *partial* row adds a
    read-modify-write round (old data + old parity reads) — the classic
    RAID-5 small-write penalty.
    """

    def __init__(self, geometry: Raid5Geometry, disk: DiskParams | None = None):
        self.geometry = geometry
        self.disk = disk or DiskParams()
    def service_time(self, offset: int, nbytes: int, sequential: bool) -> float:
        """Parallel completion time of one extent across the array."""
        disk = self.disk
        if nbytes <= 0:
            return disk.settle_time
        g = self.geometry
        in_unit = offset % g.stripe_width
        if in_unit + nbytes <= g.stripe_width and (in_unit > 0 or nbytes < g.data_per_row):
            # Closed form for the dominant case: the extent lives in one
            # stripe unit of one (partial) row, so the loads are exactly
            # {data drive: nbytes, parity drive: stripe_width} and one
            # read-modify-write round is charged.  Matches the general
            # path bit for bit (same operations in the same order).
            busiest = nbytes if nbytes > g.stripe_width else g.stripe_width
            t = busiest / disk.stream_bandwidth + disk.settle_time
            if not sequential:
                t += disk.seek_time
            t += 1 * disk.settle_time
            return t
        return self._service_time_uncached(offset, nbytes, sequential)

    def _service_time_uncached(self, offset: int, nbytes: int, sequential: bool) -> float:
        g = self.geometry
        per_drive: Dict[int, int] = defaultdict(int)
        for seg in g.map_extent(offset, nbytes):
            per_drive[seg.drive] += seg.nbytes

        rmw_rows = 0
        for row in g.rows_touched(offset, nbytes):
            pdrive = g.parity_drive(row)
            # Parity unit is written for every touched row.
            per_drive[pdrive] += g.stripe_width
            if not g.is_full_row_write(offset, nbytes, row):
                rmw_rows += 1

        busiest = max(per_drive.values())
        t = busiest / self.disk.stream_bandwidth + self.disk.settle_time
        if not sequential:
            t += self.disk.seek_time
        # Each read-modify-write round costs an extra rotation's worth of
        # settle on the parity path (read old, wait, write new).
        t += rmw_rows * self.disk.settle_time
        return t
