"""Finite planar lattices, conical partitions, and region masks.

A geometry stores its sites as one (n, 2) float64 array of coordinates; the
row index is the site id. The one-particle space K has one basis vector per
(site, majorana index m), with m running over an even number of Majorana
modes per site. Everything downstream (models, generators, invariants)
addresses K through the masks built here.

Region conventions: a partition is an apex and three boundary angles,
ordered counterclockwise; the boundary half-lines from the apex cut the
plane into the cones 0, 1, 2, cone a being the sector
[theta_a, theta_{a+1}). Neighbouring boundaries lie more than
MIN_BOUNDARY_SEPARATION apart. Sites too close to a boundary half-line are
rejected ("non-generic site") so membership is unambiguous.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import (DEFAULT_APEX_OFFSET, DEFAULT_BOUNDARY_ANGLES, ComputationError,
                    check_memory)

TWO_PI = 2.0 * np.pi

#: minimum Euclidean distance from any site to any partition boundary half-line
EPS_GENERIC = 1e-6

#: the least angle (radians) between neighbouring boundary half-lines: each
#: boundary is straddled by a thin gap cone of half-width 0.15, and those of
#: neighbouring boundaries may not overlap
MIN_BOUNDARY_SEPARATION = 0.3

#: side x side float64 arrays build_disk_lattice holds at its peak, side
#: the longer edge of the radius's bounding box (the coordinate grids, the
#: squared distances and the sites), rounded up to the next whole array as
#: _util._WORKING_ARRAYS is: tracemalloc measures 5.24 at radius 200, 5.25
#: at 400 and 5.26 at 800, and the peak RSS above the pre-call level 5.33
#: at 400 and 5.28 at 800
_LATTICE_WORKING_ARRAYS = 6


@dataclass
class LatticeGeometry:
    """Finite site set plus the per-site Majorana multiplicity.

    `sites` is an (n, 2) float64 array of coordinates whose row index is the
    site id; dim_K = n * majorana_count. The apex used to build the disk is
    recorded so partitions and evaluation windows can be constructed
    consistently; `radius` is the build radius (0 for explicit site lists).
    """
    sites: np.ndarray
    majorana_count: int
    apex: tuple[float, float]
    radius: float = 0.0

    def __post_init__(self):
        if self.majorana_count <= 0 or self.majorana_count % 2 != 0:
            raise ComputationError("majorana_count must be a positive even integer")
        self.sites = np.asarray(self.sites, dtype=float)

    @property
    def dim_K(self) -> int:
        return len(self.sites) * self.majorana_count

    def with_majorana_count(self, mc: int) -> "LatticeGeometry":
        return LatticeGeometry(self.sites, mc, self.apex, self.radius)


@dataclass(frozen=True)
class ConicalPartition:
    apex: tuple[float, float]
    boundary_angles: tuple[float, float, float]


def build_disk_lattice(family: str, radius: float,
                       apex_offset: tuple[float, float] = DEFAULT_APEX_OFFSET,
                       majorana_count: int = 2) -> LatticeGeometry:
    """All integer lattice points within `radius` of the (off-lattice) apex,
    in lexicographic order.

    The apex offset must keep every site away from partition boundaries; the
    default (0.2371, 0.1129) does this for the default angles at any radius.
    A non-finite radius or apex is refused, and so is a radius whose
    bounding box's arrays would not fit in the available memory.
    """
    if family != "square":
        raise ComputationError(f"unknown lattice family: {family!r}")
    ax, ay = apex_offset
    if not np.isfinite([radius, ax, ay]).all():
        raise ComputationError("lattice radius and apex must be finite")
    if radius <= 0:
        raise ComputationError("empty lattice")
    lo = np.floor([ax - radius, ay - radius])
    hi = np.ceil([ax + radius, ay + radius])
    check_memory(int(np.max(hi - lo)) + 1, _LATTICE_WORKING_ARRAYS, "lattice")
    xs, ys = np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1)
    x, y = np.meshgrid(xs, ys, indexing="ij")  # x-major: lexicographic
    inside = (x - ax) ** 2 + (y - ay) ** 2 <= radius ** 2
    if not inside.any():
        raise ComputationError("empty lattice")
    sites = np.column_stack([x[inside], y[inside]])
    return LatticeGeometry(sites, majorana_count, (ax, ay), float(radius))


def make_good_partition(apex: tuple[float, float],
                        boundary_angles=DEFAULT_BOUNDARY_ANGLES) -> ConicalPartition:
    """Three cones between consecutive boundary half-lines, counterclockwise.

    Cone a is the full sector [theta_a, theta_{a+1}). A non-finite apex or
    angle is refused, and so are neighbouring boundaries that lie
    MIN_BOUNDARY_SEPARATION or less apart.
    """
    th = [float(a) % TWO_PI for a in boundary_angles]
    if len(th) != 3 or not np.isfinite([*apex, *th]).all():
        raise ComputationError("degenerate partition")
    # strictly increasing within one turn, allowing wraparound of the start
    gaps = [(th[(i + 1) % 3] - th[i]) % TWO_PI for i in range(3)]
    if not (all(MIN_BOUNDARY_SEPARATION < g < TWO_PI for g in gaps)
            and abs(sum(gaps) - TWO_PI) <= 1e-12):
        raise ComputationError("degenerate partition")
    return ConicalPartition(apex, (th[0], th[1], th[2]))


def _cone_labels(partition: ConicalPartition, xy: np.ndarray) -> np.ndarray:
    """The cone 0, 1 or 2 of each point (rows of xy).

    Raises "non-generic site" if any point is within EPS_GENERIC of a
    boundary half-line, the apex included (membership would depend on
    rounding).
    """
    dx, dy = xy[:, 0] - partition.apex[0], xy[:, 1] - partition.apex[1]
    r = np.hypot(dx, dy)
    th = np.asarray(partition.boundary_angles) % TWO_PI
    for theta in th:
        c, s = np.cos(theta), np.sin(theta)
        # distance to the half-line: to its origin behind it, else to the line
        dist = np.where(dx * c + dy * s <= 0.0, r, np.abs(-dx * s + dy * c))
        if np.any(dist < EPS_GENERIC):
            raise ComputationError("non-generic site")
    phi = np.arctan2(dy, dx) % TWO_PI
    # th runs counterclockwise, so it is sort(th) rotated by argmin(th): the
    # point lies in [sorted[k-1], sorted[k]) (k = 0 and 3 wrap round), the
    # cone that begins at sorted[k-1] = th[(k - 1 + argmin(th)) % 3]
    k = np.searchsorted(np.sort(th), phi, side="right")
    return (k - 1 + int(np.argmin(th))) % 3


def region_mask(region, geometry: LatticeGeometry) -> np.ndarray:
    """Boolean mask over the dim_K basis selecting all Majorana indices of the
    region's sites. `region` is an iterable of site ids (windowed_site_ids
    gives each cone's)."""
    ids = np.asarray(list(region), dtype=int)
    if ids.size and (ids.min() < 0 or ids.max() >= len(geometry.sites)):
        raise ComputationError("site id out of range")
    sel = np.zeros(len(geometry.sites), dtype=bool)
    sel[ids] = True
    return np.repeat(sel, geometry.majorana_count)


def windowed_site_ids(partition: ConicalPartition, geometry: LatticeGeometry,
                      core_fraction: float) -> list[list[int]]:
    """Site ids of each cone of the partition restricted to the evaluation
    window {|pos - apex| <= core_fraction * radius}; core_fraction = 1 gives
    the full cones.

    The window keeps the triple junction deep in the bulk and excludes the
    disk edge; with the full cones the alternating triple traces cancel
    identically at finite size, so every invariant is evaluated on these
    windowed regions. Only sites inside the window are checked for
    genericity.
    """
    if not (0.0 < core_fraction <= 1.0):
        raise ComputationError("core_fraction must lie in (0, 1]")
    xy = geometry.sites
    r = np.hypot(xy[:, 0] - partition.apex[0], xy[:, 1] - partition.apex[1])
    R = geometry.radius if geometry.radius > 0 else float(np.max(r))
    window = np.flatnonzero(r <= core_fraction * R)
    labels = _cone_labels(partition, xy[window])
    return [window[labels == a].tolist() for a in range(3)]
