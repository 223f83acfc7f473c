"""Finite planar lattices, conical partitions, and region masks.

The one-particle space K has one basis vector per (site, majorana index m),
with m running over an even number of Majorana modes per site. Everything
downstream (models, generators, invariants) addresses K through the masks
built here.

Region conventions: a partition consists of three open cones A0, A1, A2
around a common apex, ordered counterclockwise, whose closures cover the
plane; thin gap cones B are recorded for bookkeeping but never carry sites.
Sites too close to a cone boundary are rejected ("non-generic site") so
membership is unambiguous.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import ComputationError

TWO_PI = 2.0 * np.pi

#: minimum Euclidean distance from any site to any partition boundary half-line
EPS_GENERIC = 1e-6

DEFAULT_APEX_OFFSET = (0.2371, 0.1129)
DEFAULT_BOUNDARY_ANGLES = (np.pi / 2, 7 * np.pi / 6, 11 * np.pi / 6)


@dataclass(frozen=True)
class SitePoint:
    id: int
    x: float
    y: float


@dataclass
class LatticeGeometry:
    """Finite site set plus the per-site Majorana multiplicity.

    dim_K = len(sites) * majorana_count. The apex used to build the disk is
    recorded so partitions and evaluation windows can be constructed
    consistently; `radius` is the build radius (0 for explicit site lists).
    """
    sites: list[SitePoint]
    majorana_count: int
    apex: tuple[float, float]
    radius: float = 0.0

    def __post_init__(self):
        if self.majorana_count <= 0 or self.majorana_count % 2 != 0:
            raise ComputationError("majorana_count must be a positive even integer")
        ids = [s.id for s in self.sites]
        if ids != list(range(len(self.sites))):
            raise ComputationError("site ids must be contiguous from 0")

    @property
    def dim_K(self) -> int:
        return len(self.sites) * self.majorana_count

    def positions(self) -> np.ndarray:
        return np.array([[s.x, s.y] for s in self.sites], dtype=float)

    def with_majorana_count(self, mc: int) -> "LatticeGeometry":
        return LatticeGeometry(self.sites, mc, self.apex, self.radius)


@dataclass(frozen=True)
class Cone:
    """Open angular sector {apex + r e^{i phi} : r > 0, phi in (lo, hi) mod 2pi}."""
    apex: tuple[float, float]
    angle_lo: float
    angle_hi: float

    def __post_init__(self):
        width = (self.angle_hi - self.angle_lo) % TWO_PI
        if not (0.0 < width < TWO_PI):
            raise ComputationError("degenerate partition")


@dataclass(frozen=True)
class ConicalPartition:
    cones_A: tuple[Cone, Cone, Cone]
    cones_B: tuple[Cone, Cone, Cone]
    apex: tuple[float, float]
    boundary_angles: tuple[float, float, float]


def build_disk_lattice(family: str, radius: float,
                       apex_offset: tuple[float, float] = DEFAULT_APEX_OFFSET,
                       majorana_count: int = 2) -> LatticeGeometry:
    """All integer lattice points within `radius` of the (off-lattice) apex.

    The apex offset must keep every site away from partition boundaries; the
    default (0.2371, 0.1129) does this for the default angles at any radius.
    """
    if family != "square":
        raise ComputationError(f"unknown lattice family: {family!r}")
    if radius <= 0:
        raise ComputationError("empty lattice")
    ax, ay = apex_offset
    pts = []
    for x in range(int(np.floor(ax - radius)), int(np.ceil(ax + radius)) + 1):
        for y in range(int(np.floor(ay - radius)), int(np.ceil(ay + radius)) + 1):
            if (x - ax) ** 2 + (y - ay) ** 2 <= radius ** 2:
                pts.append((x, y))
    if not pts:
        raise ComputationError("empty lattice")
    pts.sort()
    sites = [SitePoint(i, float(p[0]), float(p[1])) for i, p in enumerate(pts)]
    return LatticeGeometry(sites, majorana_count, (ax, ay), float(radius))


def make_good_partition(apex: tuple[float, float],
                        boundary_angles=DEFAULT_BOUNDARY_ANGLES,
                        gap_halfwidth: float = 0.15) -> ConicalPartition:
    """Three cones between consecutive boundary half-lines, counterclockwise.

    The A-cones are the full open sectors [theta_a, theta_{a+1}); the B-cones
    are thin sectors of half-width `gap_halfwidth` straddling each boundary,
    recorded for bookkeeping only (no site is ever assigned to a B-cone).
    """
    th = [float(a) % TWO_PI for a in boundary_angles]
    if len(th) != 3:
        raise ComputationError("degenerate partition")
    # strictly increasing within one turn, allowing wraparound of the start
    gaps = [(th[(i + 1) % 3] - th[i]) % TWO_PI for i in range(3)]
    if any(g <= 0.0 or g >= TWO_PI for g in gaps) or abs(sum(gaps) - TWO_PI) > 1e-12:
        raise ComputationError("degenerate partition")
    if gap_halfwidth < 0 or any(2 * gap_halfwidth >= g for g in gaps):
        # B-cone closures would overlap somewhere other than the apex
        raise ComputationError("degenerate partition")
    A = tuple(Cone(apex, th[i], th[(i + 1) % 3]) for i in range(3))
    B = tuple(Cone(apex, (th[i] - gap_halfwidth) % TWO_PI,
                   (th[i] + gap_halfwidth) % TWO_PI) for i in range(3))
    return ConicalPartition(A, B, apex, (th[0], th[1], th[2]))


def _angle_in(phi: float, lo: float, hi: float) -> bool:
    phi, lo, hi = phi % TWO_PI, lo % TWO_PI, hi % TWO_PI
    if lo <= hi:
        return lo <= phi < hi
    return phi >= lo or phi < hi


def _dist_to_halfline(dx: float, dy: float, theta: float) -> float:
    """Euclidean distance from the displacement (dx,dy) to the half-line at
    angle theta from the origin."""
    c, s = np.cos(theta), np.sin(theta)
    proj = dx * c + dy * s
    if proj <= 0.0:
        return float(np.hypot(dx, dy))
    return float(abs(-dx * s + dy * c))


def cone_membership(cone: Cone, point: tuple[float, float]) -> bool:
    """True iff the point's direction from the cone apex lies in the open sector.

    Raises "non-generic site" if the point is within EPS_GENERIC of either
    boundary half-line (membership would depend on rounding).
    """
    dx, dy = point[0] - cone.apex[0], point[1] - cone.apex[1]
    if dx == 0.0 and dy == 0.0:
        raise ComputationError("non-generic site")
    for theta in (cone.angle_lo, cone.angle_hi):
        if _dist_to_halfline(dx, dy, theta) < EPS_GENERIC:
            raise ComputationError("non-generic site")
    return _angle_in(float(np.arctan2(dy, dx)), cone.angle_lo, cone.angle_hi)


def cone_site_ids(cone: Cone, geometry: LatticeGeometry) -> list[int]:
    return [s.id for s in geometry.sites if cone_membership(cone, (s.x, s.y))]


def region_mask(region, geometry: LatticeGeometry) -> np.ndarray:
    """Boolean mask over the dim_K basis selecting all Majorana indices of the
    region's sites. `region` is a Cone or an iterable of site ids."""
    sel = np.zeros(len(geometry.sites), dtype=bool)
    if isinstance(region, Cone):
        sel[cone_site_ids(region, geometry)] = True
    else:
        ids = np.asarray(list(region), dtype=int)
        if ids.size and (ids.min() < 0 or ids.max() >= len(geometry.sites)):
            raise ComputationError("site id out of range")
        sel[ids] = True
    return np.repeat(sel, geometry.majorana_count)


def windowed_site_ids(partition: ConicalPartition, geometry: LatticeGeometry,
                      core_fraction: float) -> list[list[int]]:
    """Site ids of each A-cone restricted to the evaluation window
    {|pos - apex| <= core_fraction * radius}.

    The window keeps the triple junction deep in the bulk and excludes the
    disk edge; with the full cones the alternating triple traces cancel
    identically at finite size, so every invariant is evaluated on these
    windowed regions.
    """
    if not (0.0 < core_fraction <= 1.0):
        raise ComputationError("core_fraction must lie in (0, 1]")
    R = geometry.radius if geometry.radius > 0 else None
    if R is None:
        pos = geometry.positions()
        R = float(np.max(np.hypot(pos[:, 0] - partition.apex[0],
                                  pos[:, 1] - partition.apex[1])))
    rmax = core_fraction * R
    out = []
    for cone in partition.cones_A:
        ids = []
        for s in geometry.sites:
            if np.hypot(s.x - partition.apex[0], s.y - partition.apex[1]) <= rmax \
                    and cone_membership(cone, (s.x, s.y)):
                ids.append(s.id)
        out.append(ids)
    return out
