import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (ComputationError, LatticeGeometry, build_disk_lattice,
                      make_good_partition, pfaffian_expectation, random_covariance,
                      region_mask, windowed_site_ids)
from artifact import _util, geometry
from artifact.geometry import DEFAULT_APEX_OFFSET, DEFAULT_BOUNDARY_ANGLES
from region_helpers import partition_masks, site_projector


def brute_force_count(radius, offset):
    r = int(math.ceil(radius)) + 1
    n = 0
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            if (x - offset[0]) ** 2 + (y - offset[1]) ** 2 <= radius ** 2:
                n += 1
    return n


def test_small_disk_matches_brute_force():
    geom = build_disk_lattice("square", 1.5)
    assert len(geom.sites) == brute_force_count(1.5, DEFAULT_APEX_OFFSET)


def test_tiny_radius_is_empty():
    with pytest.raises(ComputationError, match="empty lattice"):
        build_disk_lattice("square", 0.1)


@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_nonpositive_radius_is_empty(radius):
    with pytest.raises(ComputationError, match="empty lattice"):
        build_disk_lattice("square", radius)


def test_unknown_family_rejected():
    with pytest.raises(ComputationError):
        build_disk_lattice("hex", 6.0)


@pytest.mark.parametrize("radius, apex", [(math.nan, DEFAULT_APEX_OFFSET),
                                          (math.inf, DEFAULT_APEX_OFFSET),
                                          (6.0, (math.nan, 0.1)), (6.0, (0.2, -math.inf))],
                         ids=["radius-nan", "radius-inf", "apex-nan", "apex-inf"])
def test_non_finite_lattice_refused(radius, apex):
    with pytest.raises(ComputationError, match="lattice radius and apex must be finite"):
        build_disk_lattice("square", radius, apex)


def test_oversize_lattice_refused_before_its_grid(monkeypatch):
    # radius 10^6 about the default apex: a bounding box of 2000002 points a
    # side, whose coordinate grids alone would need terabytes
    def no_grid(*args, **kwargs):
        raise AssertionError("the lattice grid was built before the memory guard")

    monkeypatch.setattr(np, "meshgrid", no_grid)
    monkeypatch.setattr(_util, "available_memory", lambda: 10**10)
    with pytest.raises(ComputationError) as exc:
        build_disk_lattice("square", 1e6)
    need = geometry._LATTICE_WORKING_ARRAYS * 8 * 2000002**2 / 1e9
    assert str(exc.value) == f"lattice needs ~{need:.2g} GB, 10 GB available"


@given(st.floats(min_value=4.0, max_value=24.0))
@settings(max_examples=12, deadline=None)
def test_site_count_area_bounds(radius):
    geom = build_disk_lattice("square", radius)
    n = len(geom.sites)
    assert math.pi * (radius - 1) ** 2 <= n <= math.pi * (radius + 1) ** 2


def test_site_ids_contiguous_and_dim():
    # the row index is the site id: one float64 row per distinct lattice
    # point, in lexicographic order
    geom = build_disk_lattice("square", 5.0, majorana_count=4)
    assert geom.sites.shape == (len(geom.sites), 2) and geom.sites.dtype == np.float64
    points = [tuple(p) for p in geom.sites.tolist()]
    assert points == sorted(set(points))
    assert geom.dim_K == 4 * len(geom.sites)


def test_good_partition_covers_all_sites():
    geom = build_disk_lattice("square", 8.0, majorana_count=2)
    part = make_good_partition(geom.apex)
    counts = [len(ids) for ids in windowed_site_ids(part, geom, 1.0)]
    assert sum(counts) == len(geom.sites)
    assert all(c > 0 for c in counts)


def test_partition_masks_sum_to_identity_bitwise():
    geom = build_disk_lattice("square", 7.0, majorana_count=4)
    part = make_good_partition(geom.apex)
    masks = partition_masks(part, geom)
    total = np.zeros(geom.dim_K, dtype=int)
    for m in masks:
        total += m.astype(int)
    assert np.array_equal(total, np.ones(geom.dim_K, dtype=int))


def test_degenerate_angles_rejected():
    with pytest.raises(ComputationError, match="degenerate partition"):
        make_good_partition((0.2, 0.1), (0.0, 0.0, math.pi))


@pytest.mark.parametrize("apex, angles", [
    ((math.nan, 0.1), DEFAULT_BOUNDARY_ANGLES),
    ((0.2, math.inf), DEFAULT_BOUNDARY_ANGLES),
    ((0.2, 0.1), (math.nan, 7 * math.pi / 6, 11 * math.pi / 6)),
    ((0.2, 0.1), (math.pi / 2, math.inf, 11 * math.pi / 6)),
], ids=["apex-nan", "apex-inf", "angle-nan", "angle-inf"])
def test_non_finite_partition_rejected(apex, angles):
    # a NaN apex or angle once passed and gave a wrong nu (0.0 and 1.992
    # for the 1.998 of qwz at radius 6)
    with pytest.raises(ComputationError, match="degenerate partition"):
        make_good_partition(apex, angles)


def test_overlapping_gap_cones_rejected():
    # neighbouring boundaries need 0.3 rad between them, across the wrap too
    for angles in [(0.0, 0.2, math.pi), (0.0, 0.29, math.pi), (0.2, math.pi, 2 * math.pi - 0.09)]:
        with pytest.raises(ComputationError, match="degenerate partition"):
            make_good_partition((0.2, 0.1), angles)
    for angles in [(0.0, 0.31, math.pi), (0.2, math.pi, 2 * math.pi - 0.11)]:
        part = make_good_partition((0.2, 0.1), angles)
        assert part.boundary_angles == pytest.approx([a % (2 * math.pi) for a in angles])


def in_cone(lo, hi, point) -> bool:
    """Membership of one point in the cone [lo, hi) around the origin, through
    windowed_site_ids on a one-site geometry; the partition's third boundary
    halves the rest of the turn."""
    part = make_good_partition((0.0, 0.0), (lo, hi, (lo + hi) / 2 + math.pi))
    site = LatticeGeometry(np.array([point]), 2, part.apex)
    return windowed_site_ids(part, site, 1.0)[0] == [0]


def test_cone_membership_basics():
    assert in_cone(0.0, math.pi, (1.0, 0.5))
    assert not in_cone(0.0, math.pi, (1.0, -0.5))
    # a boundary is a half-line: its extension behind the apex is generic
    assert not in_cone(0.3, 2.4, (-math.cos(0.3), -math.sin(0.3)))


def test_cone_membership_boundary_is_non_generic():
    for point in ((1.0, 1e-9), (0.0, 0.0), (-1e-7, -1e-7)):  # a side, the apex, behind it
        with pytest.raises(ComputationError, match="non-generic site"):
            in_cone(0.0, math.pi, point)


@given(st.floats(min_value=0.05, max_value=6.2), st.sampled_from([0.5, 2.0, 10.0]))
@settings(max_examples=25, deadline=None)
def test_cone_membership_scale_invariant(angle, scale):
    dx, dy = math.cos(angle), math.sin(angle)
    try:
        base = in_cone(0.3, 2.4, (dx, dy))
    except ComputationError:
        return  # non-generic direction; scaling preserves that too
    assert in_cone(0.3, 2.4, (scale * dx, scale * dy)) == base


def test_integer_apex_shift_preserves_membership():
    geom1 = build_disk_lattice("square", 6.0, (0.2371, 0.1129))
    geom2 = build_disk_lattice("square", 6.0, (2.2371, -1.8871))
    assert len(geom1.sites) == len(geom2.sites)
    part1 = make_good_partition(geom1.apex)
    part2 = make_good_partition(geom2.apex)
    counts1 = sorted(len(ids) for ids in windowed_site_ids(part1, geom1, 1.0))
    counts2 = sorted(len(ids) for ids in windowed_site_ids(part2, geom2, 1.0))
    assert counts1 == counts2


def test_site_projector_full_and_empty():
    geom = build_disk_lattice("square", 5.0, majorana_count=2)
    all_ids = list(range(len(geom.sites)))
    assert np.array_equal(site_projector(all_ids, geom), np.eye(geom.dim_K))
    assert np.array_equal(site_projector([], geom), np.zeros((geom.dim_K, geom.dim_K)))


def test_region_mask_expands_majorana_indices():
    geom = build_disk_lattice("square", 4.0, majorana_count=4)
    mask = region_mask([0, 2], geom)
    assert mask.dtype == bool
    assert int(mask.sum()) == 8
    assert mask[0] and mask[3] and mask[8] and mask[11]


@pytest.mark.parametrize("call, message", [
    (lambda: region_mask([2], LatticeGeometry(np.zeros((2, 2)), 2, (0.5, 0.5))),
     "site id out of range"),
    (lambda: pfaffian_expectation(random_covariance(4, np.random.default_rng(0)),
                                  [np.ones(4)] * 3),
     "pfaffian needs an even list"),
    (lambda: random_covariance(5, np.random.default_rng(0)), "dim_K must be even"),
    # 0 and -2 failed inside numpy, with a message about its own arrays
    (lambda: random_covariance(0, np.random.default_rng(0)), "dim_K must be >= 2"),
    (lambda: random_covariance(-2, np.random.default_rng(0)), "dim_K must be >= 2"),
    (lambda: random_covariance(4.0, np.random.default_rng(0)), "dim_K must be an integer"),
    (lambda: LatticeGeometry(np.zeros((1, 2)), 3, (0.5, 0.5)),
     "majorana_count must be a positive even integer"),
], ids=["site-id", "pfaffian-odd", "covariance-odd", "covariance-zero", "covariance-negative",
        "covariance-float", "majorana-count"])
def test_refusal_names_its_cause(call, message):
    with pytest.raises(ComputationError, match=message):
        call()


def test_windowed_site_ids_inside_window_and_cones():
    geom = build_disk_lattice("square", 8.0, majorana_count=2)
    part = make_good_partition(geom.apex)
    wins = windowed_site_ids(part, geom, 0.7)
    full = windowed_site_ids(part, geom, 1.0)
    for ids, cone in zip(wins, full):
        for i in ids:
            x, y = geom.sites[i]
            assert math.hypot(x - part.apex[0], y - part.apex[1]) <= 0.7 * 8.0
            assert i in cone
    assert sum(len(ids) for ids in full) == len(geom.sites)


def test_windowed_core_fraction_validation():
    geom = build_disk_lattice("square", 5.0, majorana_count=2)
    part = make_good_partition(geom.apex)
    with pytest.raises(ComputationError):
        windowed_site_ids(part, geom, 0.0)
    with pytest.raises(ComputationError):
        windowed_site_ids(part, geom, 1.5)


def test_windowed_site_ids_checks_only_sites_inside_the_window():
    # two sites on the boundary half-line at pi/2: one inside the window
    # (r = 1 <= 0.7 * 4), refused; one outside it (r = 3.5), never checked
    apex = (0.0, 0.0)
    part = make_good_partition(apex)
    inside = LatticeGeometry(np.array([[1.0, 0.3], [0.0, 1.0]]), 2, apex, 4.0)
    with pytest.raises(ComputationError, match="non-generic site"):
        windowed_site_ids(part, inside, 0.7)
    outside = LatticeGeometry(np.array([[1.0, 0.3], [0.0, 3.5], [-1.0, -0.2]]), 2, apex, 4.0)
    assert windowed_site_ids(part, outside, 0.7) == [[2], [], [0]]
    with pytest.raises(ComputationError, match="non-generic site"):
        windowed_site_ids(part, outside, 1.0)  # the full cones see it
