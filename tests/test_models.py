import tracemalloc

import numpy as np
import pytest

from artifact import (ComputationError, ConfigError, build_disk_lattice, build_pip,
                      build_qwz, build_trivial, stack_copies, tknn_chern)
from artifact.models import _bloch, _check_gapped, _pip_blocks, _qwz_blocks, _real_space_K
from dense_oracle import dense_real_space_K
from region_helpers import site_projector


@pytest.fixture(scope="module")
def disk4():
    return build_disk_lattice("square", 4.0, majorana_count=4)


@pytest.fixture(scope="module")
def disk2():
    return build_disk_lattice("square", 4.0, majorana_count=2)


def test_qwz_selfdual_structure(disk4):
    h = build_qwz(1.0, disk4)
    H = h.matrix
    assert float(np.max(np.abs(H - H.conj().T))) <= 1e-12
    # JHJ = -H means the matrix is purely imaginary entrywise
    assert float(np.max(np.abs(H.real))) <= 1e-12


@pytest.mark.parametrize("build", [
    lambda g4, g2: build_qwz(1.0, g4),
    lambda g4, g2: build_pip(-1.0, 0.5, g2),
    lambda g4, g2: build_trivial(g2),
])
def test_spectra_come_in_plus_minus_pairs(disk4, disk2, build):
    ev = np.linalg.eigvalsh(build(disk4, disk2).matrix)  # ascending
    assert float(np.max(np.abs(ev + ev[::-1]))) <= 1e-9


def test_trivial_model_is_onsite(disk2):
    h = build_trivial(disk2)
    ev = np.abs(np.linalg.eigvalsh(h.matrix))
    assert ev.min() == pytest.approx(1.0, abs=1e-12)
    assert ev.max() == pytest.approx(1.0, abs=1e-12)
    region = site_projector([0, 3, 7], disk2)
    comm = h.matrix @ region - region @ h.matrix
    assert float(np.max(np.abs(comm))) == 0.0


@pytest.mark.parametrize("u", [0.0, 2.0, -2.0])
def test_qwz_gap_closings_rejected(disk4, u):
    # the k-grid contains every Dirac point, so the certificate itself fails
    with pytest.raises(ComputationError, match=r"gapless parameters: bulk gap \S+ < 1e-6"):
        build_qwz(u, disk4)


def test_pip_gapless_without_pairing(disk2):
    with pytest.raises(ComputationError, match="gapless parameters"):
        build_pip(-1.0, 0.0, disk2)


def test_pip_strong_pairing_builds(disk2):
    h = build_pip(-5.0, 0.5, disk2)
    assert h.family_tag == "pip"


def test_majorana_count_requirements(disk4, disk2):
    with pytest.raises(ComputationError):
        build_qwz(1.0, disk2)
    with pytest.raises(ComputationError):
        build_pip(-1.0, 0.5, disk4)


@pytest.mark.parametrize("family, params", [("qwz", {"u": 1.3}),
                                             ("pip", {"mu": -1.0, "delta": 0.5})],
                         ids=["qwz", "pip"])
def test_bloch_grid_matches_pointwise(family, params):
    kgrid = 7
    ks = 2 * np.pi * np.arange(kgrid) / kgrid
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    grid = _bloch(family, params, kgrid)
    assert grid.shape == (kgrid, kgrid, 2, 2)
    for i, kx in enumerate(ks):
        for j, ky in enumerate(ks):
            if family == "qwz":
                want = (np.sin(kx) * sx + np.sin(ky) * sy
                        + (params["u"] + np.cos(kx) + np.cos(ky)) * sz)
            else:
                xi = -2.0 * (np.cos(kx) + np.cos(ky)) - params["mu"]
                dk = params["delta"] * (np.sin(kx) - 1j * np.sin(ky))
                want = np.array([[xi, dk], [np.conj(dk), -xi]])
            assert np.array_equal(grid[i, j], want)


def test_tknn_integers():
    assert tknn_chern("qwz", {"u": 1.0}, kgrid=60) == 1
    assert tknn_chern("qwz", {"u": 3.0}, kgrid=60) == 0
    assert tknn_chern("pip", {"mu": -1.0, "delta": 0.5}, kgrid=60) == 1
    assert isinstance(tknn_chern("qwz", {"u": -1.0}, kgrid=60), int)


@pytest.mark.parametrize("u", [0.5, 1.0, 1.5])
def test_tknn_sign_flips_with_mass(u):
    assert tknn_chern("qwz", {"u": -u}, kgrid=60) == -tknn_chern("qwz", {"u": u}, kgrid=60)


def test_tknn_small_grid_rejected():
    with pytest.raises(ConfigError):
        tknn_chern("qwz", {"u": 1.0}, kgrid=10)


def test_tknn_gapless_rejected():
    with pytest.raises(ComputationError, match="gapless parameters"):
        tknn_chern("qwz", {"u": 2.0}, kgrid=60)


@pytest.mark.parametrize("family, params", [("qwz", {"u": 2.0}), ("qwz", {"u": -2.0}),
                                             ("pip", {"mu": -4.0, "delta": 0.5}),
                                             ("pip", {"mu": 0.0, "delta": 0.5})])
def test_odd_grid_still_sees_closings_at_pi(family, params):
    # an odd kgrid has no k = pi; the certificate adds the points {0, pi}^2
    ks = 2 * np.pi * np.arange(51) / 51
    assert np.pi not in ks
    with pytest.raises(ComputationError, match=r"gapless parameters: bulk gap \S+ < 1e-6"):
        tknn_chern(family, params, kgrid=51)
    with pytest.raises(ComputationError, match="bulk gap"):
        _check_gapped(family, params, ev=np.ones(4))


def test_stack_copies_is_kron(disk2):
    h = build_pip(-1.0, 0.5, disk2)
    h3 = stack_copies(h, 3)
    assert h3.geometry.majorana_count == 6
    assert np.allclose(h3.matrix, np.kron(h.matrix, np.eye(3)))
    assert stack_copies(h, 1) is h


def test_stack_copies_validates_count(disk2):
    with pytest.raises(ComputationError):
        stack_copies(build_trivial(disk2), 0)


@pytest.mark.parametrize("radius", [4, 6, 8])
@pytest.mark.parametrize("family, blocks", [("qwz", _qwz_blocks(1.0)),
                                            ("qwz", _qwz_blocks(-1.5)),
                                            ("pip", _pip_blocks(-1.0, 0.5))])
def test_real_assembly_matches_dense_oracle(family, blocks, radius):
    geom = build_disk_lattice("square", float(radius),
                              majorana_count=4 if family == "qwz" else 2)
    K = _real_space_K(geom, *blocks)
    assert K.shape == (geom.dim_K, geom.dim_K)
    assert np.array_equal(K, dense_real_space_K(geom, *blocks))


def test_build_peak_stays_below_projection_estimate():
    # the memory guard runs before the build on the projection's estimate of
    # 7 real dim x dim arrays, so the build itself must need less
    geom = build_disk_lattice("square", 8.0, majorana_count=4)
    tracemalloc.start()
    try:
        build_qwz(1.0, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 8 * geom.dim_K**2
