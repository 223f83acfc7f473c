import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (BasisProjection, ComputationError, build_disk_lattice,
                      build_qwz, core_regions, cyclic_charge, dress_charge,
                      exchange_phase_bch, flux_unitary, ground_projection, hall_sigma,
                      lift_charge, make_good_partition, parity_charge, random_covariance,
                      region_mask, stack_copies, windowed_site_ids)
from artifact.symgen import FluxGenerator
from dense_oracle import dense_block, dense_generator, diagonal_dressing


def _random_projection(dim, seed):
    return random_covariance(dim, np.random.default_rng(seed))


def test_single_copy_charge_is_zero():
    q = cyclic_charge(1)
    assert q.shape == (1, 1)
    assert q[0, 0] == 0


@pytest.mark.parametrize("N", [3, 5, 7])
def test_cyclic_charge_integer_spectrum(N):
    q = cyclic_charge(N)
    ev = np.sort(np.linalg.eigvalsh(q))
    want = np.arange(-(N - 1) // 2, (N - 1) // 2 + 1)
    assert np.allclose(ev, want, atol=1e-12)
    assert float(np.max(np.abs(q.real))) == 0.0
    assert float(np.max(np.abs(q.T + q))) <= 1e-15


def test_even_copies_rejected():
    with pytest.raises(ComputationError, match="even copies unsupported"):
        cyclic_charge(4)


@pytest.mark.parametrize("N, message", [(2.5, "copies must be an integer"), (3.0, "copies must be an integer"),
                                        (0, "copies must be >= 1"), (-1, "copies must be >= 1")])
def test_bad_copies_refused_before_the_parity_check(N, message):
    # 2.5 built a 3 x 3 zero charge, and 0 was reported as even
    with pytest.raises(ComputationError, match=message):
        cyclic_charge(N)


@pytest.fixture(scope="module")
def small_geometry():
    return build_disk_lattice("square", 4.0, majorana_count=2)


def test_lift_charge_empty_region_is_zero(small_geometry):
    q = cyclic_charge(3)
    Q = dense_generator(lift_charge(q, small_geometry, []))
    assert not Q.any()
    assert Q.shape == (small_geometry.dim_K * 3, small_geometry.dim_K * 3)


def test_lift_charge_full_region_commutes_with_global_charge(small_geometry):
    q = cyclic_charge(3)
    all_sites = list(range(len(small_geometry.sites)))
    Q = dense_generator(lift_charge(q, small_geometry, all_sites))
    glob = np.kron(np.eye(small_geometry.dim_K), q)
    assert float(np.max(np.abs(Q @ glob - glob @ Q))) == 0.0
    assert abs(np.trace(Q)) <= 1e-12


def test_lift_charge_is_linear_in_q(small_geometry):
    q3 = cyclic_charge(3)
    combo = 0.25 * q3
    region = [0, 1, 5]
    lhs = dense_generator(lift_charge(combo, small_geometry, region))
    rhs = 0.25 * dense_generator(lift_charge(q3, small_geometry, region))
    assert np.allclose(lhs, rhs, atol=1e-15)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_dress_commutes_with_projection(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([8, 12, 16]))
    P = random_covariance(dim, rng)
    Q = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q = (Q + Q.conj().T) / 2
    g = dress_charge(P, FluxGenerator(Q))
    comm = P.matrix @ dense_generator(g) - dense_generator(g) @ P.matrix
    assert float(np.max(np.abs(comm))) <= 1e-12


def test_dress_is_identity_on_commuting_input():
    P = _random_projection(12, 5)
    rng = np.random.default_rng(6)
    Q = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    Q = (Q + Q.conj().T) / 2
    Pm = P.matrix
    Qc = Pm @ Q @ Pm + (np.eye(12) - Pm) @ Q @ (np.eye(12) - Pm)
    Qc = (Qc + Qc.conj().T) / 2
    fixed = dense_generator(dress_charge(P, FluxGenerator(Qc)))
    assert float(np.max(np.abs(fixed - Qc))) <= 1e-12


@pytest.mark.parametrize("field", [float, complex])
def test_a_diagonal_block_dresses_as_the_dense_product(field):
    # a diagonal block dresses as every block does, to the dense
    # (B - O B O)/2, Hermitized, in its own field
    rng = np.random.default_rng(11)
    P = _random_projection(16, 12)
    b = rng.standard_normal(16).astype(field)
    if field is complex:
        b += 1j * rng.standard_normal(16)
    B, O = np.diag(b), P.O
    want = B - O @ B @ O
    want = (want + want.conj().T) / 4
    g = dress_charge(P, FluxGenerator(B))
    assert g.fiber == 1 and np.iscomplexobj(g.factor) == (field is complex)
    assert float(np.max(np.abs(g.factor - want))) <= 1e-14


def test_lifted_charge_dresses_on_the_half(qwz_r6):
    # a lifted site mask is T of the half's: it is dressed on the factor and
    # kept there, and reads back in the model's basis as the dense dressing
    P, part = qwz_r6
    ids = windowed_site_ids(part, P.geometry, 0.7)
    g = dress_charge(P, lift_charge(np.ones((1, 1)), P.geometry, ids[0]))
    assert g.fiber == 2 and g.factor.shape == P.factor.shape
    B, O = np.diag(region_mask(ids[0], P.geometry).astype(float)), P.O
    want = B - O @ B @ O
    assert float(np.max(np.abs(dense_block(g) - (want + want.T) / 4))) <= 1e-14


def test_lift_charge_keeps_the_mask(small_geometry):
    # the lifted charge is its 1-D site mask; read as a matrix it is the
    # generator of diag(mask), bit for bit, and undressed it is no flux
    # generator
    q = cyclic_charge(3)
    region = list(range(0, len(small_geometry.sites), 3))
    g = lift_charge(q, small_geometry, region)
    mask = region_mask(region, small_geometry).astype(float)
    assert g.factor.ndim == 1 and np.array_equal(g.factor, mask)
    dense = FluxGenerator(np.diag(mask), q, region)
    assert dense_generator(g).tobytes() == dense_generator(dense).tobytes()
    with pytest.raises(ComputationError, match="undressed mask.*dress_charge"):
        flux_unitary(g, 0.7)


@pytest.mark.parametrize("case, fiber", [("half", 2), ("fiber1", 1), ("not_by_fiber", 1)])
def test_a_dressed_mask_is_the_dressed_diagonal_bit_for_bit(qwz_r6, case, fiber):
    # a mask constant on each 4-fiber is dressed on the half as the mask of
    # its orbital pairs, by the diagonal product: the oracle's bytes. Any
    # other is refused on the half and dressed on its fiber-1 view. A dense
    # diag(mask) is dressed by O @ B @ O on the same fiber, to within 1e-14
    P, part = qwz_r6
    mask = region_mask(windowed_site_ids(part, P.geometry, 0.7)[0], P.geometry).astype(float)
    if case == "not_by_fiber":
        mask[1] = 1.0 - mask[1]
        with pytest.raises(ComputationError,
                           match=re.escape("BasisProjection(P.O, P.geometry, copies=P.copies)")):
            dress_charge(P, FluxGenerator(mask))
    if fiber == 1:
        P = BasisProjection(P.O, P.geometry)  # the same projection on fiber 1
    g = dress_charge(P, FluxGenerator(mask))
    b = np.repeat(mask[0::4], 2) if fiber == 2 else mask
    assert g.fiber == fiber
    assert g.factor.tobytes() == diagonal_dressing(P.factor, b).tobytes()
    dense = dress_charge(P, FluxGenerator(np.diag(mask)))
    assert dense.fiber == fiber
    assert float(np.max(np.abs(dense.factor - g.factor))) <= 1e-14


def test_the_flux_functions_refuse_an_undressed_mask(qwz_stack3_r6_generators):
    # hall_sigma, exchange_phase_bch and flux_unitary take a generator only as
    # a matrix factor: a lifted mask is refused, naming dress_charge
    P, part, g0, _ = qwz_stack3_r6_generators
    ids, sgeom = core_regions(P, part, 0.7)
    mask = lift_charge(cyclic_charge(3), sgeom.with_majorana_count(4), ids[1])
    for call in (lambda: hall_sigma(P, g0, mask, part), lambda: hall_sigma(P, mask, g0, part),
                 lambda: exchange_phase_bch(P, g0, mask, 0.1, 0.1, part),
                 lambda: flux_unitary(mask, 0.1), lambda: flux_unitary(mask, 0.0)):
        with pytest.raises(ComputationError, match="undressed mask.*dress_charge"):
            call()


def test_mask_form_gives_the_diagonal_form_s_numbers(pip_stack3_r6):
    # a fiber-1 stack (pip, three copies): hall_sigma and exchange_phase_bch
    # refuse an undressed lifted charge, naming dress_charge; dressed it
    # gives the numbers of dressed diag(mask) to rounding
    P, part = pip_stack3_r6
    ids, sgeom = core_regions(P, part, 0.7)
    base = sgeom.with_majorana_count(2)
    q = cyclic_charge(3)
    g0 = dress_charge(P, lift_charge(q, base, ids[0]), ids[0])
    mask = lift_charge(q, base, ids[1])
    dense = dress_charge(P, FluxGenerator(np.diag(mask.factor), q, ids[1]))
    assert P.fiber == 1 and mask.factor.ndim == 1
    for call in (lambda: hall_sigma(P, g0, mask, part),
                 lambda: exchange_phase_bch(P, g0, mask, 0.1, 0.1, part)):
        with pytest.raises(ComputationError, match="undressed mask.*dress_charge"):
            call()
    g1 = dress_charge(P, mask)
    sigma = hall_sigma(P, g0, g1, part)
    assert sigma != 0.0 and abs(sigma - hall_sigma(P, g0, dense, part)) <= 1e-12
    bch = exchange_phase_bch(P, g0, g1, 0.1, 0.1, part)
    assert bch != 1.0 and abs(bch - exchange_phase_bch(P, g0, dense, 0.1, 0.1, part)) <= 1e-12


def test_lift_and_dress_peak_stays_near_the_dressed_factor():
    # qwz R=12, three copies: the lifted charge stays a mask of dim_K floats
    # and is dressed on the half (n = dim_K/2) with one product
    # (O' * -b') @ O', so lift and dress hold two n x n arrays at their
    # peak: 2.01 dressed factors measured, 10.0 when the lift stored
    # diag(mask) and the dressing folded it
    geom = build_disk_lattice("square", 12.0, majorana_count=4)
    P = ground_projection(stack_copies(build_qwz(1.0, geom), 3), 1e-4)
    ids, sgeom = core_regions(P, make_good_partition(geom.apex), 0.7)
    base = sgeom.with_majorana_count(4)
    tracemalloc.start()
    try:
        g = dress_charge(P, lift_charge(cyclic_charge(3), base, ids[0]), ids[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.fiber == 2 and peak <= 2.5 * g.factor.nbytes


def test_dress_is_linear():
    P = _random_projection(10, 7)
    rng = np.random.default_rng(8)
    Qs = []
    for _ in range(2):
        Q = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        Qs.append((Q + Q.conj().T) / 2)
    lhs = dense_generator(dress_charge(P, FluxGenerator(0.3 * Qs[0] + 1.7 * Qs[1])))
    rhs = (0.3 * dense_generator(dress_charge(P, FluxGenerator(Qs[0])))
           + 1.7 * dense_generator(dress_charge(P, FluxGenerator(Qs[1]))))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_dress_shape_mismatch():
    P = _random_projection(8, 9)
    with pytest.raises(ComputationError, match="dimension mismatch"):
        dress_charge(P, FluxGenerator(np.zeros((6, 6))))


def test_parity_charge_full_region_is_reflection(qwz_r6):
    P, _ = qwz_r6
    geom = P.geometry
    all_sites = list(range(len(geom.sites)))
    g = parity_charge(P, all_sites, geom)
    T = np.eye(P.dim_K) - 2 * P.matrix
    assert float(np.max(np.abs(dense_generator(g) - T))) <= 1e-12
    comm = P.matrix @ dense_generator(g) - dense_generator(g) @ P.matrix
    assert float(np.max(np.abs(comm))) <= 1e-10


def test_parity_charge_is_built_on_the_half(qwz_r6):
    P, part = qwz_r6
    ids = windowed_site_ids(part, P.geometry, 0.7)
    g = parity_charge(P, ids[0], P.geometry)
    assert g.fiber == 2 and g.factor.shape == P.factor.shape
    Pi, O = np.diag(region_mask(ids[0], P.geometry).astype(float)), P.O
    assert float(np.max(np.abs(dense_generator(g) - 0.5j * (Pi @ O + O @ Pi)))) <= 1e-15


def test_parity_charge_refuses_a_geometry_of_another_dimension(qwz_r6):
    P, _ = qwz_r6
    with pytest.raises(ComputationError, match="dimension mismatch"):
        parity_charge(P, [0], P.geometry.with_majorana_count(2))


def test_parity_charge_empty_region_is_zero(qwz_r6):
    P, _ = qwz_r6
    g = parity_charge(P, [], P.geometry)
    assert not dense_generator(g).any()


def test_parity_charge_commutes_on_cone(qwz_r6):
    P, part = qwz_r6
    ids = windowed_site_ids(part, P.geometry, 0.7)
    g = parity_charge(P, ids[0], P.geometry)
    comm = P.matrix @ dense_generator(g) - dense_generator(g) @ P.matrix
    assert float(np.max(np.abs(comm))) <= 1e-10


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_parity_identity_random(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([8, 12]))
    P = random_covariance(dim, rng).matrix
    T = np.eye(dim) - 2 * P
    mask = np.diag((rng.random(dim) < 0.5).astype(float))
    Qt = (mask @ T + T @ mask) / 2
    assert float(np.max(np.abs(P @ Qt - Qt @ P))) <= 1e-12


def test_flux_unitary_properties():
    P = _random_projection(12, 13)
    rng = np.random.default_rng(14)
    Q = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    g = dress_charge(P, FluxGenerator((Q + Q.conj().T) / 2))
    assert np.array_equal(flux_unitary(g, 0.0), np.eye(12))
    U = flux_unitary(g, 0.7)
    assert float(np.max(np.abs(U.conj().T @ U - np.eye(12)))) <= 1e-11
    UV = flux_unitary(g, 0.3) @ flux_unitary(g, 0.4)
    assert float(np.max(np.abs(UV - U))) <= 1e-10
    comm = U @ P.matrix - P.matrix @ U
    assert float(np.max(np.abs(comm))) <= 1e-10


def test_flux_unitary_of_a_complex_generator_is_its_exponential():
    # fiber-1 blocks: a complex one with a charge of three distinct
    # eigenvalues and with [[1]] (a dense N = 1 generator), and a real one
    # with the cyclic charge (a lifted charge of a fiber-1 stack): the sum
    # over charge sectors against scipy's expm of the dense Qtilde
    rng = np.random.default_rng(15)
    Q = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = (Q + Q.conj().T) / 2
    for block, charge in ((B, (c + c.conj().T) / 2), (B, np.ones((1, 1))),
                          (B.real, cyclic_charge(5))):
        g = FluxGenerator(block, charge)
        want = scipy.linalg.expm(0.7j * dense_generator(g))
        assert float(np.max(np.abs(flux_unitary(g, 0.7) - want))) <= 1e-12
