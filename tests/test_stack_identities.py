"""Identities that license the factored stack path.

An N-copy stack keeps its Kronecker factors: the projection is
kron(P, I_N) from one single-copy decomposition, the dressed cyclic charges
are kron(D, q), and their traces and exchange phases are evaluated per
single-copy block. Each test compares that path with the dense generic one:
the complex eigh of the materialized stack (tests/dense_oracle.py) and dense
N = 1 generators built from kron(diag(mask), q).
"""
import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg

from artifact import (build_disk_lattice, build_pip, build_qwz, build_trivial,
                      chern_number, core_regions, cyclic_charge, dress_charge,
                      exchange_phase_bch, exchange_phase_closed, flux_unitary,
                      ground_projection, hall_sigma,
                      lift_charge, make_good_partition, parity_charge, stack_copies,
                      twist_statistics)
from artifact import ComputationError, invariants, quasifree
from artifact.models import QuadraticHamiltonian, _qwz_blocks
from artifact.quasifree import BasisProjection
from artifact.symgen import FluxGenerator
from dense_oracle import (assembled, dense_A, dense_basis_projection, dense_generator,
                          dense_ground_projection)

_BUILD = {
    "qwz": (4, lambda geom: build_qwz(1.0, geom), 1e-4),
    "pip": (2, lambda geom: build_pip(-1.0, 0.5, geom), 1e-4),
    "trivial": (2, build_trivial, 1e-8),
}

#: (family, radius, copies); qwz at N = 5 uses radius 4 so that the dense
#: oracle's stacked space stays near dim 1000
CASES = {
    "qwz_r6_n3": ("qwz", 6.0, 3), "qwz_r4_n5": ("qwz", 4.0, 5),
    "pip_r6_n3": ("pip", 6.0, 3), "pip_r6_n5": ("pip", 6.0, 5),
    "trivial_r6_n3": ("trivial", 6.0, 3), "trivial_r6_n5": ("trivial", 6.0, 5),
}


def _dressed_pair(P, part, N):
    ids, sgeom = core_regions(P, part, 0.7)
    base = sgeom.with_majorana_count(sgeom.majorana_count // N)
    q = cyclic_charge(N)
    lifted = [lift_charge(q, base, ids[a]) for a in (0, 1)]
    if P.copies == 1:  # the dense oracle: expand to the N = 1 generator
        lifted = [FluxGenerator(dense_generator(g)) for g in lifted]
    return [dress_charge(P, g, ids[a]) for a, g in enumerate(lifted)]


@pytest.fixture(scope="module", params=sorted(CASES))
def stack(request):
    family, radius, N = CASES[request.param]
    majoranas, build, gap_tol = _BUILD[family]
    geom = build_disk_lattice("square", radius, majorana_count=majoranas)
    h = build(geom)
    hs = stack_copies(h, N)
    P = ground_projection(hs, gap_tol)
    dense = dense_basis_projection(dense_ground_projection(hs, gap_tol), hs.geometry)
    return h, N, gap_tol, make_good_partition(geom.apex), P, dense


def test_factored_projection_matches_dense_stack(stack):
    _, N, _, _, P, dense = stack
    assert P.copies == N and dense.copies == 1
    assert float(np.max(np.abs(P.matrix - dense.matrix))) <= 1e-10


def test_factored_traces_match_dense_generators(stack):
    _, N, _, part, P, dense = stack
    g0, g1 = _dressed_pair(P, part, N)
    d0, d1 = _dressed_pair(dense, part, N)  # lifted charges expanded to N = 1
    assert g0.charge.shape == (N, N) and d0.charge.shape == (1, 1)
    assert float(np.max(np.abs(dense_generator(g0) - dense_generator(d0)))) <= 1e-10
    assert abs(hall_sigma(P, g0, g1, part) - hall_sigma(dense, d0, d1, part)) <= 1e-10
    bch = exchange_phase_bch(P, g0, g1, 0.1, 0.1, part)
    assert abs(bch - exchange_phase_bch(dense, d0, d1, 0.1, 0.1, part)) <= 1e-10
    # flux_unitary(g0) against flux_unitary(d0) follows from the Qtilde
    # agreement above and the expm pins of both generator kinds
    # (test_flux_unitaries_on_the_half_are_exponentials,
    # test_symgen.py::test_flux_unitary_of_a_complex_generator_is_its_exponential)


def test_twist_sigma_is_nu_times_copy_factor(stack):
    h, N, gap_tol, part, P, dense = stack
    nu = chern_number(ground_projection(h, gap_tol), part)
    sigma, _, _ = twist_statistics(P, N, part)
    assert abs(sigma - nu * (N**3 - N) / 24) <= 1e-10
    # twist_statistics is that identity; the dressed cyclic charges are its oracle
    for proj in (P, dense):
        assert abs(sigma - hall_sigma(proj, *_dressed_pair(proj, part, N), part)) <= 1e-10


@pytest.mark.parametrize("family", ["pip", "qwz"])
def test_a_geometry_less_stack_projects_as_kron(family):
    # a Hamiltonian built from a bare A has no geometry (the particle-hole
    # half is one); its stack keeps none and projects as kron(P1, I_3)
    disk = build_disk_lattice("square", 4.0, majorana_count=2 if family == "pip" else 4)
    block = build_pip(-1.0, 0.5, disk) if family == "pip" else assembled(disk, *_qwz_blocks(1.0))
    h = QuadraticHamiltonian(dense_A(block), None)
    assert h.fiber == (2 if family == "qwz" else 1)
    h3 = stack_copies(h, 3)
    assert h3.geometry is None and h3.copies == 3
    P1, P3 = ground_projection(h, 1e-4), ground_projection(h3, 1e-4)
    assert P3.geometry is None and P3.copies == 3
    assert np.array_equal(P3.matrix, np.kron(P1.matrix, np.eye(3)))


def test_stack_health_counts_every_copy():
    # two exact zero modes per copy: the stacked cluster is N times the block's
    h = build_trivial(build_disk_lattice("square", 4.0, majorana_count=2))
    K = dense_A(h)
    K[0:2, :] = 0.0
    K[:, 0:2] = 0.0
    h = QuadraticHamiltonian(K, h.geometry)
    P1 = ground_projection(h, 1e-8)
    P3 = ground_projection(stack_copies(h, 3), 1e-8)
    assert P1.health["zero_modes"] == 2 and P3.health["zero_modes"] == 6
    assert P3.health["edge_gap"] == P1.health["edge_gap"]
    assert P3.health["projection_residual"] == P1.health["projection_residual"]
    assert np.array_equal(P3.matrix, np.kron(P1.matrix, np.eye(3)))


#: (u, radius, copies) of qwz stacks kept on their particle-hole half (fiber
#: 2), compared with the same projection assembled in the model's basis
HALF_CASES = {
    "u1_r6_n3": (1.0, 6.0, 3), "u1_r4_n5": (1.0, 4.0, 5),
    "um1_r6_n3": (-1.0, 6.0, 3), "u1.8_r6_n3": (1.8, 6.0, 3),
}


@pytest.fixture(scope="module", params=sorted(HALF_CASES))
def half_stack(request):
    u, radius, N = HALF_CASES[request.param]
    geom = build_disk_lattice("square", radius, majorana_count=4)
    P = ground_projection(stack_copies(build_qwz(u, geom), N), 1e-4)
    assert P.fiber == 2
    return N, make_good_partition(geom.apex), P, dataclasses.replace(P, factor=P.O, fiber=1)


# alpha 0.1 takes the Mercator series; at 1.4 a sector of every case has
# |E|_F in [0.5, 0.71), the Cayley eigh, where the half's own |E'|_F, a factor
# sqrt(2) smaller, would take the series
@pytest.mark.parametrize("alpha", [0.1, 1.4])
def test_half_generators_match_the_assembled_O(half_stack, alpha, monkeypatch):
    # the flux pipeline on the half against the generic one on the assembled
    # O: dressed lifted charges, sigma, flux unitaries and exchange phases
    N, part, P, full = half_stack
    g0, g1 = _dressed_pair(P, part, N)
    d0, d1 = _dressed_pair(full, part, N)
    assert (g0.fiber, g1.fiber, d0.fiber) == (2, 2, 1)
    assert len(g0.factor) * 2 == len(d0.factor)
    assert float(np.max(np.abs(dense_generator(g0) - dense_generator(d0)))) <= 1e-12
    assert abs(hall_sigma(P, g0, g1, part) - hall_sigma(full, d0, d1, part)) <= 1e-12
    U = flux_unitary(g1, alpha)
    assert float(np.max(np.abs(U - flux_unitary(d1, alpha)))) <= 1e-12
    cayley, log = [], invariants._log_near_identity
    monkeypatch.setattr(invariants, "_log_near_identity",
                        lambda E: cayley.append(len(E)) or log(E))
    bch = exchange_phase_bch(P, g0, g1, alpha, alpha, part)
    assert abs(bch - exchange_phase_bch(full, d0, d1, alpha, alpha, part)) <= 1e-12
    # both take the same branch in every sector: the half's norm is scaled
    # to the model's
    k = len(cayley) // 2
    assert cayley == [len(g0.factor)] * k + [len(d0.factor)] * k
    assert (k > 0) == (alpha == 1.4)


def test_half_pipeline_never_assembles_O(half_stack, monkeypatch):
    # lift -> dress -> hall_sigma -> exchange_phase_bch on a qwz stack never
    # builds O = T(O'), and no eigh is larger than the factor
    N, part, P, _ = half_stack
    assembled, sizes = [], []
    T, eigh = quasifree._particle_hole_O, np.linalg.eigh
    monkeypatch.setattr(quasifree, "_particle_hole_O",
                        lambda X: assembled.append(X.shape) or T(X))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    g0, g1 = _dressed_pair(P, part, N)
    hall_sigma(P, g0, g1, part)
    for alpha in (0.1, 1.4):
        exchange_phase_bch(P, g0, g1, alpha, alpha, part)
    assert assembled == []
    assert sizes and max(sizes) == len(P.factor) == P.dim_K // (2 * N)


def test_flux_unitary_eigh_stays_at_the_factor(half_stack, monkeypatch):
    # the unitary of a generator on the half is summed over its charge
    # sectors from the eigh of the half's block, never of T(B')
    N, part, P, _ = half_stack
    g0, _ = _dressed_pair(P, part, N)
    sizes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    flux_unitary(g0, 0.7)
    assert max(sizes) == len(g0.factor) == P.dim_K // (2 * N)


def test_flux_unitaries_on_the_half_are_exponentials():
    # a dressed lifted cyclic charge and a parity generator (charge I_N),
    # both kept on the half, against scipy's expm of the dense Qtilde
    u, radius, N = HALF_CASES["u1_r4_n5"]
    geom = build_disk_lattice("square", radius, majorana_count=4)
    part = make_good_partition(geom.apex)
    P = ground_projection(stack_copies(build_qwz(u, geom), N), 1e-4)
    ids, _ = core_regions(P, part, 0.7)
    for g in (_dressed_pair(P, part, N)[0], parity_charge(P, ids[0], P.geometry)):
        assert g.fiber == 2 and len(g.charge) == N
        want = scipy.linalg.expm(0.7j * dense_generator(g))
        assert float(np.max(np.abs(flux_unitary(g, 0.7) - want))) <= 1e-12


def test_generators_of_different_fibers_are_refused(half_stack):
    N, part, P, full = half_stack
    g0, g1 = _dressed_pair(P, part, N)
    d0, d1 = _dressed_pair(full, part, N)
    for a, b in ((g0, d1), (d0, g1)):
        with pytest.raises(ComputationError, match="dimension mismatch"):
            hall_sigma(P, a, b, part)
        with pytest.raises(ComputationError, match="dimension mismatch"):
            exchange_phase_bch(P, a, b, 0.1, 0.1, part)
    # a generator on the half does not act on a fiber-1 projection, nor two
    # model-basis generators on the half
    for call in (lambda: dress_charge(full, g0), lambda: hall_sigma(full, g0, g1, part),
                 lambda: exchange_phase_bch(full, g0, g1, 0.1, 0.1, part),
                 lambda: hall_sigma(P, d0, d1, part)):
        with pytest.raises(ComputationError, match="dimension mismatch"):
            call()
    # two model-basis generators run the generic path on the fiber-1 view
    view = BasisProjection(P.O, P.geometry, copies=P.copies)
    assert abs(hall_sigma(view, d0, d1, part) - hall_sigma(full, d0, d1, part)) <= 1e-12


def test_a_dense_block_on_a_half_projection_dresses_through_O(half_stack, monkeypatch):
    # a dense block, or a diagonal one that is not constant on T's 4 x 4
    # fibers, is refused on the half and dressed in the model's basis on the
    # fiber-1 view, against the one assembled P.O
    N, _, P, full = half_stack
    reads, assembled = [], BasisProjection.O

    def spied_O(self):
        reads.append(self.fiber)
        return assembled.fget(self)

    monkeypatch.setattr(BasisProjection, "O", property(spied_O))
    rng = np.random.default_rng(3)
    n = len(full.factor)
    G = rng.standard_normal((n, n))
    view = BasisProjection(P.O, P.geometry, copies=P.copies)
    for B in ((G + G.T) / 2, np.diag(rng.standard_normal(n))):
        with pytest.raises(ComputationError,
                           match=re.escape("BasisProjection(P.O, P.geometry, copies=P.copies)")):
            dress_charge(P, FluxGenerator(B, cyclic_charge(N)))
        g = dress_charge(view, FluxGenerator(B, cyclic_charge(N)))
        assert g.fiber == 1
        want = dress_charge(full, FluxGenerator(B, cyclic_charge(N)))
        assert float(np.max(np.abs(g.factor - want.factor))) <= 1e-12
    assert reads == [2]


@pytest.mark.parametrize("stack_fixture", ["qwz_stack3_r6_generators", "pip_stack3_r6"])
def test_the_flux_pipeline_reads_only_the_factor(stack_fixture, request, monkeypatch):
    # lift -> dress -> hall_sigma -> exchange_phase_bch -> parity_charge on a
    # qwz half and on a pip fiber-1 stack (three copies, R=6) reads neither
    # the assembled O nor T: every step takes P.factor. On the half a dense
    # block that does not fold is refused before reading either
    P, part = request.getfixturevalue(stack_fixture)[:2]
    reads, assembled, T = [], BasisProjection.O, quasifree._particle_hole_O
    monkeypatch.setattr(BasisProjection, "O",
                        property(lambda self: reads.append("O") or assembled.fget(self)))
    monkeypatch.setattr(quasifree, "_particle_hole_O", lambda X: reads.append("T") or T(X))
    g0, g1 = _dressed_pair(P, part, 3)
    sigma = hall_sigma(P, g0, g1, part)
    bch = exchange_phase_bch(P, g0, g1, 0.1, 0.1, part)
    ids, _ = core_regions(P, part, 0.7)
    parity_charge(P, ids[0], P.geometry)
    if P.fiber == 2:
        n = P.dim_K // P.copies
        G = np.random.default_rng(4).standard_normal((n, n))
        with pytest.raises(ComputationError, match="fiber-1 view"):
            dress_charge(P, FluxGenerator(G + G.T, cyclic_charge(3)))
    assert reads == []
    assert g0.fiber == g1.fiber == P.fiber == (2 if stack_fixture.startswith("qwz") else 1)
    assert abs(bch - exchange_phase_closed(sigma, 0.1, 0.1)) <= 1e-4
