import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (ComputationError, CovarianceOperator, build_disk_lattice,
                      build_pip, build_qwz, build_trivial, chern_number,
                      ground_projection, make_good_partition, pfaffian_expectation,
                      random_covariance, stack_copies, wick_expectation)
from artifact import _util, quasifree
from artifact.models import QuadraticHamiltonian
from artifact.quasifree import BasisProjection, _pfaffian
from dense_oracle import dense_ground_projection


@pytest.fixture(scope="module")
def trivial_projection():
    geom = build_disk_lattice("square", 4.0, majorana_count=2)
    h = build_trivial(geom)
    return ground_projection(h, 1e-8), h


def _projection_residuals(P):
    dim = P.shape[0]
    idem = float(np.max(np.abs(P @ P - P)))
    herm = float(np.max(np.abs(P - P.conj().T)))
    selfdual = float(np.max(np.abs(P + np.conj(P) - np.eye(dim))))
    return idem, herm, selfdual


def test_trivial_projection_invariants(trivial_projection):
    P, h = trivial_projection
    idem, herm, selfdual = _projection_residuals(P.matrix)
    assert max(idem, herm, selfdual) <= 1e-12
    assert round(np.trace(P.matrix).real) * 2 == P.dim_K
    assert P.source == "trivial"
    assert P.geometry is h.geometry
    assert P.health == {"edge_gap": pytest.approx(1.0, abs=1e-12), "zero_modes": 0,
                        "projection_residual": pytest.approx(0.0, abs=1e-12)}


def test_disk_projection_invariants(qwz_r6):
    P, _ = qwz_r6
    idem, herm, selfdual = _projection_residuals(P.matrix)
    assert max(idem, herm, selfdual) <= 1e-12


def test_zero_hamiltonian_unresolvable(trivial_projection):
    _, h = trivial_projection
    h0 = dataclasses.replace(h, block=np.zeros_like(h.matrix))
    with pytest.raises(ComputationError, match="unresolvable zero modes"):
        ground_projection(h0, 1e-8)


def test_exact_zero_pair_resolved(trivial_projection):
    _, h = trivial_projection
    K = h.matrix.copy()
    K[0:2, :] = 0.0
    K[:, 0:2] = 0.0
    hz = dataclasses.replace(h, block=K)
    P = ground_projection(hz, 1e-8)
    idem, herm, selfdual = _projection_residuals(P.matrix)
    assert max(idem, herm, selfdual) <= 1e-12
    assert round(np.trace(P.matrix).real) * 2 == P.dim_K


def test_selfdual_violating_input_reported_gapless(trivial_projection):
    _, h = trivial_projection
    K = h.matrix.copy()
    # a real symmetric on-site block has conjugation-symmetric eigenvectors,
    # which cannot be half-filled compatibly
    K[0:2, 0:2] = np.array([[0.3, 0.0], [0.0, -0.3]])
    hz = dataclasses.replace(h, block=K)
    with pytest.raises(ComputationError, match="gapless"):
        ground_projection(hz, 1e-8)


def _split_pair(h, eps):
    """h with the on-site block of site 0 replaced by a +-eps pair."""
    K = h.matrix.copy()
    K[0:2, 0:2] = np.array([[0.0, 1j * eps], [-1j * eps, 0.0]])
    return dataclasses.replace(h, block=K)


def test_nonhermitian_hamiltonian_refused(trivial_projection):
    _, h = trivial_projection
    K = h.matrix.copy()
    K[0, 1] += 1e-6j
    with pytest.raises(ComputationError, match="not Hermitian"):
        ground_projection(dataclasses.replace(h, block=K), 1e-8)


def test_structure_not_commuting_with_h_reported_gapless(trivial_projection, monkeypatch):
    # rotating O between two sites keeps O^T = -O and O^2 = -I (validate
    # passes) but breaks [A, O] = 0, which only the commutator check sees
    _, h = trivial_projection
    real_structure = quasifree._complex_structure

    def rotated(A, gap_tol):
        O, edge_gap, m = real_structure(A, gap_tol)
        R = np.eye(O.shape[0])
        c, s = np.cos(0.3), np.sin(0.3)
        R[np.ix_([0, 2], [0, 2])] = [[c, -s], [s, c]]
        O = R @ O @ R.T
        O = (O - O.T) / 2
        BasisProjection(quasifree._projection_matrix(O), "rotated", gap_tol).validate()
        return O, edge_gap, m

    monkeypatch.setattr(quasifree, "_complex_structure", rotated)
    with pytest.raises(ComputationError, match="gapless"):
        ground_projection(h, 1e-8)


def test_oversize_job_refused_up_front(trivial_projection, monkeypatch):
    _, h = trivial_projection
    monkeypatch.setattr(_util, "available_memory", lambda: 10**5)
    with pytest.raises(ComputationError,
                       match=r"projection needs ~\S+ GB, 0\.0001 GB available"):
        ground_projection(h, 1e-8)
    monkeypatch.setattr(_util, "available_memory", lambda: None)
    ground_projection(h, 1e-8)


# ---------------------------------------------------------------------------
# the real path against the dense complex oracle


def _pip_r8():
    return build_pip(-1.0, 0.5, build_disk_lattice("square", 8.0, majorana_count=2))


def _qwz_stack3_r4():
    return stack_copies(build_qwz(1.0, build_disk_lattice("square", 4.0, majorana_count=4)), 3)


ORACLE_CASES = {
    "triv_r6": (lambda: build_trivial(build_disk_lattice("square", 6.0, majorana_count=2)), 1e-8),
    "qwz_r6": (lambda: build_qwz(1.0, build_disk_lattice("square", 6.0, majorana_count=4)), 1e-4),
    "pip_r8": (_pip_r8, 1e-4),
    "qwz_stack3_r4": (_qwz_stack3_r4, 1e-4),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_real_path_matches_dense_oracle(case):
    build, gap_tol = ORACLE_CASES[case]
    h = build()
    P = ground_projection(h, gap_tol)
    Pd = dense_ground_projection(h, gap_tol)
    assert float(np.max(np.abs(P.matrix - Pd))) <= 1e-10
    part = make_good_partition(h.geometry.apex)
    dense = BasisProjection(Pd, "dense", gap_tol, h.geometry)
    assert abs(chern_number(P, part) - chern_number(dense, part)) <= 1e-10


@pytest.mark.parametrize("kind", ["exact_zero_pair", "split_pair"])
def test_cluster_inputs_match_dense_oracle(trivial_projection, kind):
    _, h = trivial_projection
    if kind == "split_pair":
        h = _split_pair(h, 1e-10)
    else:
        # four exact zero modes on a generic subspace: the pairing is a choice
        # that only the canonical null basis makes the same in both paths
        K = h.matrix.copy()
        K[0:4, :] = 0.0
        K[:, 0:4] = 0.0
        Q = np.linalg.qr(np.random.default_rng(5).standard_normal(K.shape))[0]
        h = dataclasses.replace(h, block=Q @ K @ Q.T)
    P = ground_projection(h, 1e-8)
    if kind == "split_pair":
        assert P.health["edge_gap"] == pytest.approx(1e-10, rel=1e-6)
        # the block is -eps sigma_y; its lambda = -eps eigenvector
        # (1, i)/sqrt(2) is the occupied member
        assert abs(P.matrix[0, 1] + 0.5j) <= 1e-12
    assert P.health["zero_modes"] == (2 if kind == "split_pair" else 4)
    assert P.health["projection_residual"] <= 1e-12
    assert float(np.max(np.abs(P.matrix - dense_ground_projection(h, 1e-8)))) <= 1e-10


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_real_path_matches_oracle_on_random_spectra(seed):
    # A = Q blockdiag(lambda_k J) Q^T with lambda spread log-uniformly over
    # [2 gap_tol, 4] and a few nearly degenerate pairs just above 2 gap_tol:
    # the modes whose lambda^2 the squared problem cannot resolve
    gap_tol = 1e-4
    rng = np.random.default_rng(seed)
    pairs = int(rng.integers(1, 13))
    lam = np.exp(rng.uniform(np.log(2 * gap_tol), np.log(4.0), pairs))
    close = int(rng.integers(0, pairs + 1))
    lam[:close] = 2 * gap_tol * (1 + 1e-6 * rng.random(close))
    lam *= rng.choice([-1.0, 1.0], pairs)
    Q = np.linalg.qr(rng.standard_normal((2 * pairs, 2 * pairs)))[0]
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A = Q @ np.kron(np.diag(lam), J) @ Q.T
    h = QuadraticHamiltonian(1j * (A - A.T) / 2, None, "random")
    P = ground_projection(h, gap_tol)  # validates at 1e-12, [A, O] included
    assert P.health["projection_residual"] <= 1e-12
    assert P.health["zero_modes"] == 0
    assert P.health["edge_gap"] == pytest.approx(float(np.min(np.abs(lam))), rel=1e-6)
    assert float(np.max(np.abs(P.matrix - dense_ground_projection(h, gap_tol)))) <= 1e-10
    O_exact = Q @ np.kron(np.diag(np.sign(lam)), J) @ Q.T
    assert float(np.max(np.abs(P.O - O_exact))) <= 1e-10


def test_covariance_of_projection_is_valid(trivial_projection):
    P, _ = trivial_projection
    # the two-point operator of the pure state built on P is P itself
    CovarianceOperator(P.matrix).validate()


# ---------------------------------------------------------------------------
# moment evaluators


def test_single_vector_vanishes():
    rng = np.random.default_rng(0)
    S = random_covariance(8, rng)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert wick_expectation(S, [v]) == 0


def test_pair_moment_is_bilinear_form():
    rng = np.random.default_rng(1)
    S = random_covariance(10, rng)
    f = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    g = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    assert abs(wick_expectation(S, [f, g]) - f @ S.matrix @ g) <= 1e-12
    assert abs(pfaffian_expectation(S, [f, g]) - f @ S.matrix @ g) <= 1e-12


def test_car_relation():
    rng = np.random.default_rng(2)
    S = random_covariance(12, rng)
    f = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    g = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    lhs = wick_expectation(S, [f, g]) + wick_expectation(S, [g, f])
    assert abs(lhs - f @ g) <= 1e-12


def test_oracle_size_cap():
    rng = np.random.default_rng(3)
    S = random_covariance(4, rng)
    vs = [rng.standard_normal(4) for _ in range(13)]
    with pytest.raises(ComputationError, match="oracle too large"):
        wick_expectation(S, vs)


@pytest.mark.parametrize("dim,n_vec,tol", [(8, 4, 1e-10), (12, 6, 1e-9)])
def test_pfaffian_matches_wick(dim, n_vec, tol):
    rng = np.random.default_rng(dim * 100 + n_vec)
    S = random_covariance(dim, rng)
    vs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
          for _ in range(n_vec)]
    assert abs(pfaffian_expectation(S, vs) - wick_expectation(S, vs)) <= tol


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_pfaffian_matches_wick_random(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([4, 6, 8]))
    S = random_covariance(dim, rng)
    n_vec = int(rng.choice([2, 4]))
    vs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
          for _ in range(n_vec)]
    assert abs(pfaffian_expectation(S, vs) - wick_expectation(S, vs)) <= 1e-10


def test_adjacent_swap_antisymmetry_on_isotropic_vectors():
    rng = np.random.default_rng(9)
    dim = 8
    S = random_covariance(dim, rng)
    # vectors w_a = (e_{2a} + i e_{2a+1})/sqrt2 satisfy w_a^T w_b = 0, so the
    # scalar anticommutator term drops and moments are fully antisymmetric
    O = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    ws = [(O[:, 2 * a] + 1j * O[:, 2 * a + 1]) / np.sqrt(2) for a in range(4)]
    for k in range(3):
        swapped = list(ws)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        assert abs(wick_expectation(S, swapped) + wick_expectation(S, ws)) <= 1e-12
        assert abs(pfaffian_expectation(S, swapped) + pfaffian_expectation(S, ws)) <= 1e-12


def test_pfaffian_of_direct_sum_factorizes():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Ma = np.triu(a, 1) - np.triu(a, 1).T
    pf4 = Ma[0, 1] * Ma[2, 3] - Ma[0, 2] * Ma[1, 3] + Ma[0, 3] * Ma[1, 2]
    assert abs(_pfaffian(Ma) - pf4) <= 1e-12
    M = np.zeros((6, 6), dtype=complex)
    M[:4, :4] = Ma
    M[4, 5], M[5, 4] = 2.0, -2.0
    assert abs(_pfaffian(M) - 2.0 * pf4) <= 1e-12


def test_odd_dimension_pfaffian_is_zero():
    M = np.zeros((3, 3), dtype=complex)
    M[0, 1], M[1, 0] = 1.0, -1.0
    assert _pfaffian(M) == 0
