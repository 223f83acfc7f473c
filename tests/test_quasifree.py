import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (ComputationError, CovarianceOperator, build_disk_lattice,
                      build_trivial, ground_projection, pfaffian_expectation,
                      random_covariance, wick_expectation)
from artifact.quasifree import BasisProjection, _pfaffian


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


def test_disk_projection_invariants(qwz_r6):
    P, _ = qwz_r6
    idem, herm, selfdual = _projection_residuals(P.matrix)
    assert max(idem, herm, selfdual) <= 1e-12


def test_zero_hamiltonian_unresolvable(trivial_projection):
    _, h = trivial_projection
    h0 = dataclasses.replace(h, matrix=np.zeros_like(h.matrix))
    with pytest.raises(ComputationError, match="unresolvable zero modes"):
        ground_projection(h0, 1e-8)


def test_exact_zero_pair_resolved(trivial_projection):
    _, h = trivial_projection
    K = h.matrix.copy()
    K[0:2, :] = 0.0
    K[:, 0:2] = 0.0
    hz = dataclasses.replace(h, matrix=K)
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
    hz = dataclasses.replace(h, matrix=K)
    with pytest.raises(ComputationError, match="gapless"):
        ground_projection(hz, 1e-8)


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
