import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (ComputationError, build_disk_lattice,
                      build_pip, build_qwz, build_trivial, chern_number,
                      ground_projection, make_good_partition, pfaffian_expectation,
                      random_covariance, stack_copies, wick_expectation)
from artifact import _util, models, quasifree
from artifact.cli import main
from artifact.models import QuadraticHamiltonian
from artifact.quasifree import BasisProjection, _antisymmetrize, _pfaffian, _transpose_residual
from dense_oracle import (dense_A_structure, dense_basis_projection, dense_gram,
                          dense_ground_projection)


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
    assert P.geometry is h.geometry
    assert P.health == {"edge_gap": pytest.approx(1.0, abs=1e-12), "zero_modes": 0,
                        "projection_residual": pytest.approx(0.0, abs=1e-12)}


def test_disk_projection_invariants(qwz_r6):
    P, _ = qwz_r6
    idem, herm, selfdual = _projection_residuals(P.matrix)
    assert max(idem, herm, selfdual) <= 1e-12


def test_ground_state_is_stored_real(qwz_r6):
    # A and O are what is stored; iA and (I - iO)/2 are built on read
    P, _ = qwz_r6
    h = build_qwz(1.0, P.geometry)
    for stored in (h, stack_copies(h, 3), QuadraticHamiltonian(h.matrix, h.geometry)):
        assert all(block.dtype == np.float64 for *_, block in stored.blocks)
    assert P.O.dtype == np.float64
    assert np.array_equal(h.matrix, 1j * h.dense())
    assert np.array_equal(P.matrix, (np.eye(P.dim_K) - 1j * P.O) / 2)


def test_zero_hamiltonian_unresolvable(trivial_projection):
    _, h = trivial_projection
    h0 = QuadraticHamiltonian(np.zeros_like(h.matrix), h.geometry)
    with pytest.raises(ComputationError, match="unresolvable zero modes"):
        ground_projection(h0, 1e-8)


def test_exact_zero_pair_resolved(trivial_projection):
    _, h = trivial_projection
    K = h.matrix.copy()
    K[0:2, :] = 0.0
    K[:, 0:2] = 0.0
    hz = QuadraticHamiltonian(K, h.geometry)
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
    with pytest.raises(ComputationError, match="gapless"):
        ground_projection(QuadraticHamiltonian(K, h.geometry), 1e-8)


def _split_pair(h, eps):
    """h with the on-site block of site 0 replaced by a +-eps pair."""
    K = h.matrix.copy()
    K[0:2, 0:2] = np.array([[0.0, 1j * eps], [-1j * eps, 0.0]])
    return QuadraticHamiltonian(K, h.geometry)


def test_nonhermitian_hamiltonian_refused(trivial_projection):
    _, h = trivial_projection
    K = h.matrix.copy()
    K[0, 1] += 1e-6j
    with pytest.raises(ComputationError, match="not Hermitian"):
        ground_projection(QuadraticHamiltonian(K, h.geometry), 1e-8)


def test_non_finite_hamiltonian_refused(trivial_projection):
    # NaN != 0 puts a NaN inside an envelope block, where the finiteness
    # check sees it; every residual check would read NaN as passing
    _, h = trivial_projection
    for bad in (np.nan, np.inf):
        A = h.dense()
        A[0, 1] = bad
        with pytest.raises(ComputationError, match="not finite"):
            QuadraticHamiltonian(A, h.geometry)
    K = h.matrix.copy()
    K[0, 1] += np.nan  # a NaN real part of iA
    with pytest.raises(ComputationError, match="gapless: real part nan"):
        QuadraticHamiltonian(K, h.geometry)


def test_nan_projection_refused(trivial_projection):
    P, _ = trivial_projection
    O = P.O.copy()
    O[0, 1] = np.nan
    with pytest.raises(ComputationError, match="not Hermitian: nan"):
        dataclasses.replace(P, O=O).validate()
    O = np.full_like(P.O, np.nan)
    with pytest.raises(ComputationError, match="non-Hermitian anomaly"):
        chern_number(dataclasses.replace(P, O=O), make_good_partition(P.geometry.apex))


def test_validate_squares_an_exactly_antisymmetric_structure_by_syrk(qwz_r6):
    # ground_projection's O is exactly antisymmetric, so validate takes
    # O O^T - I (a syrk): the residual of O^2 + I up to rounding
    P, _ = qwz_r6
    O = P.O
    assert np.array_equal(O, -O.T)
    square = float(np.max(np.abs(O @ O + np.eye(len(O)))))
    assert P.validate() <= 1e-12
    assert abs(P.validate() - square) <= 1e-15
    # a bad square is refused on both paths: exactly antisymmetric, and
    # with an asymmetry inside the tolerance
    bad = O * 1.01
    assert np.array_equal(bad, -bad.T)
    with pytest.raises(ComputationError, match="not idempotent"):
        BasisProjection(bad).validate()
    bad[0, 1] += 1e-13
    with pytest.raises(ComputationError, match="not idempotent"):
        BasisProjection(bad).validate()
    O = O.copy()
    O[0, 1] += 1e-13
    assert 1e-13 <= BasisProjection(O).validate() <= 1e-12


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
        BasisProjection(O).validate()
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


@pytest.mark.parametrize("gap_tol", [np.nan, -1.0, np.inf])
def test_bad_gap_tol_refused_before_any_eigh(trivial_projection, gap_tol, monkeypatch):
    # a NaN window would be the whole space, a negative one wider than asked,
    # and inf would fail only as unresolvable zero modes
    _, h = trivial_projection

    def no_structure(*args):
        raise AssertionError("the spectrum was read before gap_tol was checked")

    monkeypatch.setattr(quasifree, "_complex_structure", no_structure)
    with pytest.raises(ComputationError, match="gap_tol must be a finite number >= 0"):
        ground_projection(h, gap_tol)
    with pytest.raises(AssertionError):  # 0 is valid and reaches the spectrum
        ground_projection(h, 0.0)


def test_projection_peak_stays_below_its_memory_estimate():
    # the memory guard refuses up front on _WORKING_ARRAYS dim x dim arrays
    h = build_qwz(1.0, build_disk_lattice("square", 8.0, majorana_count=4))
    tracemalloc.start()
    try:
        ground_projection(h, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _util._WORKING_ARRAYS * 8 * h.dim**2
    # no transposed dim x dim buffer in the projection's tail (it was 3.0)
    assert peak < 2.5 * 8 * h.dim**2


TILE_SIZES = [1, 2, 255, 256, 257, 773]


@pytest.mark.parametrize("n", TILE_SIZES)
def test_tile_antisymmetrization_is_the_dense_one(n):
    O = np.random.default_rng(n).standard_normal((n, n))
    O[0, -1] = O[-1, 0]  # an entry whose difference is an exact zero
    expected = (O - O.T) / 2
    _antisymmetrize(O)
    assert np.array_equal(O, expected)
    assert O.tobytes() == expected.tobytes()  # signed zeros included


@pytest.mark.parametrize("n", TILE_SIZES)
def test_tiled_transpose_residuals_are_the_dense_ones(n):
    rng = np.random.default_rng(n + 1)
    M = rng.standard_normal((n, n))
    near = M - M.T + 1e-14 * rng.standard_normal((n, n))  # nearly antisymmetric
    for X in (M, near):
        assert _transpose_residual(X, np.add) == float(np.max(np.abs(X + X.T)))
        assert _transpose_residual(X, np.subtract) == float(np.max(np.abs(X - X.T)))


NAN_SPOTS = [(0, 0), (0, 447), (447, 0), (300, 300), (260, 5), (5, 260), (447, 447)]


@pytest.mark.parametrize("spot", NAN_SPOTS)
def test_one_nan_anywhere_is_refused(qwz_r6, spot, monkeypatch):
    # the tile maxima are reduced by numpy, so one NaN in any tile, on or
    # off the diagonal, refuses validate and the commutator check
    P, _ = qwz_r6
    O = P.O.copy()
    assert O.shape == (448, 448)
    O[spot] = np.nan
    for op in (np.add, np.subtract):
        assert np.isnan(_transpose_residual(O, op))
    with pytest.raises(ComputationError, match="not Hermitian: nan"):
        BasisProjection(O).validate()
    h = build_qwz(1.0, P.geometry)
    monkeypatch.setattr(quasifree, "_complex_structure", lambda h, gap_tol: (O, 0.5, 0))
    monkeypatch.setattr(BasisProjection, "validate", lambda self: 0.0)
    with pytest.raises(ComputationError, match=r"gapless: \[A, O\] residual nan"):
        ground_projection(h, 1e-4)


def _local_operator(case):
    rng = np.random.default_rng(17)
    if case == "zero":
        return np.zeros((300, 300))
    if case == "dense":
        A = rng.standard_normal((300, 300))
        return A - A.T
    majoranas = 2 if case in ("pip", "trivial") else 4
    geom = build_disk_lattice("square", 6.0, majorana_count=majoranas)
    if case == "trivial":
        return build_trivial(geom).dense()
    if case == "pip":
        return build_pip(-1.0, 0.5, geom).dense()
    A = build_qwz(1.0, geom).dense()
    if case == "far_corner":
        # one coupling far outside the stencil: the envelope is read from A
        A[0, -1], A[-1, 0] = 1.0, -1.0
    return A


@pytest.mark.parametrize("case", ["qwz", "pip", "trivial", "zero", "dense", "far_corner"])
def test_local_matmul_is_the_product(case):
    A = _local_operator(case)
    n = A.shape[0]
    assert n % models._ENVELOPE_ROWS  # a short last row block
    full = np.random.default_rng(3).standard_normal((n, n))
    X = full[:, n // 3:]  # not contiguous, as the columns V[:, k:] of eigh
    assert not X.flags.c_contiguous
    for Y in (X, A, full):
        bound = 1e-14 * (np.abs(A) @ np.abs(Y))
        assert np.all(np.abs(QuadraticHamiltonian(A, None).matmul(Y) - A @ Y) <= bound)


@pytest.mark.parametrize("case", ["qwz", "pip", "trivial", "zero", "dense", "far_corner",
                                  "qwz_stack3"])
def test_band_limited_square_is_the_product_bit_for_bit(case):
    # h.gram(): A^T A as the sum of B^T B over the blocks, each over its
    # column span; bit for bit the dense reference's sum, and the plain
    # product within the matmul bound
    if case == "qwz_stack3":
        h = stack_copies(build_qwz(1.0, build_disk_lattice("square", 6.0, majorana_count=4)), 3)
    else:
        h = QuadraticHamiltonian(_local_operator(case), None)
    A = h.dense()
    S = h.gram()
    assert np.array_equal(S, dense_gram(A))
    assert np.array_equal(S, S.T)
    assert np.all(np.abs(S - A.T @ A) <= 1e-14 * (np.abs(A).T @ np.abs(A)))


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
    dense = dense_basis_projection(Pd, h.geometry)
    assert abs(chern_number(P, part) - chern_number(dense, part)) <= 1e-10


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_structure_equals_the_dense_A_reference_bit_for_bit(case):
    # the Hamiltonian keeps only A's envelope blocks; the real path's O is
    # the one a dense A held throughout gives with the same products
    build, gap_tol = ORACLE_CASES[case]
    h = build()
    assert np.array_equal(quasifree._real_structure(h, gap_tol)[0],
                          dense_A_structure(h.dense(), gap_tol))


# ---------------------------------------------------------------------------
# the charge path against the real path


def _disk(radius, majoranas):
    return build_disk_lattice("square", radius, majorana_count=majoranas)


CHARGE_CASES = {
    "qwz_u1_r12": (lambda: build_qwz(1.0, _disk(12.0, 4)), 1e-4),
    "qwz_u-1_r8": (lambda: build_qwz(-1.0, _disk(8.0, 4)), 1e-4),
    "qwz_u1.8_r8": (lambda: build_qwz(1.8, _disk(8.0, 4)), 1e-4),
    "triv2_r12": (lambda: build_trivial(_disk(12.0, 2)), 1e-8),
    "triv6_r6": (lambda: build_trivial(_disk(6.0, 6)), 1e-8),
    "qwz_stack3_r6": (lambda: stack_copies(build_qwz(1.0, _disk(6.0, 4)), 3), 1e-4),
}


@pytest.mark.parametrize("case", sorted(CHARGE_CASES))
def test_charge_path_matches_the_real_path(case):
    # production takes the charge path on every disk without pairing; the
    # generic real path licenses it
    build, gap_tol = CHARGE_CASES[case]
    h = build()
    O, edge_gap, m = quasifree._charge_structure(h, gap_tol)
    O_real, edge_gap_real, m_real = quasifree._real_structure(h, gap_tol)
    assert m == m_real == 0
    assert np.array_equal(O, -O.T)
    assert float(np.max(np.abs(O - O_real))) <= 1e-13
    assert edge_gap == pytest.approx(edge_gap_real, rel=1e-10)
    P = ground_projection(h, gap_tol)
    assert np.array_equal(P.O, O)
    assert P.health["edge_gap"] == edge_gap and P.health["zero_modes"] == 0
    part = make_good_partition(h.geometry.apex)
    real = BasisProjection(O_real, h.geometry, copies=h.copies)
    assert abs(chern_number(P, part) - chern_number(real, part)) <= 1e-12


def _perturbed_qwz():
    """qwz R=6 with one hopping entry moved: fiber (0, 1) no longer reads
    x I + y eps."""
    h = build_qwz(1.0, _disk(6.0, 4))
    A = h.dense()
    A[0, 3] += 1e-3
    A[3, 0] -= 1e-3
    return QuadraticHamiltonian(A, h.geometry)


def _zero_pair_trivial():
    """trivial R=4 with the fiber of site 0 zeroed: still x I + y eps, with
    an exact zero pair."""
    h = build_trivial(_disk(4.0, 2))
    A = h.dense()
    A[0:2, :] = 0.0
    A[:, 0:2] = 0.0
    return QuadraticHamiltonian(A, h.geometry)


FALLBACK_CASES = {"pip_r8": (_pip_r8, 1e-4, False), "perturbed_qwz_r6": (_perturbed_qwz, 1e-4, False),
                  "zero_pair_trivial_r4": (_zero_pair_trivial, 1e-8, True)}


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_fallback_is_the_real_path_bit_for_bit(case):
    build, gap_tol, structured = FALLBACK_CASES[case]
    h = build()
    assert (h.charge_hamiltonian() is not None) == structured
    assert quasifree._charge_structure(h, gap_tol) is None
    O, edge_gap, m = quasifree._real_structure(h, gap_tol)
    P = ground_projection(h, gap_tol)
    assert P.O.tobytes() == O.tobytes()
    assert P.health["edge_gap"] == edge_gap and P.health["zero_modes"] == m
    assert m == (2 if structured else 0)


@pytest.mark.parametrize("case", ["qwz", "trivial6", "qwz_stack3"])
def test_charge_hamiltonian_is_A_on_the_pairs(case):
    # A = -iH on z_a = gamma_{a,1} + i gamma_{a,2}: the real form of -iH,
    # entry for entry
    if case == "qwz":
        h = build_qwz(1.0, _disk(6.0, 4))
    elif case == "trivial6":
        h = build_trivial(_disk(5.0, 6))
    else:
        h = stack_copies(build_qwz(-1.0, _disk(4.0, 4)), 3)
    H, A = h.charge_hamiltonian(), h.dense()
    assert H.shape == (h.dim // 2, h.dim // 2)
    assert np.array_equal(H, H.conj().T)
    assert np.array_equal(A[0::2, 0::2], H.imag) and np.array_equal(A[1::2, 1::2], H.imag)
    assert np.array_equal(A[0::2, 1::2], H.real) and np.array_equal(A[1::2, 0::2], -H.real)


def test_charge_structure_is_read_from_the_entries():
    # pairing, one broken fiber, a fiber cut at an odd column and an odd
    # dimension all give None; a far coupling of the right form does not
    assert _pip_r8().charge_hamiltonian() is None
    assert _perturbed_qwz().charge_hamiltonian() is None
    far = build_trivial(_disk(4.0, 2)).dense()
    far[0:2, -2:] = [[0.25, 0.5], [-0.5, 0.25]]  # x I + y eps, x = 0.25, y = 0.5
    far[-2:, 0:2] = -far[0:2, -2:].T
    H = QuadraticHamiltonian(far, None).charge_hamiltonian()
    assert H[0, -1] == 0.5 + 0.25j and H[-1, 0] == 0.5 - 0.25j
    odd = np.zeros((260, 260))
    odd[0, 131], odd[131, 0] = 1.0, -1.0
    h = QuadraticHamiltonian(odd, None)
    assert h.blocks[0][2:4] == (131, 132)  # read on the widened span 130:132
    assert h.charge_hamiltonian() is None
    J = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert QuadraticHamiltonian(J, None).charge_hamiltonian() is None


def test_charge_path_peak_stays_below_its_measured_value():
    # O, G, G^+ and S = G G^+: tracemalloc measured 2.00 dim x dim arrays at
    # dim 804, 1816 and 3216 (LAPACK's buffers in the eigh are not traced)
    h = build_qwz(1.0, _disk(8.0, 4))
    tracemalloc.start()
    try:
        assert quasifree._charge_structure(h, 1e-4) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.1 * 8 * h.dim**2


def _four_zero_modes(h):
    """h with four exact zero modes on a generic subspace: the pairing is a
    choice that only the canonical null basis makes the same in both paths."""
    K = h.matrix.copy()
    K[0:4, :] = 0.0
    K[:, 0:4] = 0.0
    Q = np.linalg.qr(np.random.default_rng(5).standard_normal(K.shape))[0]
    return QuadraticHamiltonian(Q @ K @ Q.T, h.geometry)


@pytest.mark.parametrize("kind", ["exact_zero_pair", "split_pair"])
def test_cluster_inputs_match_dense_oracle(trivial_projection, kind):
    _, h = trivial_projection
    if kind == "split_pair":
        h = _split_pair(h, 1e-10)
    else:
        h = _four_zero_modes(h)
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
    h = QuadraticHamiltonian(1j * (A - A.T) / 2, None)
    P = ground_projection(h, gap_tol)  # validates at 1e-12, [A, O] included
    assert P.health["projection_residual"] <= 1e-12
    assert P.health["zero_modes"] == 0
    assert P.health["edge_gap"] == pytest.approx(float(np.min(np.abs(lam))), rel=1e-6)
    assert float(np.max(np.abs(P.matrix - dense_ground_projection(h, gap_tol)))) <= 1e-10
    O_exact = Q @ np.kron(np.diag(np.sign(lam)), J) @ Q.T
    assert float(np.max(np.abs(P.O - O_exact))) <= 1e-10


def test_production_never_builds_a_dense_a(trivial_projection, tmp_path, monkeypatch):
    # the projection reads A only through its blocks (gram, matmul)
    def disk(radius, majoranas):
        return build_disk_lattice("square", radius, majorana_count=majoranas)

    inputs = [(build_qwz(1.0, disk(6.0, 4)), 1e-4), (build_pip(-1.0, 0.5, disk(6.0, 2)), 1e-4),
              (stack_copies(build_qwz(1.0, disk(4.0, 4)), 3), 1e-4),
              (_four_zero_modes(trivial_projection[1]), 1e-8)]

    def no_dense(self):
        raise AssertionError("a dense A was built")

    monkeypatch.setattr(QuadraticHamiltonian, "dense", no_dense)
    for h, gap_tol in inputs:
        ground_projection(h, gap_tol)
    random_covariance(40, np.random.default_rng(0)).validate()
    assert main(["parity", "--radius", "6", "--out", str(tmp_path / "report.json")]) == 0


def test_covariance_of_projection_is_valid(trivial_projection):
    P, _ = trivial_projection
    # the two-point operator of the pure state built on P is P itself
    P.validate()


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


def test_stacked_moments_match_the_dense_kron_projection():
    # the evaluators read O, summing the pair form over the copies; the
    # dense kron(P, I_3) is their oracle
    rng = np.random.default_rng(3)
    S1 = random_covariance(6, rng)
    S = dataclasses.replace(S1, copies=3)
    vs = [rng.standard_normal(18) + 1j * rng.standard_normal(18) for _ in range(4)]
    assert abs(wick_expectation(S, vs[:2]) - vs[0] @ S.matrix @ vs[1]) <= 1e-12
    assert abs(pfaffian_expectation(S, vs) - wick_expectation(S, vs)) <= 1e-10


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
