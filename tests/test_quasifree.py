import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
from artifact.quasifree import (BasisProjection, _antisymmetrize, _commutator_residual, _pfaffian,
                                _transpose_residual)
from dense_oracle import (dense_A_structure, dense_basis_projection, dense_charge_structure,
                          dense_gram, dense_ground_projection, full_width_particle_hole_half,
                          uncertified_random_factor)
from eigh_spy import spy_eighs


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


def test_real_path_refuses_a_total_cluster():
    # a paired model takes the real path, where a gap_tol above the whole
    # spectrum makes every mode a cluster member
    h = build_pip(-1.0, 0.5, build_disk_lattice("square", 4.0, majorana_count=2))
    assert quasifree._particle_hole_half(h) is None
    with pytest.raises(ComputationError, match="unresolvable zero modes"):
        ground_projection(h, 100.0)


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


def _trivial_with_fibers(fibers, radius=4.0):
    """trivial (R=4 by default) with the on-site fiber of each site s in
    `fibers` set to y eps, eps = [[0, 1], [-1, 0]]: still x I + y eps, a zero
    pair for y = 0 and a split +-y pair otherwise. The model is on-site, so
    each fiber is a mode of its own."""
    h = build_trivial(build_disk_lattice("square", radius, majorana_count=2))
    A = h.dense()
    for s, y in fibers.items():
        A[2 * s:2 * s + 2, 2 * s:2 * s + 2] = [[0.0, y], [-y, 0.0]]
    return QuadraticHamiltonian(A, h.geometry)


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
        dataclasses.replace(P, factor=O).validate()
    O = np.full_like(P.O, np.nan)
    with pytest.raises(ComputationError, match="non-Hermitian anomaly"):
        chern_number(dataclasses.replace(P, factor=O), make_good_partition(P.geometry.apex))


def test_validate_squares_an_exactly_antisymmetric_structure_by_syrk(qwz_r6):
    # ground_projection's factor is exactly antisymmetric, so validate takes
    # O O^T - I (a syrk) on it: the residual of O^2 + I up to rounding
    P, _ = qwz_r6
    O = P.factor
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
    real_structure = quasifree._real_structure

    def rotated(A, gap_tol):
        O, edge_gap, m = real_structure(A, gap_tol)
        R = np.eye(O.shape[0])
        c, s = np.cos(0.3), np.sin(0.3)
        R[np.ix_([0, 2], [0, 2])] = [[c, -s], [s, c]]
        O = R @ O @ R.T
        O = (O - O.T) / 2
        BasisProjection(O).validate()
        return O, edge_gap, m

    monkeypatch.setattr(quasifree, "_real_structure", rotated)
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


@pytest.mark.parametrize("radius, need", [
    (8.0, 8 * 402**2),                         # the zeroed factor of dim 402
    (6.0, _util._WORKING_ARRAYS * 8 * 128**2),  # the first group of [128, 96]
])
def test_diagonal_groups_are_refused_at_their_larger_need(monkeypatch, radius, need):
    # a trivial disk's groups path holds its dim x dim factor (one array)
    # and, one group at a time, the solver's arrays at the group's size;
    # the larger of the two refuses it before any eigh
    h = build_trivial(build_disk_lattice("square", radius, majorana_count=2))
    calls = spy_eighs(monkeypatch)
    monkeypatch.setattr(_util, "available_memory", lambda: need - 1)
    with pytest.raises(ComputationError, match=f"projection needs ~{need / 1e9:.2g} GB, "):
        ground_projection(h, 1e-8)
    assert not calls
    monkeypatch.setattr(_util, "available_memory", lambda: need)
    ground_projection(h, 1e-8).validate()
    assert calls


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


@pytest.mark.parametrize("radius, majoranas, copies", [
    (4.0, 2, 1), (4.0, 4, 1), (4.0, 2, 3), (5.0, 2, 1), (5.0, 4, 1), (5.0, 2, 3),
    (6.0, 2, 1), (6.0, 6, 1), (6.0, 2, 3), (6.0, 2, 5), (8.0, 2, 1), (8.0, 4, 1),
    (8.0, 2, 3), (12.0, 2, 1), (12.0, 6, 1), (24.0, 2, 1),
])
def test_trivial_projection_is_the_same_at_either_gap_tol(radius, majoranas, copies):
    # trivial's spectrum is exactly +-1, so the CLI's one default, 1e-4, gives
    # the projection that 1e-8 gives, bit for bit, stacks included
    h = build_trivial(build_disk_lattice("square", radius, majorana_count=majoranas))
    if copies > 1:
        h = stack_copies(h, copies)
    tight, default = ground_projection(h, 1e-8), ground_projection(h, 1e-4)
    assert default.factor.tobytes() == tight.factor.tobytes()
    assert default.health == tight.health


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
    # qwz keeps its particle-hole half's O' as the factor and never
    # allocates O, so the projection's peak is the real path's at dim/2
    # (measured 0.71; 1.37 while O and its planes were assembled)
    assert peak < 0.85 * 8 * h.dim**2


def _eigh_inputs():
    """name -> a symmetric or Hermitian matrix, each a corner of eigh."""
    rng = np.random.default_rng(35)
    X = rng.standard_normal((300, 300))
    B = rng.standard_normal((200, 200))
    Z = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    return {"symmetric": X + X.T,
            "gram_of_antisymmetric": (B - B.T).T @ (B - B.T),  # every eigenvalue twice
            "repeated_diagonal": np.diag([3.0, -1.0, 3.0, 0.5, -1.0, 3.0]),
            "one_by_one": np.array([[-2.5]]),
            "zero": np.zeros((4, 4)),
            "hermitian": Z + Z.conj().T}


@pytest.mark.parametrize("case", sorted(_eigh_inputs()))
def test_eigh_in_place_is_numpy_s_eigh_in_the_input_s_buffer(case):
    S = _eigh_inputs()[case]
    w_ref, V_ref = np.linalg.eigh(S)
    w, V = quasifree._eigh_in_place(S)
    assert w.tobytes() == w_ref.tobytes() and w.dtype == w_ref.dtype
    assert V.tobytes() == V_ref.tobytes() and V.dtype == V_ref.dtype
    assert np.shares_memory(V, S)


@pytest.mark.parametrize("dtype", [float, complex])
def test_eigh_in_place_raises_numpy_s_error_when_lapack_does_not_converge(dtype):
    S = np.full((4, 4), np.nan, dtype=dtype)
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        np.linalg.eigh(S.copy())
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        quasifree._eigh_in_place(S)


def test_eigh_in_place_allocates_no_eigenvector_array():
    # tracemalloc sees numpy's arrays, not LAPACK's buffers: the helper
    # allocates only w (measured 0.002 n x n arrays at n = 600), numpy's
    # eigh a new eigenvector array besides (1.002)
    n = 600
    X = np.random.default_rng(36).standard_normal((n, n))
    peaks = []
    for eigh in (quasifree._eigh_in_place, np.linalg.eigh):
        S = X + X.T
        tracemalloc.start()
        try:
            eigh(S)
            peaks.append(tracemalloc.get_traced_memory()[1] / (8 * n * n))
        finally:
            tracemalloc.stop()
    assert peaks[0] < 0.1
    assert peaks[1] >= 1.0


_EIGH_PEAK_RSS = """
import sys
import numpy as np
from artifact import quasifree
n = int(sys.argv[1])
eigh = np.linalg.eigh if sys.argv[2] == "numpy" else quasifree._eigh_in_place
S = np.random.default_rng(37).standard_normal((n, n))
S += S.T
w, V = eigh(S)
with open("/proc/self/status") as fh:  # this process's own peak, not its parent's
    print(next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:")))
"""


def test_eigh_in_place_peak_rss_is_an_array_below_numpy_s():
    # two twin processes that differ only in the eigh: the helper's peak RSS
    # holds S (then V), LAPACK's copy and its workspace, numpy's eigh the
    # eigenvectors besides (measured 0.98 n x n arrays fewer at n = 1500, 0.995 at 1816)
    n = 1500
    env = dict(os.environ, PYTHONPATH=str(Path(quasifree.__file__).resolve().parents[1]))
    peaks = {}
    for eigh in ("numpy", "in_place"):
        proc = subprocess.run([sys.executable, "-c", _EIGH_PEAK_RSS, str(n), eigh], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peaks[eigh] = int(proc.stdout)
    assert peaks["numpy"] - peaks["in_place"] >= 0.8 * 8 * n * n


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
        assert _transpose_residual(X) == float(np.max(np.abs(X + X.T)))


def test_transpose_residual_reuses_one_tile():
    # every tile pair, edge tiles included, is written into one _TILE^2
    # buffer: measured 1.13 tiles at dim 804 (2.25 with a tile per pair)
    M = np.random.default_rng(0).standard_normal((804, 804))
    tracemalloc.start()
    try:
        _transpose_residual(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 8 * quasifree._TILE**2


@pytest.mark.parametrize("n", TILE_SIZES)
def test_slab_commutator_residual_is_the_dense_one(n):
    # max |A O - (A O)^T| over slabs of rows, each read from its columns on
    # the diagonal's right, for an O of any symmetry
    rng = np.random.default_rng(n + 2)
    M = rng.standard_normal((n, n))
    A, O = M - M.T, rng.standard_normal((n, n))
    AO = A @ O
    dense = float(np.max(np.abs(AO - AO.T)))
    assert _commutator_residual(QuadraticHamiltonian(A, None), O) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("n", [2, 256, 258, 774])
def test_slab_square_residual_is_the_dense_one(n):
    # validate squares over slabs: O[I] O[i0:]^T for an exactly antisymmetric
    # O, O[I] O otherwise; both within rounding of the dense residual
    rng = np.random.default_rng(n + 3)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    O = Q @ np.kron(np.eye(n // 2), [[0.0, 1.0], [-1.0, 0.0]]) @ Q.T
    _antisymmetrize(O)
    near = O + 1e-14 * rng.standard_normal((n, n))
    for X, dense in ((O, O @ O.T - np.eye(n)), (near, near @ near + np.eye(n))):
        assert abs(BasisProjection(X).validate() - max(float(np.max(np.abs(dense))),
                                                       _transpose_residual(X))) <= 1e-15


NAN_SPOTS = [(0, 0), (0, 447), (447, 0), (300, 300), (260, 5), (5, 260), (447, 447)]


@pytest.mark.parametrize("spot", NAN_SPOTS)
def test_one_nan_anywhere_is_refused(qwz_r6, spot, monkeypatch):
    # the tile maxima are reduced by numpy, so one NaN in any tile, on or
    # off the diagonal, refuses validate and the commutator check
    P, _ = qwz_r6
    O = P.O.copy()
    assert O.shape == (448, 448)
    O[spot] = np.nan
    assert np.isnan(_transpose_residual(O))
    with pytest.raises(ComputationError, match="not Hermitian: nan"):
        BasisProjection(O).validate()
    h = build_qwz(1.0, P.geometry)
    monkeypatch.setattr(BasisProjection, "validate", lambda self: 0.0)
    with pytest.raises(ComputationError, match=r"gapless: \[A, O\] residual nan"):
        quasifree._certify(h, O)


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
    h = QuadraticHamiltonian(A, None)
    for Y in (X, A, full):
        bound = 1e-14 * (np.abs(A) @ np.abs(Y))
        assert np.all(np.abs(h.matmul(Y) - A @ Y) <= bound)
        # rows=I gives A[I] @ Y, for I aligned with the blocks or cutting them
        for rows in (slice(0, 256), slice(5, 200), slice(256, n), slice(n, n)):
            assert np.all(np.abs(h.matmul(Y, rows=rows) - (A @ Y)[rows]) <= bound[rows])


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
    O, edge_gap, _ = quasifree._real_structure(h, gap_tol)
    O_dense, edge_gap_dense = dense_A_structure(h.dense(), gap_tol)
    assert np.array_equal(O, O_dense) and edge_gap == edge_gap_dense


# ---------------------------------------------------------------------------
# the reductions of a charge-conserving A against the oracle's real path


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
    # every disk without pairing is solved through a reduction (qwz on its
    # particle-hole half, trivial group by group); the oracle's real path on
    # the whole dense A, no reduction taken, licenses it
    build, gap_tol = CHARGE_CASES[case]
    h = build()
    P = ground_projection(h, gap_tol)
    O = P.O
    O_real, edge_gap_real = dense_A_structure(h.dense(), gap_tol)
    assert P.health["zero_modes"] == 0
    assert np.array_equal(O, -O.T)
    assert float(np.max(np.abs(O - O_real))) <= 1e-13
    assert P.health["edge_gap"] == pytest.approx(edge_gap_real, rel=1e-10)
    part = make_good_partition(h.geometry.apex)
    real = BasisProjection(O_real, h.geometry, copies=h.copies)
    assert abs(chern_number(P, part) - chern_number(real, part)) <= 1e-12


# ---------------------------------------------------------------------------
# the diagonal groups of a block-diagonal A


GROUP_CASES = {
    "triv2_r12": (lambda: build_trivial(_disk(12.0, 2)), 8),
    "triv6_r12": (lambda: build_trivial(_disk(12.0, 6)), 22),
    "triv_stack3_r8": (lambda: stack_copies(build_trivial(_disk(8.0, 2)), 3), 4),
}


@pytest.mark.parametrize("case", sorted(GROUP_CASES))
def test_diagonal_groups_match_the_complex_eigh(case, monkeypatch):
    # trivial is one group per 128 rows (its orbitals are decoupled 2 x 2
    # fibers, at any Majorana count a site): each group is solved and
    # certified on its own, and the health is the smallest edge gap, the
    # summed cluster and the largest residual. The oracle's complex eigh of
    # H on the whole A licenses the assembled O
    build, groups = GROUP_CASES[case]
    h = build()
    assert len(quasifree._diagonal_groups(h)) == groups
    residuals, certify = [], quasifree._certify

    def spied(group, O):
        residuals.append(certify(group, O))
        return residuals[-1]

    monkeypatch.setattr(quasifree, "_certify", spied)
    P = ground_projection(h, 1e-8)
    assert len(residuals) == groups and P.fiber == 1
    O_ref, lam = dense_charge_structure(h.dense())
    assert float(np.max(np.abs(P.O - O_ref))) <= 1e-13
    assert P.health == {"edge_gap": pytest.approx(float(np.min(np.abs(lam))), rel=1e-10),
                        "zero_modes": 0, "projection_residual": max(residuals)}
    assert P.health["projection_residual"] <= 1e-12


def test_each_group_fills_its_own_cluster():
    # two groups of trivial R=6 (rows 0:128 and 128:224): a split +-1e-10
    # pair in the first keeps its negative member, an exact zero fiber in the
    # second is paired from its group's null basis; both read eps, as
    # trivial's own fibers do, so O is the oracle's for plain trivial
    h = _trivial_with_fibers({0: 1e-10, 100: 0.0}, radius=6.0)
    assert [(r0, g.dim) for r0, g in quasifree._diagonal_groups(h)] == [(0, 128), (128, 96)]
    P = ground_projection(h, 1e-8)
    assert P.health["zero_modes"] == 4
    assert P.health["edge_gap"] <= quasifree._EXACT_ZERO
    assert P.health["projection_residual"] <= 1e-12
    plain = build_trivial(_disk(6.0, 2))
    O_ref = dense_basis_projection(dense_ground_projection(plain, 1e-8), None).O
    assert float(np.max(np.abs(P.O - O_ref))) <= 1e-15


def test_a_bond_across_a_block_edge_makes_one_group():
    # trivial R=6 with one bond between rows 127 and 128, which breaks the
    # charge form: the two blocks are one group, solved on A itself, byte
    # for byte the real path on the whole A
    h = _trivial_with_fibers({}, radius=6.0)
    assert len(quasifree._diagonal_groups(h)) == 2
    A = h.dense()
    A[127, 128], A[128, 127] = 0.3, -0.3
    h = QuadraticHamiltonian(A, h.geometry)
    assert quasifree._diagonal_groups(h) == [(0, h)]
    assert quasifree._particle_hole_half(h) is None
    P = ground_projection(h, 1e-8)
    assert P.factor.tobytes() == quasifree._real_structure(h, 1e-8)[0].tobytes()


def _with_zero_rows(rows, dim):
    """A dim x dim A with trivial's fibers on its first `rows` rows and
    columns, zero from row `rows` on."""
    A = np.zeros((dim, dim))
    A[:rows, :rows] = np.kron(np.eye(rows // 2), [[0.0, 1.0], [-1.0, 0.0]])
    return QuadraticHamiltonian(A, None)


@pytest.mark.parametrize("case", ["odd", "total"])
def test_a_group_with_an_unresolvable_cluster_is_refused(case):
    # each group fills its own cluster, so a group whose cluster is odd (the
    # one zero row of an odd A) or fills it (a zero block of 96 rows) is
    # refused as unresolvable. Solved whole, the zero block is a cluster of
    # 96 of 224 modes, which the real path pairs from its null basis
    h = _with_zero_rows(128, 129) if case == "odd" else _with_zero_rows(128, 224)
    assert len(quasifree._diagonal_groups(h)) == 2
    with pytest.raises(ComputationError, match="unresolvable zero modes"):
        ground_projection(h, 1e-8)
    if case == "total":
        assert quasifree._real_structure(h, 1e-8)[2] == 96


def _perturbed_qwz():
    """qwz R=6 with one hopping entry moved: fiber (0, 1) no longer reads
    x I + y eps."""
    h = build_qwz(1.0, _disk(6.0, 4))
    A = h.dense()
    A[0, 3] += 1e-3
    A[3, 0] -= 1e-3
    return QuadraticHamiltonian(A, h.geometry)


FALLBACK_CASES = {"pip_r8": _pip_r8, "perturbed_qwz_r6": _perturbed_qwz}


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_fallback_is_the_real_path_bit_for_bit(case):
    # an A of one group without the charge structure is solved on itself
    h = FALLBACK_CASES[case]()
    assert quasifree._particle_hole_half(h) is None
    assert quasifree._diagonal_groups(h) == [(0, h)]
    O, edge_gap, m = quasifree._real_structure(h, 1e-4)
    P = ground_projection(h, 1e-4)
    assert P.O.tobytes() == O.tobytes()
    assert P.health["edge_gap"] == edge_gap and P.health["zero_modes"] == m == 0


CLUSTER_CASES = {"split_pair": {0: 1e-10}, "zero_pair": {0: 0.0}, "mixed": {0: 0.0, 1: 1e-10}}


@pytest.mark.parametrize("case", sorted(CLUSTER_CASES))
def test_charge_path_resolves_its_cluster_in_one_eigh(case, monkeypatch):
    # a charge-conserving A without the particle-hole symmetry (trivial R=4,
    # one diagonal group) is solved on itself: one real eigh of A^T A, and
    # the window's small problem fills the cluster mode by mode. An exact
    # zero pair is paired from the canonical null basis, which on a zero
    # fiber reads eps, as trivial's own fiber (y = 1) does; a split pair's
    # negative member reads eps too. So O is the oracle's O of the same
    # input with its exact zero fibers set back to trivial's
    fibers = CLUSTER_CASES[case]
    h = _trivial_with_fibers(fibers)
    assert quasifree._particle_hole_half(h) is None
    assert quasifree._diagonal_groups(h) == [(0, h)]
    calls = spy_eighs(monkeypatch, lambda a: (len(a), np.iscomplexobj(a)))
    P = ground_projection(h, 1e-8)
    monkeypatch.undo()
    assert calls[0] == (h.dim, False)
    assert all(is_complex and size < h.dim // 8 for size, is_complex in calls[1:])
    O = P.O
    assert np.array_equal(O[0::2, 0::2], O[1::2, 1::2])  # [O, charge] = 0 exactly
    assert np.array_equal(O[0::2, 1::2], -O[1::2, 0::2])
    assert P.health["projection_residual"] <= 1e-12
    assert P.health["zero_modes"] == 2 * len(fibers)
    if case == "split_pair":
        assert P.health["edge_gap"] == pytest.approx(1e-10, rel=1e-6)
    else:
        assert P.health["edge_gap"] <= quasifree._EXACT_ZERO
    ref = _trivial_with_fibers({s: y for s, y in fibers.items() if y != 0.0})
    O_ref = dense_basis_projection(dense_ground_projection(ref, 1e-8), None).O
    assert float(np.max(np.abs(O - O_ref))) <= 1e-15
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for s in fibers:
        assert float(np.max(np.abs(O[2 * s:2 * s + 2, 2 * s:2 * s + 2] - eps))) <= 1e-15


@pytest.mark.parametrize("dtype", [float, complex])
def test_fold_inverts_the_fiber_map(dtype):
    # _fold reads B' back from B = T(B'), each plane from two entries of a
    # fiber, so to a few ulp of B'
    rng = np.random.default_rng(21)
    X = rng.standard_normal((10, 10)).astype(dtype)
    if dtype is complex:
        X += 1j * rng.standard_normal((10, 10))
    folded = quasifree._fold(quasifree._particle_hole_O(X))
    assert folded.dtype == X.dtype and folded.shape == X.shape
    assert float(np.max(np.abs(folded - X))) <= 4 * np.finfo(float).eps * float(np.max(np.abs(X)))


def test_fold_of_a_mask_is_the_mask_of_its_pairs():
    # diag(b) = T(diag(b')) exactly when b is constant on each 4-fiber, b'
    # being that value on both orbitals of the pair; one entry flipped or a
    # NaN (which equals nothing) breaks a fiber
    b = np.repeat([1.0, 0.0, 1.0, 0.5], 4)
    assert quasifree._fold(b).tobytes() == np.repeat([1.0, 0.0, 1.0, 0.5], 2).tobytes()
    flipped = b.copy()
    flipped[6] = 1.0
    assert quasifree._fold(flipped) is None
    b[13] = np.nan
    assert quasifree._fold(b) is None


@pytest.mark.parametrize("entry", range(16))
def test_fold_refuses_any_broken_fiber_entry(entry):
    # each of a fiber's 16 entries is tied to three others by
    # _PARTICLE_HOLE_FIBER, so moving any one of them breaks the pattern
    B = quasifree._particle_hole_O(np.random.default_rng(22).standard_normal((8, 8)))
    assert quasifree._fold(B) is not None
    i, j = divmod(entry, 4)
    B[4 + i, 8 + j] += 0.5  # fiber (1, 2)
    assert quasifree._fold(B) is None


def _refused(h):
    """The half is refused, and so is it by the full-width fold."""
    return quasifree._particle_hole_half(h) is None and full_width_particle_hole_half(h) is None


def test_charge_structure_is_read_from_the_entries():
    # pairing, one broken fiber, a fiber cut at an odd column and a
    # dimension that is not a whole number of orbital pairs all give no
    # half; a far coupling in the particle-hole form is read into A', its
    # slab spanning the far columns as the full-width fold's does
    assert _refused(_pip_r8())
    assert _refused(_perturbed_qwz())
    h = build_qwz(1.0, _disk(4.0, 4))
    n = h.dim // 2
    far = np.zeros((n, n))
    far[0:2, -2:] = [[0.25, 0.5], [-0.75, 1.0]]  # pairs 0 and n/2 - 1, dyadic: T is exact
    far[-2:, 0:2] = -far[0:2, -2:].T
    coupled = QuadraticHamiltonian(h.dense() + quasifree._particle_hole_O(far), None)
    assert coupled.blocks[0][3] == h.dim  # the first block reaches the last column
    half = quasifree._particle_hole_half(coupled)
    assert np.array_equal(half.dense(), quasifree._particle_hole_half(h).dense() + far)
    assert [(*span, b.tobytes()) for *span, b in half.blocks] == \
        [(*span, b.tobytes()) for *span, b in full_width_particle_hole_half(coupled)]
    odd = np.zeros((260, 260))
    odd[0, 131], odd[131, 0] = 1.0, -1.0
    h = QuadraticHamiltonian(odd, None)
    assert h.blocks[0][2:4] == (131, 132)  # read on the widened span 128:132
    assert _refused(h)
    J = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert _refused(QuadraticHamiltonian(J, None))
    six = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])  # x I + y eps, 3 orbitals
    assert _refused(QuadraticHamiltonian(six, None))


def test_charge_path_peak_stays_below_its_measured_value():
    # qwz takes the particle-hole half, read from A's blocks without a dense
    # H or A', and returns its O', never O: the real path's arrays at dim/2
    # and the blocks of A'; tracemalloc measured 0.71 dim x dim arrays at
    # dim 804 and 0.56 at 1816 (LAPACK's buffers in the eigh are not traced)
    h = build_qwz(1.0, _disk(8.0, 4))
    tracemalloc.start()
    try:
        assert quasifree._complex_structure(h, 1e-4)[1] == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.85 * 8 * h.dim**2


def test_diagonal_groups_peak_stays_below_its_measured_value():
    # a block-diagonal A holds its zeroed dim x dim factor and one group's
    # arrays at a time: tracemalloc measured 1.09 arrays at dim 804 and 1.02
    # at 1816
    h = build_trivial(_disk(8.0, 4))
    assert len(quasifree._diagonal_groups(h)) == 7
    tracemalloc.start()
    try:
        ground_projection(h, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.15 * 8 * h.dim**2


# ---------------------------------------------------------------------------
# the particle-hole half against the complex eigh of H (the oracle)


PARTICLE_HOLE_CASES = {
    "qwz_u1_r12": (lambda: build_qwz(1.0, _disk(12.0, 4)), 1e-4, 0),
    "qwz_u-1_r8": (lambda: build_qwz(-1.0, _disk(8.0, 4)), 1e-4, 0),
    "qwz_u1.8_r10": (lambda: build_qwz(1.8, _disk(10.0, 4)), 1e-4, 0),
    "qwz_u2.5_r8": (lambda: build_qwz(2.5, _disk(8.0, 4)), 1e-4, 0),
    "qwz_stack3_r6": (lambda: stack_copies(build_qwz(1.0, _disk(6.0, 4)), 3), 1e-4, 0),
    "split4_r12": (lambda: build_qwz(1.0, _disk(12.0, 4)), 0.05, 4),
    "split12_r8": (lambda: build_qwz(1.0, _disk(8.0, 4)), 0.2, 12),
}


@pytest.mark.parametrize("case", sorted(PARTICLE_HOLE_CASES))
def test_particle_hole_half_matches_the_complex_eigh(case):
    # every qwz disk and stack has the particle-hole symmetry and takes the
    # real eigh of dim/2; the oracle's complex eigh of H (dense_oracle,
    # size dim/2), split clusters included, licenses it
    build, gap_tol, zero_modes = PARTICLE_HOLE_CASES[case]
    h = build()
    assert quasifree._particle_hole_half(h).dim == h.dim // 2
    P = ground_projection(h, gap_tol)
    O_ref, lam = dense_charge_structure(h.dense())
    O = P.O
    assert P.health["zero_modes"] == 2 * np.count_nonzero(np.abs(lam) <= gap_tol) * h.copies
    assert P.health["zero_modes"] == zero_modes * h.copies
    assert float(np.max(np.abs(O - O_ref))) <= 1e-13
    assert P.health["edge_gap"] == pytest.approx(float(np.min(np.abs(lam))), rel=1e-10)
    assert P.health["projection_residual"] <= 1e-12
    assert np.array_equal(O, -O.T)
    assert np.array_equal(O[0::2, 0::2], O[1::2, 1::2])  # [O, charge] = 0 exactly
    assert np.array_equal(O[0::2, 1::2], -O[1::2, 0::2])
    part = make_good_partition(h.geometry.apex)
    ref = BasisProjection(O_ref, h.geometry, copies=h.copies)
    assert abs(chern_number(P, part) - chern_number(ref, part)) <= 1e-12


def _qwz_with_decoupled_sites(onsite):
    """qwz R=6 with each site s of `onsite` cut from its neighbours and given
    the on-site block onsite[s] sigma_z: still charge-conserving and
    particle-hole symmetric, with H's pair +-onsite[s] at the site (an exact
    zero pair for 0)."""
    h = build_qwz(1.0, _disk(6.0, 4))
    A = h.dense()
    for s, eps in onsite.items():
        A[4 * s:4 * s + 4, :] = 0.0
        A[:, 4 * s:4 * s + 4] = 0.0
        A[4 * s, 4 * s + 1], A[4 * s + 1, 4 * s] = eps, -eps
        A[4 * s + 2, 4 * s + 3], A[4 * s + 3, 4 * s + 2] = -eps, eps
    return QuadraticHamiltonian(A, h.geometry)


@pytest.mark.parametrize("case", ["zero_pair", "mixed"])
def test_the_half_resolves_exact_zeros_in_one_real_eigh(case, monkeypatch):
    # a cluster holding an exact zero, alone or beside a split pair, is
    # filled mode by mode on the half: one real eigh at dim/2 and the small
    # window problem, no complex eigh of dim/2. The exact zeros of H are
    # paired from the half's null basis; each sits on a decoupled site, so
    # outside those sites' fibers O is the oracle's for the same input with
    # each zero site gapped (on-site 1 sigma_z)
    onsite = {0: 0.0} if case == "zero_pair" else {0: 1e-10, 1: 0.0}
    h = _qwz_with_decoupled_sites(onsite)
    assert quasifree._particle_hole_half(h).dim == h.dim // 2
    gapped = _qwz_with_decoupled_sites({s: eps or 1.0 for s, eps in onsite.items()})
    O_ref, _ = dense_charge_structure(gapped.dense())
    real_structure, halves = quasifree._real_structure, []

    def spied_structure(half, gap_tol):
        halves.append(half.dim)
        return real_structure(half, gap_tol)

    monkeypatch.setattr(quasifree, "_real_structure", spied_structure)
    calls = spy_eighs(monkeypatch, lambda a: (len(a), np.iscomplexobj(a)))
    P = ground_projection(h, 1e-8)
    assert halves == [h.dim // 2]
    assert calls[0] == (h.dim // 2, False)
    assert all(size < h.dim // 8 for size, _ in calls[1:])
    O = P.O
    diff = np.abs(O - O_ref)
    for s in (s for s, eps in onsite.items() if eps == 0.0):
        diff[4 * s:4 * s + 4, 4 * s:4 * s + 4] = 0.0
    assert float(np.max(diff)) <= 1e-13
    assert np.array_equal(O[0::2, 0::2], O[1::2, 1::2])  # [O, charge] = 0 exactly
    assert np.array_equal(O[0::2, 1::2], -O[1::2, 0::2])
    assert P.health["projection_residual"] <= 1e-12
    assert P.health["zero_modes"] == 4 * len(onsite)
    assert P.health["edge_gap"] <= quasifree._EXACT_ZERO
    part = make_good_partition(h.geometry.apex)
    ref = BasisProjection(O_ref, h.geometry)
    assert abs(chern_number(P, part) - chern_number(ref, part)) <= 1e-12


@pytest.mark.parametrize("y", [1e-13, -1e-13])
def test_exact_zeros_are_cluster_members_only(y):
    # at gap_tol = 0 (random_covariance's) the cluster is empty: a 1e-13
    # pair below _EXACT_ZERO is a mode like any other and takes its sign,
    # which for y < 0 is not the null basis's pairing
    h = _trivial_with_fibers({0: y})
    O, edge_gap, m = quasifree._real_structure(h, 0.0)
    assert m == 0 and edge_gap == pytest.approx(abs(y), rel=1e-3)
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert float(np.max(np.abs(O[0:2, 0:2] - np.sign(y) * eps))) <= 1e-15
    P = ground_projection(h, 0.0)
    assert P.health["zero_modes"] == 0
    O_ref = dense_basis_projection(dense_ground_projection(h, 0.0), None).O
    assert float(np.max(np.abs(O_ref - P.O))) <= 1e-15


@pytest.mark.parametrize("case", sorted(PARTICLE_HOLE_CASES))
def test_half_certificate_bounds_the_full_one(case):
    # O = T(O') and A = T(A') under the fiber map T, a *-homomorphism whose
    # entries are +-(x1 +- x2)/2: the residual certified on (A', O') at dim/2
    # bounds the full one, up to rounding
    build, gap_tol, _ = PARTICLE_HOLE_CASES[case]
    h = build()
    P = ground_projection(h, gap_tol)
    O_half, fiber, (_, _, residual) = quasifree._complex_structure(h, gap_tol)
    solved = quasifree._particle_hole_half(h)
    assert P.fiber == fiber == 2 and solved.dim == h.dim // 2
    assert np.array_equal(P.factor, O_half)
    half = quasifree._certify(solved, O_half)
    assert half == residual == P.health["projection_residual"] <= 1e-12
    O = P.O
    full = quasifree._certify(h, O)
    assert full == max(_commutator_residual(h, O), BasisProjection(O).validate())
    assert half >= full - 1e-15


@pytest.mark.parametrize("case", sorted(PARTICLE_HOLE_CASES))
def test_the_half_factor_gives_the_assembled_O_s_nu(case):
    # O = T(O') is a two-copy stack of O' in a site-local frame, so the
    # triple traces on the factor, at two Majoranas per site and scaled by
    # copies * fiber, are those of the assembled O
    build, gap_tol, _ = PARTICLE_HOLE_CASES[case]
    h = build()
    P = ground_projection(h, gap_tol)
    assert P.fiber == 2 and len(P.factor) == h.dim // 2
    assert P.dim_K == h.dim * h.copies
    part = make_good_partition(h.geometry.apex)
    full = BasisProjection(P.O, P.geometry, copies=P.copies)
    assert abs(chern_number(P, part) - chern_number(full, part)) <= 1e-12


@pytest.mark.parametrize("family,task,fiber", [("qwz", "parity", 2), ("qwz", "twist", 2),
                                               ("pip", "chern", 1)])
def test_cli_runs_read_only_the_factor(family, task, fiber, tmp_path, monkeypatch):
    # a qwz run keeps the half's O' and never assembles O; pip keeps its
    # full O as a fiber-1 factor
    projections, reads = [], []
    assembled, project = BasisProjection.O, quasifree.ground_projection

    def spied_O(self):
        reads.append(self.fiber)
        return assembled.fget(self)

    def spied_projection(h, gap_tol):
        projections.append(project(h, gap_tol))
        return projections[-1]

    monkeypatch.setattr(BasisProjection, "O", property(spied_O))
    monkeypatch.setattr(quasifree, "ground_projection", spied_projection)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"model": {{"family": "{family}"}}}}')
    argv = [task, "--config", str(cfg), "--radius", "6", "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    (P,) = projections
    assert P.fiber == fiber and len(P.factor) * fiber * P.copies == P.dim_K
    assert reads == []


def _qwz_r8():
    return build_qwz(1.0, _disk(8.0, 4))


def _rotated(O):
    """O rotated between two modes: O^2 = -I survives, [A, O] = 0 does not."""
    R = np.eye(len(O))
    c, s = np.cos(0.3), np.sin(0.3)
    R[np.ix_([0, 2], [0, 2])] = [[c, -s], [s, c]]
    O = R @ O @ R.T
    _antisymmetrize(O)
    BasisProjection(O).validate()
    return O


def _with_nan(spot):
    def inject(O):
        O = O.copy()
        O[spot] = np.nan
        return O
    return inject


# the half of qwz R=8 has n = 402: its corners, its diagonal, and tiles off
# the diagonal on both sides of it
HALF_NAN_SPOTS = [(0, 0), (0, 401), (401, 0), (300, 300), (260, 5), (5, 260), (401, 401)]

HALF_REFUSALS = {"rotated": (_rotated, r"gapless: \[A, O\] residual"),
                 "scaled": (lambda O: O * 1.01, "gapless: projection is not idempotent"),
                 **{f"nan{spot}": (_with_nan(spot), "gapless: projection is not Hermitian: nan")
                    for spot in HALF_NAN_SPOTS}}


@pytest.mark.parametrize("case", list(HALF_REFUSALS))
def test_a_bad_half_is_refused_not_rediagonalized(case, monkeypatch):
    # a bad O' is refused by its own certificate at dim/2, with the message
    # of the full one; no complex eigh of dim/2 runs
    corrupt, message = HALF_REFUSALS[case]
    h = _qwz_r8()
    real_structure, eigh, halves, complex_sizes = quasifree._real_structure, np.linalg.eigh, [], []

    def corrupted(half, gap_tol):
        halves.append(half.dim)
        O, edge_gap, m = real_structure(half, gap_tol)
        return corrupt(O), edge_gap, m

    def spied(a, *args, **kwargs):
        if np.iscomplexobj(a):
            complex_sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(quasifree, "_real_structure", corrupted)
    monkeypatch.setattr(np.linalg, "eigh", spied)
    with pytest.raises(ComputationError, match=message):
        ground_projection(h, 1e-4)
    assert halves == [h.dim // 2]
    assert h.dim // 2 not in complex_sizes


def _certified_sizes(monkeypatch):
    """Spies that record the dim of each ground projection and the size of
    each O that _commutator_residual and BasisProjection.validate read."""
    dims, commutators, squares = [], [], []
    complex_structure, commutator, validate = (quasifree._complex_structure,
                                               quasifree._commutator_residual,
                                               BasisProjection.validate)

    def structure(h, gap_tol):
        dims.append(h.dim)
        return complex_structure(h, gap_tol)

    def spied_commutator(h, O):
        commutators.append(len(O))
        return commutator(h, O)

    def spied_validate(self):
        squares.append(len(self.factor))
        return validate(self)

    monkeypatch.setattr(quasifree, "_complex_structure", structure)
    monkeypatch.setattr(quasifree, "_commutator_residual", spied_commutator)
    monkeypatch.setattr(BasisProjection, "validate", spied_validate)
    return dims, commutators, squares


@pytest.mark.parametrize("family,task", [("qwz", "parity"), ("qwz", "twist"),
                                         ("pip", "chern"), ("trivial", "twist")])
def test_certificate_runs_where_O_is_determined(family, task, tmp_path, monkeypatch):
    # the certificate runs where O is determined: at dim/2 on the particle-
    # hole half (every qwz run), at dim for pip (A itself) and on each
    # diagonal group for trivial (R=6, dim 224: rows 0:128 and 128:224)
    dims, commutators, squares = _certified_sizes(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"model": {{"family": "{family}"}}}}')
    argv = [task, "--config", str(cfg), "--radius", "6", "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    assert dims and set(dims) == {dims[0]}
    sizes = {"qwz": [dims[0] // 2], "pip": [dims[0]], "trivial": [128, dims[0] - 128]}[family]
    assert commutators == squares == sizes * len(dims)


def _qwz_with_chemical_potential():
    """qwz R=6 with mu I added to H: the charge form survives, the
    particle-hole symmetry does not."""
    h = build_qwz(1.0, _disk(6.0, 4))
    A = h.dense()
    A[0::2, 1::2] += 0.1 * np.eye(h.dim // 2)
    A[1::2, 0::2] -= 0.1 * np.eye(h.dim // 2)
    return QuadraticHamiltonian(A, h.geometry)


def test_only_a_particle_hole_symmetric_H_takes_the_half(monkeypatch):
    # the symmetry is read from A's planes: trivial (H = I) and a chemical
    # potential break it, and pip and a perturbed fiber have no charge form
    # at all. trivial is solved per diagonal group (one per 128 rows), each
    # other input on A itself, and none on a half
    real_structure, solved = quasifree._real_structure, []

    def spied(h, gap_tol):
        solved.append(h.dim)
        return real_structure(h, gap_tol)

    monkeypatch.setattr(quasifree, "_real_structure", spied)
    for h, sizes in ((build_trivial(_disk(6.0, 2)), [128, 96]),
                     (build_trivial(_disk(5.0, 4)), [128, 128, 56]),
                     (_qwz_with_chemical_potential(), [448]), (_pip_r8(), [402]),
                     (_perturbed_qwz(), [448])):
        assert quasifree._particle_hole_half(h) is None
        ground_projection(h, 1e-4)
        assert solved == sizes and sum(sizes) == h.dim
        solved.clear()
    six = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])  # H of 3 orbitals: no pairs
    assert quasifree._particle_hole_half(QuadraticHamiltonian(six, None)) is None


#: CLI family -> (task, the real eighs of its run at R=6, its window's bound)
EIGH_RUNS = {"qwz": ("parity", [224], 16), "pip": ("chern", [224], 20),
             "trivial": ("parity", [128, 96], 0)}


def test_qwz_parity_run_takes_no_complex_eigh_of_dim_half(tmp_path, monkeypatch):
    # R=6 runs of every CLI family take one real eigh of A^T A per solved
    # Hamiltonian: qwz (dim 448) at dim/2 = 224 on its half, pip at dim 224,
    # trivial (dim 224) per diagonal group. The one complex eigh left is the
    # window's small problem i Vc^T A Vc, which holds the disk's few edge
    # modes below a tenth of the largest |lambda| (none on trivial)
    calls = spy_eighs(monkeypatch, lambda a: (a.shape[0], np.iscomplexobj(a)))
    for family, (task, real_sizes, window) in EIGH_RUNS.items():
        cfg = tmp_path / f"{family}.json"
        cfg.write_text(f'{{"model": {{"family": "{family}"}}}}')
        argv = [task, "--config", str(cfg), "--radius", "6", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
        assert [size for size, is_complex in calls if not is_complex] == real_sizes
        assert all(size <= window for size, is_complex in calls if is_complex)
        assert calls[0] == (real_sizes[0], False)
        calls.clear()


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
        h = _trivial_with_fibers({0: 1e-10})
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


def test_oversize_random_covariance_refused_before_any_draw(monkeypatch):
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"rng.{name} was called before the memory guard")

    monkeypatch.setattr(_util, "available_memory", lambda: 10**5)
    with pytest.raises(ComputationError, match=r"projection needs ~\S+ GB, 0\.0001 GB available"):
        random_covariance(1000, NoDraws())


@pytest.mark.parametrize("dim", [4, 6, 8, 10, 12, 16, 40])
def test_random_covariance_is_the_uncertified_factor_certified(dim):
    # the same draw through ground_projection: the uncertified solver's
    # bytes (no draw redrawn), with the certificate's health attached
    for seed in range(20):
        S = random_covariance(dim, np.random.default_rng(seed))
        want = uncertified_random_factor(dim, np.random.default_rng(seed))
        assert S.factor.tobytes() == want.tobytes() and S.fiber == 1
        assert S.health["projection_residual"] <= 1e-12
        assert S.health["edge_gap"] > 1e-6 and S.health["zero_modes"] == 0


def test_random_covariance_is_refused_by_a_failing_certificate(monkeypatch):
    monkeypatch.setattr(quasifree, "_commutator_residual", lambda h, O: 1e-9)
    with pytest.raises(ComputationError, match=r"gapless: \[A, O\] residual 1e-09"):
        random_covariance(8, np.random.default_rng(0))


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


def test_four_vector_wick_sum_is_the_three_pairings():
    rng = np.random.default_rng(4)
    S = random_covariance(8, rng)
    vs = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(4)]
    M = quasifree._pair_matrix(S, vs)
    want = M[0, 1] * M[2, 3] - M[0, 2] * M[1, 3] + M[0, 3] * M[1, 2]
    assert abs(wick_expectation(S, vs) - want) <= 1e-14 * max(1.0, abs(want))


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
