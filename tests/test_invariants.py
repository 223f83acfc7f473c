import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (ComputationError, FreeFermionPrediction,
                      build_disk_lattice, build_pip, build_qwz, build_trivial, chern_number,
                      chern_number_with_residual, cocycle_exponent, core_regions,
                      cyclic_charge, dress_charge, exchange_phase_bch,
                      exchange_phase_closed, ground_projection, hall_sigma, lift_charge,
                      make_good_partition, parity_charge, parity_indices,
                      predicted_free_fermion, stack_copies, twist_statistics)
from artifact import _util, invariants
from artifact.cli import compute_report, load_config
from artifact.geometry import DEFAULT_APEX_OFFSET, DEFAULT_BOUNDARY_ANGLES
from artifact.invariants import (_BCH_WORKING_ARRAYS, _log_near_identity, _log_series,
                                 _sector_commutator, parity_from_nu, round_nu)
from artifact.quasifree import BasisProjection
from artifact.symgen import FluxGenerator
from dense_oracle import dense_exchange_phase_bch, dense_sector_commutator
from eigh_spy import spy_eighs


# ---------------------------------------------------------------------------
# closed-form exchange phase


def test_closed_phase_zero_flux_is_one():
    assert exchange_phase_closed(3.7, 0.0, 1.2) == 1.0 + 0.0j


def test_closed_phase_pi_pi():
    got = exchange_phase_closed(1.0, np.pi, np.pi)
    assert abs(got - np.exp(1j * np.pi / 4)) <= 1e-14
    got2 = exchange_phase_closed(2.0, np.pi, np.pi)
    assert abs(got2 - 1j) <= 1e-14


# ---------------------------------------------------------------------------
# exact reference values


def test_prediction_trivial():
    pred = predicted_free_fermion(0, 5)
    got = (pred.sigma, pred.theta_N, pred.omega_N, pred.z2, pred.z8)
    assert got == (0.0, 1.0 + 0j, 1.0 + 0j, 1, 1.0 + 0j)


def test_prediction_nu2_three_copies():
    pred = predicted_free_fermion(2, 3)
    assert pred.sigma_exact == 2
    assert pred.theta_N_exponent == Fraction(1, 9)
    assert abs(pred.theta_N - np.exp(2j * np.pi / 9)) <= 1e-14
    assert pred.omega_N_exponent == Fraction(2, 3)
    assert pred.z2 == 1
    assert pred.z8_exponent == Fraction(1, 8)
    assert abs(pred.z8 - np.exp(1j * np.pi / 4)) <= 1e-14


def test_prediction_nu48_collapses():
    pred = predicted_free_fermion(48, 7)
    assert pred.omega_N == 1.0 + 0j
    assert pred.z8 == 1.0 + 0j
    assert pred.z2 == 1


def test_prediction_odd_nu_has_no_order8_branch():
    pred = predicted_free_fermion(1, 3)
    assert pred.z2 == -1
    assert pred.z8_exponent is None and pred.z8 is None


def test_prediction_rejects_even_copies():
    with pytest.raises(ComputationError, match="even copies unsupported"):
        predicted_free_fermion(2, 4)


@pytest.mark.parametrize("N", [0, -1, -3])
def test_prediction_rejects_a_count_below_one(N):
    # an odd negative count would otherwise give a sigma of the wrong sign
    with pytest.raises(ComputationError, match="copies must be >= 1"):
        predicted_free_fermion(2, N)


@pytest.mark.parametrize("nu", [2.5, 2.0, "2"])
def test_prediction_refuses_a_non_integer_invariant(nu):
    # int(nu) once truncated 2.5 to 2 and gave sigma 2.0 for (2.5, 3)
    with pytest.raises(ComputationError, match=f"nu must be an integer, not {nu!r}"):
        predicted_free_fermion(nu, 3)


@pytest.mark.parametrize("N", [3.5, 3.0, "3"])
def test_prediction_refuses_a_non_integer_copy_count(N):
    # (2, 3.5) once failed with a TypeError from Fraction
    with pytest.raises(ComputationError, match=f"copies must be an integer, not {N!r}"):
        predicted_free_fermion(2, N)


def test_prediction_takes_numpy_integers():
    assert predicted_free_fermion(np.int64(2), np.int32(3)) == predicted_free_fermion(2, 3)


@pytest.mark.parametrize("N", [1, 3, 5, 7, 9])
def test_prediction_exact_orders(N):
    for nu in range(-8, 9):
        pred = predicted_free_fermion(nu, N)
        assert pred.sigma_exact.denominator == 1
        assert (12 * pred.omega_N_exponent).denominator == 1
        assert (48 * N * pred.theta_N_exponent).denominator == 1
        if nu % 2 == 0:
            assert (8 * pred.z8_exponent).denominator == 1


# ---------------------------------------------------------------------------
# cocycle representative


def test_cocycle_examples():
    assert cocycle_exponent(3, 1, 2, 2) == 1
    assert cocycle_exponent(3, 2, 2, 2) == 2
    assert cocycle_exponent(3, 2, 1, 1) == 0
    assert cocycle_exponent(3, 4, 2, 2) == cocycle_exponent(3, 1, 2, 2)


@pytest.mark.parametrize("args, message", [((0, 1, 1, 1), "N must be >= 1"), ((-3, 1, 1, 1), "N must be >= 1"),
                                           ((3, 1.5, 1, 1), "a1 must be an integer"),
                                           ((3.0, 1, 2, 2), "N must be an integer"),
                                           ((3, 1, 2, 2.0), "a3 must be an integer")])
def test_cocycle_refuses_bad_arguments(args, message):
    # (0, 1, 1, 1) divided by zero, (3, 1.5, 1, 1) gave 0.0 and
    # (3.0, 1, 2, 2) gave 1.0
    with pytest.raises(ComputationError, match=message):
        cocycle_exponent(*args)


def test_cocycle_condition_exhaustive_n3():
    N = 3
    for a1 in range(N):
        for a2 in range(N):
            for a3 in range(N):
                for a4 in range(N):
                    delta = (cocycle_exponent(N, a2, a3, a4)
                             - cocycle_exponent(N, (a1 + a2) % N, a3, a4)
                             + cocycle_exponent(N, a1, (a2 + a3) % N, a4)
                             - cocycle_exponent(N, a1, a2, (a3 + a4) % N)
                             + cocycle_exponent(N, a1, a2, a3))
                    assert delta % N == 0


# ---------------------------------------------------------------------------
# invariants on concrete projections


def test_identical_generators_give_exact_zero(qwz_stack3_r6_generators):
    P, part, g0, _ = qwz_stack3_r6_generators
    assert hall_sigma(P, g0, g0, part) == 0.0


def test_non_hermitian_generators_are_refused(qwz_r6):
    # real generators on the half that are not symmetric give Tr(P[Q0, Q1])
    # an imaginary part
    P, part = qwz_r6
    assert P.fiber == 2
    rng = np.random.default_rng(5)
    g0, g1 = (FluxGenerator(rng.standard_normal(P.factor.shape), fiber=2) for _ in range(2))
    with pytest.raises(ComputationError, match="non-Hermitian anomaly"):
        invariants.hall_sigma_with_residual(P, g0, g1, part)


def test_sigma_scales_quadratically(qwz_stack3_r6_generators):
    P, part, g0, g1 = qwz_stack3_r6_generators
    base = hall_sigma(P, g0, g1, part)
    half = FluxGenerator(0.5 * g0.factor, g0.charge, g0.region, g0.fiber)
    third = FluxGenerator((1 / 3) * g1.factor, g1.charge, g1.region, g1.fiber)
    scaled = hall_sigma(P, half, third, part)
    assert abs(scaled - base / 6) <= 1e-12 * max(1.0, abs(base))


def test_conjugated_projection_flips_invariant(qwz_r6):
    P, part = qwz_r6
    nu = chern_number(P, part)
    Pc = BasisProjection(-P.O, P.geometry)  # conj(P)
    assert abs(chern_number(Pc, part) + nu) <= 1e-12


def test_nonhermitian_input_is_refused(qwz_r6):
    P, part = qwz_r6
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(P.O.shape)
    Pbad = BasisProjection(P.O + 1e-3 * noise, P.geometry)
    with pytest.raises(ComputationError, match="non-Hermitian anomaly"):
        chern_number_with_residual(Pbad, part)


def test_hermitian_residual_is_tiny(qwz_r6):
    P, part = qwz_r6
    _, res = chern_number_with_residual(P, part)
    assert res <= 1e-12


@pytest.mark.parametrize("family", ["qwz", "pip"])
def test_nu_is_invariant_under_c4(family):
    # rotating the apex offset and the boundary angles by pi/2 maps the disk
    # and its cores onto themselves with the sites in another order
    majoranas, build = {"qwz": (4, lambda g: build_qwz(1.0, g)),
                        "pip": (2, lambda g: build_pip(-1.0, 0.5, g))}[family]
    x, y = DEFAULT_APEX_OFFSET
    nus = []
    for offset, turn in (((x, y), 0.0), ((-y, x), np.pi / 2)):
        geom = build_disk_lattice("square", 8.0, offset, majorana_count=majoranas)
        part = make_good_partition(geom.apex, tuple(a + turn for a in DEFAULT_BOUNDARY_ANGLES))
        nus.append(chern_number(ground_projection(build(geom), 1e-4), part))
    assert abs(nus[0] - nus[1]) <= 1e-12


def test_missing_geometry_is_refused(qwz_r6):
    _, part = qwz_r6
    P = BasisProjection(np.zeros((4, 4)))  # P = I/2
    with pytest.raises(ComputationError, match="projection carries no geometry"):
        chern_number(P, part)


@pytest.mark.parametrize("core_fraction, sizes", [(0.05, [1, 0, 0]), (1.0, [40, 36, 36])])
def test_a_core_window_that_cannot_carry_the_index_is_refused(qwz_stack3_r6_generators,
                                                              core_fraction, sizes):
    # chern, hall and bch share _core_indices: an empty core, or cores that
    # hold the whole disk (112 sites at R=6), where the traces cancel
    # identically, would give 0
    P, part, g0, g1 = qwz_stack3_r6_generators
    message = re.escape(f"core_fraction {core_fraction} gives cores of {sizes} of 112 sites")
    for call in (lambda: chern_number(P, part, core_fraction),
                 lambda: hall_sigma(P, g0, g1, part, core_fraction),
                 lambda: exchange_phase_bch(P, g0, g1, 0.1, 0.1, part, core_fraction)):
        with pytest.raises(ComputationError, match=message):
            call()


def test_unconverged_random_state_is_refused():
    # frozen seed: a generic gapped antisymmetric generator whose windowed
    # invariant sits far from every integer
    from artifact.models import QuadraticHamiltonian
    geom = build_disk_lattice("square", 4.0, majorana_count=2)
    part = make_good_partition((0.31, 0.17))
    rng = np.random.default_rng(0)
    A = rng.standard_normal((geom.dim_K, geom.dim_K))
    h = QuadraticHamiltonian(1j * (A - A.T) / 2, geom)
    P = ground_projection(h, gap_tol=1e-10)
    with pytest.raises(ComputationError, match="unconverged"):
        parity_indices(P, part)


@pytest.mark.parametrize("nu, tol, want", [
    (2.04, 0.1, 2), (-0.96, 0.1, -1), (1.7, 0.1, None), (2.1, 0.1, None),
    (1.5, np.nan, None), (np.nan, 0.1, None), (np.inf, 0.1, None)])
def test_nu_rounds_within_its_tolerance_only(nu, tol, want):
    assert round_nu(nu, tol) == want


@pytest.mark.parametrize("nu, tol", [(1.5, np.nan), (np.nan, 0.1)])
def test_parity_refuses_a_nan_invariant_or_tolerance(nu, tol):
    with pytest.raises(ComputationError, match="unconverged"):
        parity_from_nu(nu, tol)


# ---------------------------------------------------------------------------
# flux-commutator exchange phase


def test_bch_zero_flux_short_circuit(qwz_stack3_r6_generators):
    P, part, g0, g1 = qwz_stack3_r6_generators
    assert exchange_phase_bch(P, g0, g1, 0.0, 0.3, part) == 1.0 + 0j
    assert exchange_phase_bch(P, g0, g1, 0.3, 0.0, part) == 1.0 + 0j


@pytest.mark.parametrize("alphas", [(0.0, 0.1), (0.1, 0.0), (0.1, 0.1)])
def test_bch_validates_generators_before_a_zero_angle(qwz_r6, alphas):
    # a zero angle returns 1 only for generators that act on P's space
    P, part = qwz_r6
    g = FluxGenerator(np.eye(6))
    with pytest.raises(ComputationError, match="dimension mismatch"):
        exchange_phase_bch(P, g, g, *alphas, part)
    B = np.eye(P.dim_K)
    with pytest.raises(ComputationError, match="different charges"):
        exchange_phase_bch(P, FluxGenerator(B), FluxGenerator(B, 2 * np.ones((1, 1))),
                           *alphas, part)


def _synthetic_projection():
    # the two short-circuits below never read P beyond its dimension
    return BasisProjection(np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]))


def test_bch_commuting_generators_give_one(monkeypatch):
    # C - I is rounding noise, below 1e-13 in Frobenius norm: the sector is
    # skipped before either logarithm runs
    d = np.diag(np.array([1.0, 2.0, -1.0, 0.5]))
    g0 = FluxGenerator(d.astype(complex))
    g1 = FluxGenerator((2 * d).astype(complex))
    P = _synthetic_projection()

    def no_log(*args):
        raise AssertionError("a logarithm ran on an identity sector")

    monkeypatch.setattr(invariants, "_log_near_identity", no_log)
    monkeypatch.setattr(invariants, "_log_series", no_log)
    assert exchange_phase_bch(P, g0, g1, 0.4, 0.7, None) == 1.0 + 0j


def test_bch_branch_ambiguity_detected():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    pad = np.zeros((2, 2), dtype=complex)
    g0 = FluxGenerator(np.block([[sx, pad], [pad, pad]]))
    g1 = FluxGenerator(np.block([[sz, pad], [pad, pad]]))
    P = _synthetic_projection()
    with pytest.raises(ComputationError, match="branch ambiguity"):
        exchange_phase_bch(P, g0, g1, np.pi / 2, np.pi / 2, None)


def test_log_far_from_identity_uses_the_general_logarithm():
    # ||C - I|| >= 0.5 leaves the Mercator series; the spectrum of C = exp(iX)
    # stays within angle 1 of 1, far from the branch cut at -1
    rng = np.random.default_rng(7)
    G = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    X = (G + G.conj().T) / 2
    X /= np.linalg.norm(X, 2)
    w, V = np.linalg.eigh(X)
    C = (V * np.exp(1j * w)) @ V.conj().T
    norm_e = float(np.linalg.norm(C - np.eye(12), 2))
    assert norm_e >= 0.5
    assert float(np.max(np.abs(_log_near_identity(C - np.eye(12)) - 1j * X))) <= 1e-10


def _exp_i(thetas, seed=3):
    """Hermitian X with eigenvalues thetas in a random basis, and C = exp(iX)."""
    rng = np.random.default_rng(seed)
    n = len(thetas)
    V = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    X = (V * np.asarray(thetas)) @ V.conj().T
    return X, (V * np.exp(1j * np.asarray(thetas))) @ V.conj().T


@pytest.mark.parametrize("dist, refused", [(1.87, False), (1.89, True)])
def test_log_branch_rule_is_exact_at_its_threshold(dist, refused):
    # one eigenvalue at |e^(i theta) - 1| = dist, just inside or outside the
    # refusal radius 1.88 of |C - I|_2
    X, C = _exp_i([2 * np.arcsin(dist / 2), 0.3, -0.2, 0.1, 0.0, -0.4])
    E = C - np.eye(6)
    if refused:
        with pytest.raises(ComputationError, match="branch ambiguity"):
            _log_near_identity(E)
    else:
        assert float(np.max(np.abs(_log_near_identity(E) - 1j * X))) <= 1e-10


def test_log_series_is_exact_inside_its_radius():
    # |E|_F < 0.5: the Mercator series, for the full logarithm and on a thin
    # block of columns; the Cayley transform is exact there too (it
    # overwrites its argument, so it gets a copy)
    X, C = _exp_i(0.1 * np.linspace(-1.0, 1.0, 12))
    E = C - np.eye(12)
    assert float(np.linalg.norm(E)) < 0.5
    assert float(np.max(np.abs(_log_series(E, np.eye(12)) - 1j * X))) <= 1e-14
    Y = np.random.default_rng(4).standard_normal((12, 3))
    assert float(np.max(np.abs(_log_series(E, Y) - 1j * X @ Y))) <= 1e-14
    assert float(np.max(np.abs(_log_near_identity(E.copy()) - 1j * X))) <= 1e-14


def test_log_refuses_a_singular_cayley_denominator():
    # C = -I exactly: I + C is singular and the solve itself fails
    with pytest.raises(ComputationError, match="branch ambiguity"):
        _log_near_identity(-2.0 * np.eye(4, dtype=complex))


def test_log_frobenius_rule_sends_small_spectral_norm_to_cayley(monkeypatch):
    # |E|_2 < 0.5 <= |E|_F: the series would converge, but exchange_phase_bch
    # checks only the Frobenius bound and sends such an E to the
    # Cayley-transform eigh, which is exact on it too
    X, C = _exp_i(0.4 * np.linspace(-1.0, 1.0, 12))
    E = C - np.eye(12)
    assert float(np.linalg.norm(E, 2)) < 0.5 <= float(np.linalg.norm(E))
    calls = spy_eighs(monkeypatch, lambda a: a.shape)
    assert float(np.max(np.abs(_log_near_identity(E) - 1j * X))) <= 1e-10
    assert calls == [(12, 12)]


def test_bch_refuses_generators_with_different_charges(qwz_stack3_r6_generators):
    P, part, g0, g1 = qwz_stack3_r6_generators
    doubled = FluxGenerator(g1.block, 2 * g1.charge, g1.region)
    with pytest.raises(ComputationError, match="different charges"):
        exchange_phase_bch(P, g0, doubled, 0.1, 0.1, part)


@pytest.mark.parametrize("alpha", [0.1, 2.5])  # Mercator series; Cayley eigh (|C - I| = 0.63)
def test_bch_peak_stays_below_its_memory_estimate(qwz_stack3_r6_generators, alpha):
    # the guard refuses up front on the estimate of _BCH_WORKING_ARRAYS
    # float64 arrays of the generators' factor size (the particle-hole
    # half's, dim/2), so the run itself must need less
    P, part, g0, g1 = qwz_stack3_r6_generators
    tracemalloc.start()
    try:
        exchange_phase_bch(P, g0, g1, alpha, alpha, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array = 8 * len(g0.factor) ** 2
    assert peak < _BCH_WORKING_ARRAYS * array
    if alpha == 0.1:  # the series path holds E, V0 and X, and no W or W^+
        assert peak < 7 * array
    else:  # the Cayley path adds W and log C, and no copy of E or adjoint of W
        assert peak < 9 * array


def test_oversize_bch_refused_up_front(qwz_stack3_r6_generators, monkeypatch):
    # the generators are kept on the particle-hole half, factor dim 224: the
    # estimate of _BCH_WORKING_ARRAYS arrays of that size is above the budget
    P, part, g0, g1 = qwz_stack3_r6_generators
    assert g0.fiber == 2 and len(g0.factor) == 224
    need = _BCH_WORKING_ARRAYS * 8 * 224**2 / 1e9
    assert need > 0.001

    def no_eigh(*args):
        raise AssertionError("the flux commutator ran before the memory guard")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(_util, "available_memory", lambda: 10**6)
    with pytest.raises(ComputationError,
                       match=re.escape(f"flux commutator needs ~{need:.2g} GB, 0.001 GB available")):
        exchange_phase_bch(P, g0, g1, 0.1, 0.1, part)


def test_bch_refuses_a_non_finite_commutator(qwz_stack3_r6_generators):
    # a NaN in a block reaches E; its norm is refused before the branch, on
    # the series and the Cayley path alike, not left to the Cayley eigh
    P, part, g0, g1 = qwz_stack3_r6_generators
    block = g1.factor.copy()
    block[3, 5] = block[5, 3] = np.nan
    poisoned = FluxGenerator(block, g1.charge, fiber=g1.fiber)
    for alpha in (0.1, 2.5):
        with pytest.raises(ComputationError, match="flux commutator is not finite"):
            exchange_phase_bch(P, g0, poisoned, alpha, alpha, part)


def _sector_inputs(n, complex_x, seed=8):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    if complex_x:
        M = M + 1j * rng.standard_normal((n, n))
    X = np.linalg.qr(M)[0]
    return X, np.exp(1j * rng.uniform(-3, 3, n)), np.exp(0.3j * rng.standard_normal(n))


@pytest.mark.parametrize("n", [1, 127, 128, 300])
@pytest.mark.parametrize("complex_x", [False, True])
def test_sector_commutator_matches_the_whole_w_formula(n, complex_x):
    # E filled a block of columns at a time from X alone, against E from
    # the whole W and W^+; a real X runs as real products
    X, d0, p = _sector_inputs(n, complex_x)
    assert np.iscomplexobj(X) == complex_x
    E = _sector_commutator(X, d0, p)
    assert float(np.max(np.abs(E - dense_sector_commutator(X, d0, p)))) <= 1e-14


def test_sector_commutator_matches_on_the_stack_generators(qwz_stack3_r6_generators):
    _, _, g0, g1 = qwz_stack3_r6_generators
    lam0, V0 = np.linalg.eigh(g0.block)
    lam1, V1 = np.linalg.eigh(g1.block)
    X = V0.T @ V1
    for alpha in (0.1, 2.5):
        d0, p = np.exp(1j * alpha * lam0), np.exp(1j * alpha * lam1)
        E = _sector_commutator(X, d0, p)
        assert float(np.max(np.abs(E - dense_sector_commutator(X, d0, p)))) <= 1e-14


def test_bch_matches_closed_form(qwz_stack3_r6_generators):
    P, part, g0, g1 = qwz_stack3_r6_generators
    sigma = hall_sigma(P, g0, g1, part)
    err = [abs(exchange_phase_bch(P, g0, g1, a, a, part)
               - exchange_phase_closed(sigma, a, a))
           for a in (0.1, 0.05)]
    assert err[0] <= 1e-6
    assert err[1] <= err[0] / 4


@pytest.mark.parametrize("alpha", [0.1, 1.0])  # Mercator series, 5 and 15 terms
def test_bch_phase_has_unit_modulus(qwz_stack3_r6_generators, alpha):
    # log C is anti-Hermitian, so the exponent is i times a real number and
    # |bch| = 1 to the rounding of exp(i phi) alone
    P, part, g0, g1 = qwz_stack3_r6_generators
    assert abs(abs(exchange_phase_bch(P, g0, g1, alpha, alpha, part)) - 1.0) <= 1e-15


@pytest.mark.parametrize("alpha", [0.1, 1.0, 2.5])  # series (5, 15 terms); series; Cayley eigh
def test_bch_matches_the_dense_commutator(qwz_stack3_r6_generators, alpha):
    P, part, g0, g1 = qwz_stack3_r6_generators
    want = dense_exchange_phase_bch(P, g0, g1, alpha, alpha, part)
    assert abs(exchange_phase_bch(P, g0, g1, alpha, alpha, part) - want) <= 1e-12


@pytest.mark.parametrize("scale", [0.1, 1.0])  # series; Cayley eigh
@pytest.mark.parametrize("field", [complex, float])
def test_bch_matches_the_dense_commutator_on_random_blocks(scale, field):
    # random Hermitian generators with the charge [[1]]: complex blocks make
    # the eigenvectors, and so X = V0^+ V1, complex; real blocks make X real,
    # but a real charge has no sector -j to read off the sector j. They do
    # not fold onto the qwz disk's half, so they run on its fiber-1 view
    geom = build_disk_lattice("square", 4.0, majorana_count=4)
    part = make_good_partition(geom.apex)
    half = ground_projection(build_qwz(1.0, geom), 1e-4)
    P = BasisProjection(half.O, half.geometry, copies=half.copies)
    rng = np.random.default_rng(5)
    n = P.O.shape[0]

    def generator():
        G = rng.standard_normal((n, n))
        if field is complex:
            G = G + 1j * rng.standard_normal((n, n))
        B = (G + G.conj().T) / 2
        return FluxGenerator(B / np.linalg.norm(B, 2))

    g0, g1 = generator(), generator()
    want = dense_exchange_phase_bch(P, g0, g1, scale, scale, part)
    assert abs(exchange_phase_bch(P, g0, g1, scale, scale, part) - want) <= 1e-12


def test_bch_series_runs_on_the_anchor_only(qwz_stack3_r6_generators, monkeypatch):
    # |C - I|_F < 0.5 at alpha 0.1: the full logarithm is never formed, and
    # the series runs once, on the anchor's columns of the sector j = 1 only
    # (j = -1 is its conjugate, and the rows follow from the columns); at
    # alpha 2.5 the Cayley transform needs the full logarithm
    P, part, g0, g1 = qwz_stack3_r6_generators

    class Formed(Exception):
        pass

    def formed(E):
        raise Formed

    series = []

    def spy(E, Y):
        series.append(Y.shape)
        return log_series(E, Y)

    log_series = invariants._log_series
    monkeypatch.setattr(invariants, "_log_near_identity", formed)
    monkeypatch.setattr(invariants, "_log_series", spy)
    sigma = hall_sigma(P, g0, g1, part)
    assert abs(exchange_phase_bch(P, g0, g1, 0.1, 0.1, part)
               - exchange_phase_closed(sigma, 0.1, 0.1)) <= 1e-4
    anchor = invariants._core_indices(P, part, 0.7)[2]
    assert series == [(len(g0.factor), len(anchor))]
    with pytest.raises(Formed):
        exchange_phase_bch(P, g0, g1, 2.5, 2.5, part)


# ---------------------------------------------------------------------------
# stacked-copy statistics


@pytest.fixture(scope="module")
def trivial_stack3():
    h = build_trivial(build_disk_lattice("square", 5.0, majorana_count=2))
    hs = stack_copies(h, 3)
    P = ground_projection(hs)
    part = make_good_partition((0.31, 0.17))
    return P, part


def test_trivial_stack_statistics_vanish(trivial_stack3):
    P, part = trivial_stack3
    sigma, theta3, omega3 = twist_statistics(P, 3, part)
    assert abs(sigma) <= 1e-10
    assert abs(theta3 - 1.0) <= 1e-10
    assert abs(omega3 - 1.0) <= 1e-10


def test_twist_requires_divisible_fiber(qwz_r6):
    P, part = qwz_r6
    with pytest.raises(ComputationError, match="dimension mismatch"):
        twist_statistics(P, 3, part)


def test_parity_indices_trivial(triv_r6):
    P, part = triv_r6
    z2, z8 = parity_indices(P, part)
    assert z2 == 1
    assert abs(z8 - 1.0) <= 1e-10


@pytest.fixture(scope="module")
def pip_r8():
    geom = build_disk_lattice("square", 8.0, majorana_count=2)
    return ground_projection(build_pip(-1.0, 0.5, geom), 1e-4), make_good_partition(geom.apex)


@pytest.mark.parametrize("case", ["triv_r6", "qwz_r6", "pip_r8"])
def test_parity_flux_is_half_nu(case, request):
    # parity_indices takes sigma = nu / 2; the dense parity generators are its oracle
    P, part = request.getfixturevalue(case)
    ids, geom = core_regions(P, part, 0.7)
    sigma = hall_sigma(P, parity_charge(P, ids[0], geom), parity_charge(P, ids[1], geom), part)
    nu = chern_number(P, part)
    assert abs(sigma - nu / 2) <= 1e-10
    if round(nu) % 2 == 0:
        _, z8 = parity_indices(P, part)
        assert abs(z8 - exchange_phase_closed(sigma, np.pi, np.pi)) <= 1e-10


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([3, 5]))
@settings(max_examples=12, deadline=None)
def test_flux_identities_on_random_gapped_models(seed, N):
    # a random antisymmetric A is gapped but not topological: its nu is no
    # integer, so these identities hold as algebra, not by rounding
    from artifact.models import QuadraticHamiltonian
    geom = build_disk_lattice("square", 4.0, majorana_count=2)
    part = make_good_partition(geom.apex)
    G = np.random.default_rng(seed).standard_normal((geom.dim_K, geom.dim_K))
    h = QuadraticHamiltonian((G - G.T) / 2, geom)
    P = ground_projection(h, gap_tol=1e-10)
    nu = chern_number(P, part)
    ids, _ = core_regions(P, part, 0.7)
    sigma_parity = hall_sigma(P, parity_charge(P, ids[0], geom),
                              parity_charge(P, ids[1], geom), part)
    assert abs(2 * sigma_parity - nu) <= 1e-10
    P_N = ground_projection(stack_copies(h, N), 1e-10)
    sigma_N, _, _ = twist_statistics(P_N, N, part)
    assert abs(sigma_N - nu * (N**3 - N) / 24) <= 1e-10
    # twist_statistics is that identity; the dressed cyclic charges are its oracle
    g0, g1 = (dress_charge(P_N, lift_charge(cyclic_charge(N), geom, ids[a])) for a in (0, 1))
    assert abs(sigma_N - hall_sigma(P_N, g0, g1, part)) <= 1e-10
    Pc = BasisProjection(-P.O, P.geometry)  # conj(P)
    assert abs(chern_number(Pc, part) + nu) <= 1e-10


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([2, 4]))
@settings(max_examples=12, deadline=None)
def test_nu_under_rotation_and_mirror_on_random_gapped_models(seed, majoranas):
    # moving the sites, the apex and the boundary angles together by a
    # quarter turn keeps nu; the mirror x -> -x reverses orientation and
    # flips it. A random A makes nu no integer, so both hold as algebra
    from artifact.models import QuadraticHamiltonian
    (x, y), angles = DEFAULT_APEX_OFFSET, DEFAULT_BOUNDARY_ANGLES
    geom = build_disk_lattice("square", 4.0, (x, y), majorana_count=majoranas)
    G = np.random.default_rng(seed).standard_normal((geom.dim_K, geom.dim_K))
    ids = {(x, y): i for i, (x, y) in enumerate(geom.sites.tolist())}

    def nu(apex, boundary_angles, preimage):
        # the same A on the moved disk: its site (x, y) is the original site
        # preimage(x, y), with that site's Majorana modes in order
        g = build_disk_lattice("square", 4.0, apex, majorana_count=majoranas)
        sites = np.array([ids[preimage(x, y)] for x, y in g.sites.tolist()])
        fiber = (sites[:, None] * majoranas + np.arange(majoranas)).ravel()
        A = (G - G.T)[np.ix_(fiber, fiber)] / 2
        P = ground_projection(QuadraticHamiltonian(A, g), 1e-10)
        return chern_number(P, make_good_partition(g.apex, boundary_angles))

    nu0 = nu((x, y), angles, lambda u, v: (u, v))
    turned = nu((-y, x), tuple(a + np.pi / 2 for a in angles), lambda u, v: (v, -u))
    mirrored = nu((-x, y), tuple(sorted((np.pi - a) % (2 * np.pi) for a in angles)),
                  lambda u, v: (-u, v))
    assert abs(turned - nu0) <= 1e-10
    assert abs(mirrored + nu0) <= 1e-10


# ---------------------------------------------------------------------------
# report


def test_report_roundtrip_and_keys():
    cfg = load_config(None)
    cfg["model"]["family"], cfg["geometry"]["radius"] = "trivial", 4.0
    blob = json.loads(json.dumps(compute_report(cfg, "parity")))
    assert set(blob) == {"nu", "nu_rounded", "sigma", "theta_N", "omega_N", "z2", "z8",
                         "diagnostics"}
    assert blob["z8"]["arg"] == pytest.approx(0.0, abs=1e-12)
    assert blob["theta_N"] is None
    assert blob["diagnostics"]["radius"] == 4.0


def test_prediction_is_frozen():
    pred = predicted_free_fermion(2, 3)
    assert isinstance(pred, FreeFermionPrediction)
    with pytest.raises(Exception):
        pred.nu = 5
