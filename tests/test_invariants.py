import json
from fractions import Fraction

import numpy as np
import pytest

from artifact import (ComputationError, FreeFermionPrediction, IndexReport,
                      build_disk_lattice, build_pip, build_trivial, chern_number,
                      chern_number_with_residual, cocycle_exponent, core_regions,
                      exchange_phase_bch, exchange_phase_closed, ground_projection,
                      hall_sigma, make_good_partition, parity_charge, parity_indices,
                      predicted_free_fermion, stack_copies, twist_statistics)
from artifact.invariants import _log_near_identity
from artifact.quasifree import BasisProjection
from artifact.symgen import FluxGenerator


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
    assert tuple(pred) == (0.0, 1.0 + 0j, 1.0 + 0j, 1, 1.0 + 0j)


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


def test_sigma_scales_quadratically(qwz_stack3_r6_generators):
    P, part, g0, g1 = qwz_stack3_r6_generators
    base = hall_sigma(P, g0, g1, part)
    half = FluxGenerator(0.5 * g0.block, g0.kind, g0.region, g0.charge)
    third = FluxGenerator((1 / 3) * g1.block, g1.kind, g1.region, g1.charge)
    scaled = hall_sigma(P, half, third, part)
    assert abs(scaled - base / 6) <= 1e-12 * max(1.0, abs(base))


def test_conjugated_projection_flips_invariant(qwz_r6):
    P, part = qwz_r6
    nu = chern_number(P, part)
    Pc = BasisProjection(P.matrix.conj(), P.source, P.gap_used, P.geometry)
    assert abs(chern_number(Pc, part) + nu) <= 1e-12


def test_nonhermitian_input_is_refused(qwz_r6):
    P, part = qwz_r6
    rng = np.random.default_rng(3)
    noise = (rng.standard_normal(P.matrix.shape)
             + 1j * rng.standard_normal(P.matrix.shape))
    Pbad = BasisProjection(P.matrix + 1e-3 * noise, "corrupt",
                           P.gap_used, P.geometry)
    with pytest.raises(ComputationError, match="non-Hermitian anomaly"):
        chern_number_with_residual(Pbad, part)


def test_hermitian_residual_is_tiny(qwz_r6):
    P, part = qwz_r6
    _, res = chern_number_with_residual(P, part)
    assert res <= 1e-12


def test_missing_geometry_is_refused(qwz_r6):
    _, part = qwz_r6
    P = BasisProjection(np.eye(4) / 2 + 0j, "synthetic", 0.0)
    with pytest.raises(ComputationError, match="projection carries no geometry"):
        chern_number(P, part)


def test_unconverged_random_state_is_refused():
    # frozen seed: a generic gapped antisymmetric generator whose windowed
    # invariant sits far from every integer
    from artifact.models import QuadraticHamiltonian
    geom = build_disk_lattice("square", 4.0, majorana_count=2)
    part = make_good_partition((0.31, 0.17))
    rng = np.random.default_rng(0)
    A = rng.standard_normal((geom.dim_K, geom.dim_K))
    h = QuadraticHamiltonian(1j * (A - A.T) / 2, geom, "random", {"seed": 0})
    P = ground_projection(h, gap_tol=1e-10)
    with pytest.raises(ComputationError, match="unconverged"):
        parity_indices(P, part)


# ---------------------------------------------------------------------------
# flux-commutator exchange phase


def test_bch_zero_flux_short_circuit(qwz_stack3_r6_generators):
    P, part, g0, g1 = qwz_stack3_r6_generators
    assert exchange_phase_bch(P, g0, g1, 0.0, 0.3, part) == 1.0 + 0j
    assert exchange_phase_bch(P, g0, g1, 0.3, 0.0, part) == 1.0 + 0j


def test_bch_commuting_generators_give_one():
    d = np.diag(np.array([1.0, 2.0, -1.0, 0.5]))
    g0 = FluxGenerator(d.astype(complex), "dressed-charge")
    g1 = FluxGenerator((2 * d).astype(complex), "dressed-charge")
    P = BasisProjection(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
                        "synthetic", 0.0)
    assert exchange_phase_bch(P, g0, g1, 0.4, 0.7, None) == 1.0 + 0j


def test_bch_branch_ambiguity_detected():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    pad = np.zeros((2, 2), dtype=complex)
    g0 = FluxGenerator(np.block([[sx, pad], [pad, pad]]), "dressed-charge")
    g1 = FluxGenerator(np.block([[sz, pad], [pad, pad]]), "dressed-charge")
    P = BasisProjection(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
                        "synthetic", 0.0)
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
    assert float(np.max(np.abs(_log_near_identity(C, norm_e) - 1j * X))) <= 1e-10


def test_bch_refuses_generators_with_different_charges(qwz_stack3_r6_generators):
    P, part, g0, g1 = qwz_stack3_r6_generators
    doubled = FluxGenerator(g1.block, g1.kind, g1.region, 2 * g1.charge)
    with pytest.raises(ComputationError, match="different charges"):
        exchange_phase_bch(P, g0, doubled, 0.1, 0.1, part)


def test_bch_matches_closed_form(qwz_stack3_r6_generators):
    P, part, g0, g1 = qwz_stack3_r6_generators
    sigma = hall_sigma(P, g0, g1, part)
    err = [abs(exchange_phase_bch(P, g0, g1, a, a, part)
               - exchange_phase_closed(sigma, a, a))
           for a in (0.1, 0.05)]
    assert err[0] <= 1e-6
    assert err[1] <= err[0] / 4


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


# ---------------------------------------------------------------------------
# report container


def test_report_roundtrip_and_keys():
    rep = IndexReport(nu=1.998, nu_rounded=2, sigma=0.999,
                      theta=exchange_phase_closed(0.999, np.pi, np.pi),
                      z2=1, z8_phase=complex(np.exp(1j * np.pi / 4)),
                      diagnostics={"radius": 8.0})
    rep.validate()
    blob = json.loads(rep.to_json())
    assert set(blob) == {"nu", "nu_rounded", "sigma", "theta_re", "theta_im",
                         "theta_N", "omega_N", "z2", "z8", "diagnostics"}
    assert blob["z8"]["arg"] == pytest.approx(np.pi / 4)
    assert blob["theta_N"] is None
    assert blob["diagnostics"]["radius"] == 8.0


def test_report_rejects_nonunit_phase():
    rep = IndexReport(theta=1.2 + 0j)
    with pytest.raises(ComputationError, match="unit phase"):
        rep.validate()


def test_report_rejects_order8_phase_at_odd_invariant():
    rep = IndexReport(nu_rounded=1, z8_phase=1.0 + 0j)
    with pytest.raises(ComputationError, match="odd invariant"):
        rep.validate()


def test_prediction_is_frozen():
    pred = predicted_free_fermion(2, 3)
    assert isinstance(pred, FreeFermionPrediction)
    with pytest.raises(Exception):
        pred.nu = 5
