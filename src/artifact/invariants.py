"""Topological index computations on finite disks.

All indices are junction-localized: traces of commutator-type expressions,
which vanish identically on a finite space when summed over a complete set of
regions (cyclicity of the trace), are evaluated against the core of the third
cone and scaled by the junction multiplicity 3. The cores are the cone
interiors within `core_fraction` of the disk radius, which excludes the
boundary collar carrying the edge modes; see the package README for the
calibration runs fixing this scheme and its factor.

Computed quantities:
  - chern_number: real-space two-region invariant of a basis projection.
  - hall_sigma: response coefficient of a pair of dressed flux generators.
  - exchange_phase_closed / exchange_phase_bch: flux-insertion exchange
    phase, closed form and group-commutator cross-check.
  - twist_statistics: copy-cycling defect statistics on an N-fold stack.
  - parity_indices: the (-1)^nu index and, for even nu, the order-8 phase.
  - predicted_free_fermion / cocycle_exponent: exact reference values.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from ._util import ComputationError, spectral_norm_estimate
from .geometry import ConicalPartition, region_mask, windowed_site_ids
from .quasifree import BasisProjection
from .symgen import FluxGenerator, cyclic_charge, dress_charge, lift_charge

#: a commutator trace localized at the triple junction receives equal
#: contributions from the three cone pairs; anchoring on one core region
#: accounts for a third of the total
JUNCTION_MULTIPLICITY = 3

DEFAULT_CORE_FRACTION = 0.7

#: residual above which a projection is considered broken
ANOMALY_TOL = 1e-6

DEFAULT_NU_ROUND_TOL = 0.1


# ---------------------------------------------------------------------------
# region bookkeeping


def core_regions(P: BasisProjection, partition: ConicalPartition, core_fraction: float):
    geom = getattr(P, "geometry", None)
    if geom is None:
        raise ComputationError("projection carries no geometry")
    return windowed_site_ids(partition, geom, core_fraction), geom


def _anchor_ids(P: BasisProjection, partition: ConicalPartition, core_fraction: float):
    """Indices of the third core in P's single-copy block."""
    ids, geom = core_regions(P, partition, core_fraction)
    block_geom = geom.with_majorana_count(geom.majorana_count // P.copies)
    return np.where(region_mask(ids[2], block_geom))[0]


# ---------------------------------------------------------------------------
# real-space Chern number


def _triple_trace(P: np.ndarray, i0, i1, i2) -> complex:
    """Tr(Pi_0 P Pi_1 P Pi_2 P) using rectangular blocks of P only."""
    A = P[np.ix_(i0, i1)]
    B = P[np.ix_(i1, i2)]
    C = P[np.ix_(i2, i0)]
    return complex(np.einsum("ab,bc,ca->", A, B, C, optimize=True))


def chern_number_with_residual(P: BasisProjection, partition: ConicalPartition,
                               core_fraction: float = DEFAULT_CORE_FRACTION):
    """Junction-localized two-region invariant and its imaginary residual.

    Expanding the commutator form 4 pi i Tr P[P Pi_0 P, P Pi_1 P] over the
    three cone cores and applying the junction multiplicity gives
    12 pi i (T_012 - T_021) with T_abc = Tr(Pi_a P Pi_b P Pi_c P). The two
    triple traces are conjugates for Hermitian P, so the imaginary part of
    the result measures how badly the projection is broken.
    """
    ids, geom = core_regions(P, partition, core_fraction)
    masks = [np.where(region_mask(r, geom))[0] for r in ids]
    Pm = P.matrix
    t012 = _triple_trace(Pm, masks[0], masks[1], masks[2])
    t021 = _triple_trace(Pm, masks[0], masks[2], masks[1])
    val = 4j * np.pi * JUNCTION_MULTIPLICITY * (t012 - t021)
    nu = float(val.real)
    residual = abs(float(val.imag))
    if residual > ANOMALY_TOL:
        raise ComputationError("non-Hermitian anomaly")
    return nu, residual


def chern_number(P: BasisProjection, partition: ConicalPartition,
                 core_fraction: float = DEFAULT_CORE_FRACTION) -> float:
    return chern_number_with_residual(P, partition, core_fraction)[0]


# ---------------------------------------------------------------------------
# Hall response of flux generators


def hall_sigma_with_residual(P: BasisProjection, g0: FluxGenerator, g1: FluxGenerator,
                             partition: ConicalPartition,
                             core_fraction: float = DEFAULT_CORE_FRACTION):
    """Junction-localized 2 pi i Tr(P[Q0, Q1]) and its imaginary residual.

    The commutator trace is anchored on the core of the third cone (the one
    carrying neither generator) and scaled by the junction multiplicity.
    With P = kron(P1, I_N) and Qa = kron(Ba, qa) the trace factors into
    Tr(q0 q1) times the same trace of the blocks. Identical generators
    short-circuit to exactly zero.
    """
    if g0 is g1 or (np.array_equal(g0.block, g1.block)
                     and np.array_equal(g0.charge, g1.charge)):
        return 0.0, 0.0
    g0.check_factors(P)
    g1.check_factors(P)
    anchor = _anchor_ids(P, partition, core_fraction)
    Pm, Q0, Q1 = P.block, g0.block, g1.block
    Pa = Pm[anchor, :]
    t_fwd = np.einsum("ij,ji->", Pa @ Q0, Q1[:, anchor], optimize=True)
    t_rev = np.einsum("ij,ji->", Pa @ Q1, Q0[:, anchor], optimize=True)
    copy_trace = np.trace(g0.charge @ g1.charge)
    val = 2j * np.pi * JUNCTION_MULTIPLICITY * copy_trace * (t_fwd - t_rev)
    sigma = float(val.real)
    residual = abs(float(val.imag))
    if residual > ANOMALY_TOL:
        raise ComputationError("non-Hermitian anomaly")
    return sigma, residual


def hall_sigma(P: BasisProjection, g0: FluxGenerator, g1: FluxGenerator,
               partition: ConicalPartition,
               core_fraction: float = DEFAULT_CORE_FRACTION) -> float:
    return hall_sigma_with_residual(P, g0, g1, partition, core_fraction)[0]


# ---------------------------------------------------------------------------
# exchange phases


def exchange_phase_closed(sigma: float, alpha0: float, alpha1: float) -> complex:
    """Closed-form exchange phase exp(i alpha0 alpha1 sigma / 4 pi)."""
    return complex(np.exp(1j * alpha0 * alpha1 * sigma / (4 * np.pi)))


def _log_near_identity(C: np.ndarray, norm_e: float) -> np.ndarray:
    """Principal logarithm of a unitary with spectrum away from -1."""
    E = C - np.eye(C.shape[0], dtype=complex)
    if norm_e < 0.5:
        # Mercator series; spectral radius < 1 guarantees convergence
        L = np.zeros_like(E)
        term = E.copy()
        sign = 1.0
        for k in range(1, 61):
            L += (sign / k) * term
            if float(np.max(np.abs(term))) / (k + 1) < 1e-16:
                break
            term = term @ E
            sign = -sign
        return L
    lam = np.linalg.eigvals(C)
    if float(np.min(np.abs(lam + 1.0))) < 0.1:
        raise ComputationError("branch ambiguity; reduce alpha")
    import scipy.linalg

    return scipy.linalg.logm(C)


def exchange_phase_bch(P: BasisProjection, g0: FluxGenerator, g1: FluxGenerator,
                       alpha0: float, alpha1: float,
                       partition: ConicalPartition,
                       core_fraction: float = DEFAULT_CORE_FRACTION) -> complex:
    """Exchange phase from the group commutator of the two flux unitaries.

    C = U0 U1 U0* U1* is unitary with spectrum near 1 for small alpha; the
    phase is exp of the junction-localized half-trace of P log C, with the
    anchor symmetrized to keep the exponent purely imaginary up to rounding.
    Matches exchange_phase_closed to cubic order in the flux angles.

    Both generators must carry the same charge c. In its eigenbasis,
    Ua = exp(i alpha_a kron(Ba, c)) splits into the sectors
    exp(i alpha_a j Ba), one per eigenvalue j of c, and so do C, log C and
    the trace. One eigh per block serves every sector; the phase is
    exp(sum_j phi_j), each sector under the branch-ambiguity rule. The
    j = 0 sector is the identity and is skipped.
    """
    if alpha0 == 0.0 or alpha1 == 0.0:
        return complex(1.0)
    g0.check_factors(P)
    g1.check_factors(P)
    if not np.array_equal(g0.charge, g1.charge):
        raise ComputationError("generators carry different charges")
    lam0, V0 = np.linalg.eigh(g0.block)
    lam1, V1 = np.linalg.eigh(g1.block)
    js = np.linalg.eigvalsh(g0.charge)
    Pm, eye = P.block, np.eye(V0.shape[0], dtype=complex)
    anchor, phi = None, 0.0
    for j in js[np.abs(js) > 1e-12 * np.max(np.abs(js))]:
        U0 = (V0 * np.exp(1j * alpha0 * j * lam0)) @ V0.conj().T
        U1 = (V1 * np.exp(1j * alpha1 * j * lam1)) @ V1.conj().T
        C = U0 @ U1 @ U0.conj().T @ U1.conj().T
        E = C - eye
        if float(np.max(np.abs(E))) < 1e-13:
            continue
        norm_e = spectral_norm_estimate(E)
        if norm_e >= 1.9:
            # unitary C is normal, so the 2-norm of C - I equals the largest
            # eigenvalue distance from 1; near 2 means spectrum near -1
            raise ComputationError("branch ambiguity; reduce alpha")
        L = _log_near_identity(C, norm_e)
        if anchor is None:
            anchor = _anchor_ids(P, partition, core_fraction)
        t1 = np.einsum("ij,ji->", Pm[anchor, :], L[:, anchor], optimize=True)
        t2 = np.einsum("ij,ji->", L[anchor, :], Pm[:, anchor], optimize=True)
        phi += 0.5 * JUNCTION_MULTIPLICITY * 0.5 * (t1 + t2)
    return complex(np.exp(phi))


# ---------------------------------------------------------------------------
# stacked-copy twist statistics


def twist_statistics(P_stacked: BasisProjection, N: int, partition: ConicalPartition,
                     core_fraction: float = DEFAULT_CORE_FRACTION):
    """sigma and the defect phases (theta_N, omega_N) of an N-fold stack.

    The cyclic copy-space charge is lifted onto the cores of the first two
    cones, dressed by the stacked projection, and fed to hall_sigma; then
    theta_N = exp(i pi sigma / N^2) and omega_N = theta_N^(2N).
    """
    q = cyclic_charge(N)
    ids, geom = core_regions(P_stacked, partition, core_fraction)
    if geom.majorana_count % N != 0:
        raise ComputationError("dimension mismatch")
    base_geom = geom.with_majorana_count(geom.majorana_count // N)
    g = []
    for a in (0, 1):
        Q = lift_charge(q, base_geom, ids[a])
        g.append(dress_charge(P_stacked, Q, ids[a]))
    sigma = hall_sigma(P_stacked, g[0], g[1], partition, core_fraction)
    theta_N = complex(np.exp(1j * np.pi * sigma / N**2))
    omega_N = complex(np.exp(2j * np.pi * sigma / N))
    return sigma, theta_N, omega_N


# ---------------------------------------------------------------------------
# parity-flux indices


def parity_indices(P: BasisProjection, partition: ConicalPartition,
                   core_fraction: float = DEFAULT_CORE_FRACTION,
                   nu_round_tol: float = DEFAULT_NU_ROUND_TOL):
    """((-1)^nu, order-8 phase) from the rounded invariant and parity fluxes.

    The parity-flux response is nu / 2 identically. The parity generators
    Qa = Pi_a - Pi_a P - P Pi_a (symgen.parity_charge) satisfy
    P Q0 Q1 = P Pi_0 P Pi_1 P when P^2 = P, so hall_sigma of the pair,
    anchored on the third core, is 6 pi i (T_012 - T_021): half the triple
    traces of chern_number. The order-8 phase is therefore the closed-form
    exchange phase at sigma = nu / 2 and flux angles pi, pi; the dense
    generators serve only as the test oracle for this identity.

    The order-8 phase is only defined on the even-nu branch; odd nu returns
    None there. A projection whose invariant does not round within
    nu_round_tol is refused rather than silently rounded.
    """
    nu = chern_number(P, partition, core_fraction)
    nu_r = int(np.rint(nu))
    if abs(nu - nu_r) > nu_round_tol:
        raise ComputationError("unconverged")
    if nu_r % 2:
        return -1, None
    return 1, exchange_phase_closed(nu / 2, np.pi, np.pi)


# ---------------------------------------------------------------------------
# exact reference values


def _unit_phase(turns: Fraction) -> complex:
    t = turns % 1
    if t == 0:
        return complex(1.0)
    return complex(np.exp(2j * np.pi * float(t)))


@dataclass(frozen=True)
class FreeFermionPrediction:
    """Exact reference indices of a stack of N copies at integer invariant nu.

    Exponents are rational numbers in units of full turns, so order
    statements (omega_N^12 = 1, z8^8 = 1) can be checked in exact arithmetic.
    """
    nu: int
    copies: int
    sigma_exact: Fraction
    theta_N_exponent: Fraction
    omega_N_exponent: Fraction
    z2: int
    z8_exponent: Optional[Fraction]

    @property
    def sigma(self) -> float:
        return float(self.sigma_exact)

    @property
    def theta_N(self) -> complex:
        return _unit_phase(self.theta_N_exponent)

    @property
    def omega_N(self) -> complex:
        return _unit_phase(self.omega_N_exponent)

    @property
    def z8(self) -> Optional[complex]:
        if self.z8_exponent is None:
            return None
        return _unit_phase(self.z8_exponent)

    def __iter__(self):
        return iter((self.sigma, self.theta_N, self.omega_N, self.z2, self.z8))


def predicted_free_fermion(nu: int, N: int) -> FreeFermionPrediction:
    """Closed-form indices of an N-fold stack at integer invariant nu:
    sigma = nu (N^3 - N)/24, theta_N = exp(2 pi i (nu/48)(N - 1/N)),
    omega_N = exp(2 pi i nu (N^2 - 1)/24), z2 = (-1)^nu, and for even nu
    z8 = exp(2 pi i nu/16)."""
    if N % 2 == 0:
        raise ComputationError("even copies unsupported")
    nu = int(nu)
    sigma = Fraction(nu * (N**3 - N), 24)
    theta_exp = Fraction(nu * (N**2 - 1), 48 * N)
    omega_exp = Fraction(nu * (N**2 - 1), 24)
    z2 = -1 if nu % 2 else 1
    z8_exp = Fraction(nu, 16) if nu % 2 == 0 else None
    return FreeFermionPrediction(nu, N, sigma, theta_exp, omega_exp, z2, z8_exp)


def cocycle_exponent(N: int, a1: int, a2: int, a3: int) -> int:
    """Integer exponent a1 * floor((a2 + a3)/N) of the group 3-cocycle,
    with arguments reduced mod N."""
    a1, a2, a3 = a1 % N, a2 % N, a3 % N
    return a1 * ((a2 + a3) // N)


# ---------------------------------------------------------------------------
# report container


@dataclass
class IndexReport:
    nu: Optional[float] = None
    nu_rounded: Optional[int] = None
    sigma: Optional[float] = None
    theta: Optional[complex] = None
    theta_N: Optional[complex] = None
    omega_N: Optional[complex] = None
    z2: Optional[int] = None
    z8_phase: Optional[complex] = None
    diagnostics: dict = field(default_factory=dict)

    def validate(self, tol: float = 1e-8):
        for name in ("theta", "theta_N", "omega_N", "z8_phase"):
            v = getattr(self, name)
            if v is not None and abs(abs(v) - 1.0) > tol:
                raise ComputationError(f"{name} is not a unit phase")
        if self.nu_rounded is not None and self.z8_phase is not None:
            if self.nu_rounded % 2:
                raise ComputationError("order-8 phase present for odd invariant")

    def to_json_dict(self) -> dict:
        def phase(v):
            if v is None:
                return None
            return {"re": v.real, "im": v.imag, "arg": float(np.angle(v))}

        return {
            "nu": self.nu,
            "nu_rounded": self.nu_rounded,
            "sigma": self.sigma,
            "theta_re": None if self.theta is None else self.theta.real,
            "theta_im": None if self.theta is None else self.theta.imag,
            "theta_N": phase(self.theta_N),
            "omega_N": phase(self.omega_N),
            "z2": self.z2,
            "z8": phase(self.z8_phase),
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)
