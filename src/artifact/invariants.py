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
  - twist_statistics / parity_indices: copy-cycling defect statistics on an
    N-fold stack; (-1)^nu and, for even nu, the order-8 phase. Both are
    functions of nu alone (twist_from_nu, parity_from_nu), so a report
    evaluates the triple traces once.
  - hall_sigma: response of a pair of dressed flux generators; the oracle
    for the twist and parity responses.
  - exchange_phase_closed / exchange_phase_bch: flux-insertion exchange
    phase, closed form and group-commutator cross-check.
  - predicted_free_fermion / cocycle_exponent: exact reference values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ._util import (DEFAULT_CORE_FRACTION, DEFAULT_NU_ROUND_TOL, ComputationError,
                    as_integer, check_memory)
from .geometry import ConicalPartition, region_mask, windowed_site_ids
from .quasifree import BasisProjection, _eigh_in_place
from .symgen import FluxGenerator, _matrix_factor

if TYPE_CHECKING:  # fractions (and decimal through it) load only with the predictions
    from fractions import Fraction

#: a commutator trace localized at the triple junction receives equal
#: contributions from the three cone pairs; anchoring on one core region
#: accounts for a third of the total
JUNCTION_MULTIPLICITY = 3

#: residual above which a projection is considered broken
ANOMALY_TOL = 1e-6

#: float64 arrays of the generators' factor size exchange_phase_bch holds at
#: its peak (complex arrays count twice), above every measured peak: at
#: factor dims 224 and 402 (alpha 0.1 and 2.5), tracemalloc gives 6.3 and 5.3
#: on the Mercator-series path and 8.0 on the Cayley path, and the peak RSS
#: above the pre-call level (fresh process, BLAS and LAPACK warmed up, 2
#: cores) 11.7-12.4 and 7.4-7.5, and 15.2-15.6 and 12.7-12.9 (17.2 and 14.9
#: while the eigh allocated its eigenvectors); the Cayley eigh holds K, then
#: its eigenvectors (in E's buffer), LAPACK's copy of K and two workspaces
_BCH_WORKING_ARRAYS = 17

#: bound on |E|_F, and so on |E|_2, below which log(I + E) is taken from the
#: Mercator series, whose terms then shrink at least as fast as 0.5^k
_SERIES_RADIUS = 0.5


# ---------------------------------------------------------------------------
# region bookkeeping


def core_regions(P: BasisProjection, partition: ConicalPartition, core_fraction: float):
    geom = P.geometry
    if geom is None:
        raise ComputationError("projection carries no geometry")
    return _core_sites(partition, geom, core_fraction), geom


def _core_sites(partition: ConicalPartition, geom, core_fraction: float):
    """The site ids of the three cores (windowed_site_ids). A window that
    leaves a core without a site, or that holds every site of the disk,
    where the traces cancel identically, is refused: either would report 0
    for any projection. It depends only on the lattice and the partition,
    so the CLI checks it before the model build (cli.build_model)."""
    ids = windowed_site_ids(partition, geom, core_fraction)
    if 0 in (sizes := [len(r) for r in ids]) or sum(sizes) == len(geom.sites):
        raise ComputationError(f"core_fraction {core_fraction} gives cores of {sizes} of "
                               f"{len(geom.sites)} sites; an empty core or the whole disk reads 0")
    return ids


def _core_indices(P: BasisProjection, partition: ConicalPartition, core_fraction: float):
    """Indices of the three cores in the space of P's factor, of
    majorana_count // (copies * fiber) Majoranas per site; windows that
    cannot carry the index are refused (_core_sites)."""
    ids, geom = core_regions(P, partition, core_fraction)
    block_geom = geom.with_majorana_count(geom.majorana_count // (P.copies * P.fiber))
    return [np.where(region_mask(r, block_geom))[0] for r in ids]


# ---------------------------------------------------------------------------
# real-space Chern number


def _triple_trace(O: np.ndarray, i0, i1, i2) -> float:
    """Tr(O_01 O_12 O_20) using rectangular blocks of O only."""
    A = O[np.ix_(i0, i1)]
    B = O[np.ix_(i1, i2)]
    C = O[np.ix_(i2, i0)]
    return float(np.einsum("ab,bc,ca->", A, B, C, optimize=True))


def chern_number_with_residual(P: BasisProjection, partition: ConicalPartition,
                               core_fraction: float = DEFAULT_CORE_FRACTION):
    """Junction-localized two-region invariant and its antisymmetry residual.

    Expanding the commutator form 4 pi i Tr P[P Pi_0 P, P Pi_1 P] over the
    three cone cores and applying the junction multiplicity gives
    12 pi i (T_012 - T_021) with T_abc = Tr(Pi_a P Pi_b P Pi_c P). Between
    distinct cores P_ab = -i O_ab / 2, so T_abc = (i/8) t_abc with the real
    t_abc = Tr(O_ab O_bc O_ca), and nu = (3 pi/2)(t_021 - t_012), evaluated
    on the real O in real arithmetic. For antisymmetric O the two traces are
    exact negatives, so the residual (3 pi/2)|t_012 + t_021| measures how
    badly the projection is broken. A stack kron(P, I_N) contributes N times
    the single-copy traces, and O = T(O'), a two-copy stack of O' in a
    site-local frame, twice O''s: the traces run on P's factor.
    """
    multiplicity = P.copies * P.fiber
    i0, i1, i2 = _core_indices(P, partition, core_fraction)
    t012 = _triple_trace(P.factor, i0, i1, i2)
    t021 = _triple_trace(P.factor, i0, i2, i1)
    scale = 0.5 * np.pi * JUNCTION_MULTIPLICITY * multiplicity
    nu = scale * (t021 - t012)
    residual = scale * abs(t012 + t021)
    if not residual <= ANOMALY_TOL:
        raise ComputationError("non-Hermitian anomaly")
    return nu, residual


def chern_number(P: BasisProjection, partition: ConicalPartition,
                 core_fraction: float = DEFAULT_CORE_FRACTION) -> float:
    return chern_number_with_residual(P, partition, core_fraction)[0]


# ---------------------------------------------------------------------------
# Hall response of flux generators


def _anchored_trace(Oa: np.ndarray, anchor, Xa: np.ndarray) -> complex:
    """Tr_a(P X) = Tr(X_aa)/2 - (i/2) Tr(O_a: X_:a) for P = (I - iO)/2, from
    the anchor rows Oa = O_a: and the anchor columns Xa = X_:a."""
    return 0.5 * np.trace(Xa[anchor, :]) - 0.5j * np.einsum("ij,ji->", Oa, Xa, optimize=True)


def _check_pair(P: BasisProjection, g0: FluxGenerator, g1: FluxGenerator) -> None:
    """The one check of a generator pair: both are matrices on P's fiber,
    the size of P's factor, with charges on P's copies (dress_charge puts
    them there). An undressed mask is refused (_matrix_factor), any other
    generator off P's fiber or space as a dimension mismatch."""
    for g in (g0, g1):
        if (_matrix_factor(g).shape != P.factor.shape or g.fiber != P.fiber
                or g.charge.shape != (P.copies,) * 2):
            raise ComputationError("dimension mismatch")


def hall_sigma_with_residual(P: BasisProjection, g0: FluxGenerator, g1: FluxGenerator,
                             partition: ConicalPartition,
                             core_fraction: float = DEFAULT_CORE_FRACTION):
    """Junction-localized 2 pi i Tr(P[Q0, Q1]) and its imaginary residual.

    The commutator trace is anchored on the core of the third cone (the one
    carrying neither generator) and scaled by the junction multiplicity.
    With P = kron(P1, I_N) and Qa = kron(Ba, qa) the trace factors into
    Tr(q0 q1) times the same trace of the blocks. Identical generators give
    two identical traces and so exactly zero. Both generators are matrices
    on P's fiber (_check_pair), traced against P's factor: on a
    particle-hole half against O', and T doubles each trace.
    """
    _check_pair(P, g0, g1)
    anchor = _core_indices(P, partition, core_fraction)[2]
    Oa, Q0, Q1 = P.factor[anchor, :], g0.factor, g1.factor
    t_fwd = _anchored_trace(Oa, anchor, Q0 @ Q1[:, anchor])
    t_rev = _anchored_trace(Oa, anchor, Q1 @ Q0[:, anchor])
    copy_trace = np.trace(g0.charge @ g1.charge)
    val = 2j * np.pi * JUNCTION_MULTIPLICITY * P.fiber * copy_trace * (t_fwd - t_rev)
    sigma = float(val.real)
    residual = abs(float(val.imag))
    if not residual <= ANOMALY_TOL:
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


def _log_series(E: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """log(I + E) Y from the Mercator series sum_k (-1)^(k+1) E^k Y / k,
    taken only for |E|_F < _SERIES_RADIUS. Each term is one product with
    the columns of Y, so a thin Y never forms the logarithm itself. The
    series stops once a term's largest entry over k + 1 is below 1e-16:
    in norm every later term is at most |E|_2 < 0.5 times the one before."""
    term = E @ Y
    L = np.zeros_like(term)
    sign = 1.0
    for k in range(1, 61):
        L += (sign / k) * term
        if float(np.max(np.abs(term))) / (k + 1) < 1e-16:
            break
        term = E @ term
        sign = -sign
    return L


#: columns of a sector's block-size arrays that one step of a block-wise
#: pass (_sector_commutator, the Cayley Hermitization) visits at a time
_SECTOR_COLUMNS = 128


def _log_near_identity(E: np.ndarray) -> np.ndarray:
    """Principal logarithm of a unitary C = I + E by the Cayley transform,
    refused near the branch cut at -1. exchange_phase_bch sends
    |E|_F < _SERIES_RADIUS to the Mercator series (_log_series) instead.

    K = i(I - C)(I + C)^-1 = -i (I - 2 (I + C)^-1) is Hermitian, with C's
    eigenvectors and the eigenvalues kappa = tan(theta/2) for C's
    e^(i theta), so one eigh gives log C = W diag(2i arctan kappa) W^+.
    I + C, then K, then W (_eigh_in_place) are formed in E's own buffer, so
    E is overwritten. eigh reads only the lower triangle, so only it is
    Hermitized, a block of columns at a time. W diag(2i arctan kappa) is a
    new array, and W^+ is a view of W conjugated in place. C is normal, so
    |C - I|_2 = max |e^(i theta) - 1| = max 2|kappa|/sqrt(1 + kappa^2)
    exactly. A singular I + C, or |C - I|_2 >= 1.88 (an eigenvalue within
    0.68 of -1), is a branch ambiguity.
    """
    n = E.shape[0]
    E.flat[::n + 1] += 2.0  # I + C
    try:
        inverse = np.linalg.inv(E)
    except np.linalg.LinAlgError:
        raise ComputationError("branch ambiguity; reduce alpha") from None
    K = np.multiply(inverse, 1j, out=E)
    del inverse
    K.flat[::n + 1] -= 0.5j  # K / 2
    for c0 in range(0, n, _SECTOR_COLUMNS):
        c1 = c0 + _SECTOR_COLUMNS
        K[c0:, c0:c1] += K[c0:c1, c0:].conj().T
    kappa, W = _eigh_in_place(K)  # K is dead: W takes E's buffer
    if float(np.max(2.0 * np.abs(kappa) / np.hypot(1.0, kappa))) >= 1.88:
        raise ComputationError("branch ambiguity; reduce alpha")
    Ws = W * (2j * np.arctan(kappa))
    return Ws @ np.conjugate(W, out=W).T  # W^+ as a view of W's own buffer


def _times(X: np.ndarray, Y: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """X @ Y, or X^+ @ Y with `adjoint`, for a complex block of columns Y.
    A real X multiplies the float view of a C-ordered Y, each row's real
    and imaginary parts side by side, in one real product: X is never cast
    to a complex copy. A complex X^+ @ Y is read as conj(X^T conj(Y)), so
    no adjoint copy of X is made either."""
    M = X.T if adjoint else X
    if np.isrealobj(X):
        return (M @ np.ascontiguousarray(Y).view(float)).view(complex)
    return (M @ Y.conj()).conj() if adjoint else M @ Y


def _sector_commutator(X: np.ndarray, d0: np.ndarray, p: np.ndarray) -> np.ndarray:
    """E = C' - I of one charge sector, C' = D0 W D0* W^+ with D0 = diag(d0)
    and W = X diag(p) X^+, filled from X alone in blocks of
    _SECTOR_COLUMNS columns: the columns c of W^+ are X (p* X^+[:, c]), and
    E[:, c] = D0 X (p X^+ (D0* those columns)) - I[:, c]. W, W^+ and C' are
    never formed; E is the only block-size array."""
    n = X.shape[0]
    E = np.empty((n, n), dtype=complex)
    for c0 in range(0, n, _SECTOR_COLUMNS):
        Xc = X[c0:c0 + _SECTOR_COLUMNS].conj().T  # C-ordered below: no copy in _times
        Y = _times(X, np.multiply(Xc, p.conj()[:, None], order="C"))
        Y *= d0.conj()[:, None]
        Y = _times(X, Y, adjoint=True)
        Y *= p[:, None]
        Y = _times(X, Y)
        Y *= d0[:, None]
        E[:, c0:c0 + _SECTOR_COLUMNS] = Y
        del Y  # freed before the next block's products
    E.flat[::n + 1] -= 1.0
    return E


def exchange_phase_bch(P: BasisProjection, g0: FluxGenerator, g1: FluxGenerator,
                       alpha0: float, alpha1: float,
                       partition: ConicalPartition,
                       core_fraction: float = DEFAULT_CORE_FRACTION) -> complex:
    """Exchange phase from the group commutator of the two flux unitaries.

    C = U0 U1 U0* U1* is unitary with spectrum near 1 for small alpha; the
    phase is exp of the junction-localized symmetrized half-trace
    (Tr_a(P L) + Tr_a(L P))/2 of L = log C. L is anti-Hermitian, so that is
    i Im Tr_a(P L): the phase is exp(i phi) with a real phi, of unit modulus
    by construction. Matches exchange_phase_closed to cubic order in the
    flux angles.

    Both generators must carry the same charge c, and be matrices on P's
    fiber (_check_pair), traced against P's factor. In c's eigenbasis,
    Ua = exp(i alpha_a kron(Ba, c)) splits into the sectors
    exp(i alpha_a j Ba), one per eigenvalue j of c, and so do C, log C and
    the trace; the phase is exp(i sum_j phi_j). Equal eigenvalues give equal
    sectors, so each distinct j is solved once and its phi_j weighted by its
    multiplicity (a parity charge, I_N, is one sector). The j = 0 sector is
    the identity and is skipped, and so is any sector with |C - I|_F < 1e-13.

    Each sector works in the eigenbasis V0 of B0: there U0 is the diagonal
    D0 = exp(i alpha0 j lam0) and U1 is W = X exp(i alpha1 j lam1) X^+, with
    X = V0^+ V1 formed once, so C' = V0^+ C V0 = (D0 W D0*) W^+ and no flux
    unitary is built. E = C' - I is filled from X alone, a block of columns
    at a time (_sector_commutator): W, W^+ and C' are never formed, and with
    a real X every product is one real product of X, or its transpose view,
    with the float view of a complex block. A non-finite |E|_F is refused. C' and C share their spectrum and
    |C - I|_F, so the skip, the branch rule and both refusals of
    _log_near_identity are unchanged. The trace reads only the anchor's
    columns L[:, a] = V0 log(C') Va^+, Va = V0[a, :]. This function alone
    chooses the logarithm: for |E|_F < _SERIES_RADIUS the Mercator series
    runs on the thin Va^+, so log C is never formed; otherwise the Cayley
    transform (_log_near_identity) forms log C', and can refuse, before the
    anchor is read.

    A purely imaginary charge (the cyclic charge) has a spectrum symmetric
    under j -> -j. With real blocks V0 and X are real, so going from j to -j
    conjugates D0, W, C', its logarithm and the anchor's columns: the
    sector -j is read off the sector j instead of being computed. A job
    whose block-size working set would not fit in the available memory is
    refused up front.
    On a particle-hole half all of this runs at dim/2: log C = T(log C'),
    phi is twice the half's and |E|_F is scaled to the model's |T(E')|_F.
    """
    if not np.array_equal(g0.charge, g1.charge):
        raise ComputationError("generators carry different charges")
    _check_pair(P, g0, g1)
    if alpha0 == 0.0 or alpha1 == 0.0:
        return complex(1.0)
    check_memory(len(g0.factor), _BCH_WORKING_ARRAYS, "flux commutator")
    lam0, V0 = np.linalg.eigh(g0.factor)
    lam1, V1 = np.linalg.eigh(g1.factor)
    X = V0.conj().T @ V1
    del V1
    js = np.linalg.eigvalsh(g0.charge)
    js = js[np.abs(js) > 1e-12 * np.max(np.abs(js))]
    mirrored = np.isrealobj(X) and not np.any(g0.charge.real)
    if mirrored:
        js = js[js > 0]
    anchor, phi = None, 0.0
    for j, count in zip(*np.unique(js, return_counts=True)):
        E = _sector_commutator(X, np.exp(1j * alpha0 * j * lam0),
                               np.exp(1j * alpha1 * j * lam1))
        norm = float(np.linalg.norm(E)) * np.sqrt(P.fiber)
        if not np.isfinite(norm):
            raise ComputationError("flux commutator is not finite")
        if norm < 1e-13:
            continue
        L = None if norm < _SERIES_RADIUS else _log_near_identity(E)  # Cayley; may refuse
        if anchor is None:
            anchor = _core_indices(P, partition, core_fraction)[2]
            Oa, Va = P.factor[anchor, :], V0[anchor, :]
        cols = _log_series(E, Va.conj().T) if L is None else L @ Va.conj().T
        del E, L
        Lc = _times(V0, cols)  # L[:, a]
        # L is anti-Hermitian: Tr_a(P L) + Tr_a(L P) = 2i Im Tr_a(P L)
        t = _anchored_trace(Oa, anchor, Lc).imag
        if mirrored:  # the sector -j
            t += _anchored_trace(Oa, anchor, Lc.conj()).imag
        phi += count * (0.5 * JUNCTION_MULTIPLICITY * P.fiber * t)
    return complex(np.exp(1j * phi))


# ---------------------------------------------------------------------------
# stacked-copy twist statistics


def twist_from_nu(nu: float, N: int):
    """sigma and the defect phases (theta_N, omega_N) of an N-fold stack with
    invariant nu (N times the single copy's). The dressed lifted cyclic
    charges respond as Tr(q^2) = (N^3 - N)/12 times the parity generators,
    nu / 2 per copy, so sigma = nu (N^2 - 1)/24; theta_N = exp(i pi sigma /
    N^2) and omega_N = theta_N^(2N)."""
    sigma = nu * (N**2 - 1) / 24
    theta_N = complex(np.exp(1j * np.pi * sigma / N**2))
    omega_N = complex(np.exp(2j * np.pi * sigma / N))
    return sigma, theta_N, omega_N


def twist_statistics(P_stacked: BasisProjection, N: int, partition: ConicalPartition,
                     core_fraction: float = DEFAULT_CORE_FRACTION):
    """twist_from_nu of an N-copy stack's chern_number. hall_sigma of the
    dressed lifted cyclic charges (symgen) is the test oracle for it. A
    projection not kept as an N-copy stack (copies != N) is refused."""
    if P_stacked.copies != N:
        raise ComputationError("dimension mismatch")
    return twist_from_nu(chern_number(P_stacked, partition, core_fraction), N)


# ---------------------------------------------------------------------------
# parity-flux indices


def round_nu(nu: float, nu_round_tol: float) -> Optional[int]:
    """The integer nearest nu, or None unless |nu - rint(nu)| <= nu_round_tol;
    a NaN invariant or tolerance fails the check."""
    nu_r = float(np.rint(nu))
    return int(nu_r) if abs(nu - nu_r) <= nu_round_tol else None


def parity_from_nu(nu: float, nu_round_tol: float):
    """((-1)^nu, order-8 phase) of the invariant nu. The phase is only defined
    on the even-nu branch; odd nu returns None there. An invariant that does
    not round within nu_round_tol (round_nu) is refused rather than silently
    rounded."""
    nu_r = round_nu(nu, nu_round_tol)
    if nu_r is None:
        nearest = float(np.rint(nu))
        raise ComputationError(f"unconverged: nu = {nu:.6g} is {abs(nu - nearest):.3g} from "
                               f"the nearest integer {nearest:.0f}, not within nu_round_tol = "
                               f"{nu_round_tol:.3g}; a larger geometry.radius or "
                               f"numerics.nu_round_tol may converge")
    if nu_r % 2:
        return -1, None
    return 1, exchange_phase_closed(nu / 2, np.pi, np.pi)


def parity_indices(P: BasisProjection, partition: ConicalPartition,
                   core_fraction: float = DEFAULT_CORE_FRACTION,
                   nu_round_tol: float = DEFAULT_NU_ROUND_TOL):
    """parity_from_nu of chern_number: the parity-flux response is nu / 2.

    The parity generators Qa = Pi_a - Pi_a P - P Pi_a (symgen.parity_charge)
    satisfy P Q0 Q1 = P Pi_0 P Pi_1 P when P^2 = P, so hall_sigma of the
    pair, anchored on the third core, is 6 pi i (T_012 - T_021): half the
    triple traces of chern_number. The order-8 phase is the closed-form
    exchange phase at sigma = nu / 2 and flux angles pi, pi; the dense
    generators serve only as the test oracle for this identity.
    """
    return parity_from_nu(chern_number(P, partition, core_fraction), nu_round_tol)


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


def predicted_free_fermion(nu: int, N: int) -> FreeFermionPrediction:
    """Closed-form indices of an N-fold stack at integer invariant nu:
    sigma = nu (N^3 - N)/24, theta_N = exp(2 pi i (nu/48)(N - 1/N)),
    omega_N = exp(2 pi i nu (N^2 - 1)/24), z2 = (-1)^nu, and for even nu
    z8 = exp(2 pi i nu/16). Both arguments are taken through as_integer, so
    a non-integer invariant or copy count is refused, never truncated."""
    from fractions import Fraction

    nu, N = as_integer(nu, "nu"), as_integer(N, "copies")
    if N < 1:
        raise ComputationError("copies must be >= 1")
    if N % 2 == 0:
        raise ComputationError("even copies unsupported")
    sigma = Fraction(nu * (N**3 - N), 24)
    theta_exp = Fraction(nu * (N**2 - 1), 48 * N)
    omega_exp = Fraction(nu * (N**2 - 1), 24)
    z2 = -1 if nu % 2 else 1
    z8_exp = Fraction(nu, 16) if nu % 2 == 0 else None
    return FreeFermionPrediction(nu, N, sigma, theta_exp, omega_exp, z2, z8_exp)


def cocycle_exponent(N: int, a1: int, a2: int, a3: int) -> int:
    """Integer exponent a1 * floor((a2 + a3)/N) of the group 3-cocycle,
    with arguments reduced mod N. All four are taken through as_integer,
    and N < 1 is refused."""
    N = as_integer(N, "N")
    if N < 1:
        raise ComputationError(f"N must be >= 1, not {N}")
    a1, a2, a3 = (as_integer(a, f"a{k}") % N for k, a in enumerate((a1, a2, a3), 1))
    return a1 * ((a2 + a3) // N)
