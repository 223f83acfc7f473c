"""Ground-state projections and quasi-free (Gaussian) expectation values.

The ground sector of a validated quadratic Hamiltonian is the span of its
negative-energy eigenvectors; `ground_projection` returns that spectral
projector with a half-filling rule for near-zero clusters (open disks of
chiral models carry edge modes). Moments of Majorana generators in the
state are evaluated two ways: a literal permutation-sum oracle
(`wick_expectation`) and a Pfaffian fast path (`pfaffian_expectation`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._util import ComputationError, hermiticity_residual
from .models import QuadraticHamiltonian

_WICK_MAX = 12


@dataclass
class BasisProjection:
    matrix: np.ndarray
    source: str
    gap_used: float
    geometry: object = None  # LatticeGeometry when built from a lattice model

    def validate(self, tol: float = 1e-12):
        P = self.matrix
        if hermiticity_residual(P) > tol:
            raise ComputationError("projection is not Hermitian")
        if float(np.max(np.abs(P @ P - P))) > tol:
            raise ComputationError("projection is not idempotent")
        if float(np.max(np.abs(P + np.conj(P) - np.eye(P.shape[0])))) > tol:
            raise ComputationError("projection violates P + JPJ = I")

    @property
    def dim_K(self) -> int:
        return self.matrix.shape[0]


@dataclass
class CovarianceOperator:
    matrix: np.ndarray

    def validate(self, tol: float = 1e-12):
        S = self.matrix
        if hermiticity_residual(S) > tol:
            raise ComputationError("covariance is not Hermitian")
        ev = np.linalg.eigvalsh(S)
        if ev[0] < -tol or ev[-1] > 1 + tol:
            raise ComputationError("covariance spectrum outside [0, 1]")
        if float(np.max(np.abs(S + np.conj(S) - np.eye(S.shape[0])))) > tol:
            raise ComputationError("covariance violates S + JSJ = I")


def ground_projection(h: QuadraticHamiltonian, gap_tol: float = 1e-8) -> BasisProjection:
    """Spectral projector onto the negative-energy subspace of h.

    Eigenvalues with |lambda| <= gap_tol form the near-zero cluster. An empty
    cluster gives the plain lambda < 0 projector. A nonzero cluster is filled
    halfway, choosing members compatibly with entrywise conjugation so that
    P + JPJ = I survives: exact zero modes are paired from a real orthonormal
    null basis (r_{2k}, r_{2k+1}) -> (r_{2k} + i r_{2k+1})/sqrt(2); split
    +-epsilon pairs keep their negative member.
    """
    H = h.matrix
    dim = H.shape[0]
    lam, W = np.linalg.eigh(H)
    cluster = np.abs(lam) <= gap_tol
    m = int(np.count_nonzero(cluster))
    cols = [W[:, lam < -gap_tol]]
    if m:
        if m % 2 or m >= dim:
            raise ComputationError("unresolvable zero modes")
        if float(np.max(np.abs(lam[cluster]))) <= 1e-12:
            A = np.ascontiguousarray(H.imag)  # H = iA, A real antisymmetric
            null = scipy.linalg.null_space(A, rcond=1e-10)
            if null.shape[1] != m:
                raise ComputationError("unresolvable zero modes")
            paired = (null[:, 0::2] + 1j * null[:, 1::2]) / np.sqrt(2.0)
            cols.append(paired)
        else:
            neg = cluster & (lam < 0)
            pos = cluster & (lam > 0)
            if np.count_nonzero(neg) != np.count_nonzero(pos):
                raise ComputationError("unresolvable zero modes")
            cols.append(W[:, neg])
    V = np.hstack(cols)
    P = V @ V.conj().T
    proj = BasisProjection(P, h.family_tag, float(gap_tol), h.geometry)
    try:
        proj.validate()
    except ComputationError:
        raise ComputationError("gapless") from None
    if int(np.rint(np.trace(P).real)) * 2 != dim:
        raise ComputationError("gapless")
    return proj


def _pair_matrix(S: np.ndarray, vectors) -> np.ndarray:
    """All pair expectations <J f_j, S f_k> = f_j^T S f_k."""
    F = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    return F.T @ S @ F


def wick_expectation(S: CovarianceOperator, vectors) -> complex:
    """Moment of a product of Majorana generators by the permutation sum.

    Odd lists vanish identically. Even lists of length 2n are summed over
    pairings written as permutations s with s(1) < ... < s(n) and
    s(j) < s(j+n), each weighted by sign(s), with the global prefactor
    (-1)^(n(n-1)/2). Factorial cost: lists longer than 12 are refused.
    """
    vectors = list(vectors)
    if len(vectors) > _WICK_MAX:
        raise ComputationError("oracle too large")
    if len(vectors) % 2 == 1:
        return complex(0.0)
    if not vectors:
        return complex(1.0)
    n = len(vectors) // 2
    M = _pair_matrix(S.matrix, vectors)
    total = 0.0 + 0.0j
    indices = range(2 * n)
    for left in itertools.combinations(indices, n):
        rest = [i for i in indices if i not in left]
        for right in itertools.permutations(rest):
            if any(l > r for l, r in zip(left, right)):
                continue
            perm = list(left) + list(right)
            total += _perm_sign(perm) * np.prod([M[l, r] for l, r in zip(left, right)])
    pref = (-1) ** ((n * (n - 1)) // 2)
    return complex(pref * total)


def _perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def pfaffian_expectation(S: CovarianceOperator, vectors) -> complex:
    """Same moment via the Pfaffian of M_{jk} = <J f_j, S f_k> (j < k),
    antisymmetrized, evaluated by Gaussian elimination with pivoting."""
    vectors = list(vectors)
    if len(vectors) % 2 == 1:
        raise ComputationError("pfaffian needs an even list")
    if not vectors:
        return complex(1.0)
    M = _pair_matrix(S.matrix, vectors)
    M = np.triu(M, 1)
    M = M - M.T
    return _pfaffian(M)


def _pfaffian(M: np.ndarray) -> complex:
    """Pfaffian of a complex antisymmetric matrix (Parlett-Reid tridiagonal
    reduction with partial pivoting)."""
    A = np.array(M, dtype=complex)
    n = A.shape[0]
    if n % 2 == 1:
        return complex(0.0)
    pf = 1.0 + 0.0j
    for k in range(0, n - 2, 2):
        p = k + 1 + int(np.argmax(np.abs(A[k + 1:, k])))
        if p != k + 1:
            A[[k + 1, p], :] = A[[p, k + 1], :]
            A[:, [k + 1, p]] = A[:, [p, k + 1]]
            pf = -pf
        if A[k + 1, k] == 0:
            return complex(0.0)
        pf *= A[k, k + 1]
        mu = A[k + 2:, k] / A[k + 1, k]
        A[k + 2:, k + 2:] -= np.outer(mu, A[k + 1, k + 2:])
        A[k + 2:, k + 2:] += np.outer(A[k + 1, k + 2:], mu)
    return complex(pf * A[n - 2, n - 1])


def random_covariance(dim: int, rng: np.random.Generator) -> CovarianceOperator:
    """Pure random covariance (ground state of a random gapped quadratic H)."""
    if dim % 2 == 1:
        raise ComputationError("dim_K must be even")
    while True:
        A = rng.standard_normal((dim, dim))
        A = A - A.T
        lam = np.linalg.eigvalsh(1j * A)
        if float(np.min(np.abs(lam))) > 1e-6:
            break
    lam, W = np.linalg.eigh(1j * A)
    V = W[:, lam < 0]
    return CovarianceOperator(V @ V.conj().T)
