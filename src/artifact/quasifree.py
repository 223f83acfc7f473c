"""Ground-state projections and quasi-free (Gaussian) expectation values.

The ground sector of a validated quadratic Hamiltonian H = iA (A real
antisymmetric) is the span of its negative-energy eigenvectors.
`ground_projection` builds that spectral projector as P = (I - iO)/2 from
the real complex structure O = -i sign(H), computed in real arithmetic, with
a half-filling rule for near-zero clusters (open disks of chiral models carry
edge modes). Moments of Majorana generators in the state are evaluated two
ways: a literal permutation-sum oracle (`wick_expectation`) and a Pfaffian
fast path (`pfaffian_expectation`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ._util import ComputationError, check_memory, hermiticity_residual
from .models import QuadraticHamiltonian

_WICK_MAX = 12

#: modes with |lambda| below this fraction of the largest are resolved in the
#: small window problem: squaring A costs them accuracy, the window does not
_WINDOW_FRACTION = 0.1


@dataclass
class BasisProjection:
    """Projection P = kron(block, I_copies) onto a ground sector (copies = 1:
    P is the block itself; the stacked matrix is built only when `.matrix` is
    read). Built from a Hamiltonian it also carries the health numbers of its
    own decomposition (edge_gap, zero_modes, projection_residual)."""
    block: np.ndarray
    source: str
    gap_used: float
    geometry: object = None  # LatticeGeometry when built from a lattice model
    health: dict = field(default_factory=dict)
    copies: int = 1

    @property
    def matrix(self) -> np.ndarray:
        if self.copies == 1:
            return self.block
        return np.kron(self.block, np.eye(self.copies))

    @property
    def O(self) -> np.ndarray:
        """Real complex structure O = -2 Im P: P = (I - iO)/2 exactly when
        P + JPJ = I, i.e. Re P = I/2."""
        return -2.0 * self.matrix.imag

    def validate(self, tol: float = 1e-12) -> float:
        """Check P + JPJ = I, then O^T = -O (P Hermitian) and O^2 = -I (P
        idempotent) with one real matmul; return the largest residual. kron
        with I_N preserves each residual, so the block is checked."""
        P = self.block
        dim = P.shape[0]
        R = 2.0 * P.real
        R.flat[::dim + 1] -= 1.0
        selfdual = float(np.max(np.abs(R, out=R)))
        if selfdual > tol:
            raise ComputationError(f"projection violates P + JPJ = I: {selfdual:.2g} > {tol:.2g}")
        O = -2.0 * P.imag
        np.add(O, O.T, out=R)
        antisym = float(np.max(np.abs(R, out=R)))
        if antisym > tol:
            raise ComputationError(f"projection is not Hermitian: {antisym:.2g} > {tol:.2g}")
        np.matmul(O, O, out=R)
        R.flat[::dim + 1] += 1.0
        square = float(np.max(np.abs(R, out=R)))
        if square > tol:
            raise ComputationError(f"projection is not idempotent: {square:.2g} > {tol:.2g}")
        return max(selfdual, antisym, square)

    @property
    def dim_K(self) -> int:
        return self.block.shape[0] * self.copies


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


def _canonical_basis(N: np.ndarray) -> np.ndarray:
    """The orthonormal basis of span(N) that Gram-Schmidt gives from its
    reduced column echelon form, so a pairing built on it depends only on the
    subspace, not on which basis of it LAPACK returned."""
    import scipy.linalg

    m = N.shape[1]
    rows = np.sort(scipy.linalg.qr(N.T, mode="r", pivoting=True)[1][:m])
    Q, R = np.linalg.qr(N @ np.linalg.inv(N[rows]))
    return Q * np.sign(np.diag(R))


def _complex_structure(A: np.ndarray, gap_tol: float):
    """O = -i sign(iA) for real antisymmetric A, near-zero cluster filled
    halfway. Returns (O, edge gap min|lambda|, cluster size m).

    One real eigh of A^T A gives w = lambda^2 and a real basis V. Modes with
    |lambda| above the window (gap_tol, or a tenth of the largest |lambda|)
    give O = A V w^(-1/2) V^T. The window's columns Vc span an invariant
    subspace of A; the small Hermitian problem i Vc^T A Vc resolves its
    lambdas at full accuracy, which squaring does not. Within it,
    |lambda| <= gap_tol is the cluster: exact zero modes are paired from a
    real orthonormal null basis (a_k, b_k) -> O_c = sum a_k b_k^T - b_k a_k^T;
    split +-epsilon pairs keep their negative member, as every other mode.
    """
    dim = A.shape[0]
    w, V = np.linalg.eigh(A.T @ A)  # ascending; each lambda^2 twice
    tau2 = max(gap_tol**2, _WINDOW_FRACTION**2 * w[-1])
    k = int(np.searchsorted(w, tau2, side="right"))
    # never split the two copies of one lambda^2 between window and rest
    while 0 < k < dim and w[k] - w[k - 1] <= 1e3 * np.finfo(float).eps * w[-1]:
        k += 1
    Vg = V[:, k:]
    AV = A @ Vg
    AV /= np.sqrt(w[k:])
    O = AV @ Vg.T
    del AV
    edge_gap, m = float(np.sqrt(max(w[0], 0.0))), 0
    if k:
        Vc = V[:, :k]
        mu, U = np.linalg.eigh(1j * (Vc.T @ (A @ Vc)))
        edge_gap = float(np.min(np.abs(mu)))
        cluster = np.abs(mu) <= gap_tol
        m = int(np.count_nonzero(cluster))
        if m % 2 or m >= dim:
            raise ComputationError("unresolvable zero modes")
        s = np.sign(mu)
        if m and float(np.max(np.abs(mu[cluster]))) <= 1e-12:
            s[cluster] = 0.0
            import scipy.linalg

            Uz = U[:, cluster]
            null = scipy.linalg.orth(np.hstack([Uz.real, Uz.imag]))
            if null.shape[1] != m:
                raise ComputationError("unresolvable zero modes")
            N = _canonical_basis(Vc @ null)
            Oz = N[:, 0::2] @ N[:, 1::2].T
            O += Oz - Oz.T
        elif np.count_nonzero(cluster & (mu < 0)) != m // 2:
            raise ComputationError("unresolvable zero modes")
        Ow = (-1j * (U * s) @ U.conj().T).real  # -i sign(i Vc^T A Vc)
        O += Vc @ Ow @ Vc.T
    O -= O.T
    O *= 0.5
    return O, edge_gap, m


def _projection_matrix(O: np.ndarray) -> np.ndarray:
    """P = (I - iO)/2: exactly Hermitian with P + JPJ = I for antisymmetric O."""
    P = O * -0.5j
    P.flat[::O.shape[0] + 1] += 0.5
    return P


def ground_projection(h: QuadraticHamiltonian, gap_tol: float = 1e-8) -> BasisProjection:
    """Spectral projector onto the negative-energy subspace of h = iA.

    Eigenvalues with |lambda| <= gap_tol form the near-zero cluster. An empty
    cluster gives the plain lambda < 0 projector; a nonzero one is filled
    halfway, choosing members compatibly with entrywise conjugation so that
    P + JPJ = I survives (see _complex_structure). The result is refused as
    gapless unless O^T = -O, O^2 = -I and [A, O] = 0 hold to 1e-12; the last
    certifies that P commutes with H.

    A stack h = kron(H, I_N) has the projection kron(P, I_N): everything
    above runs on the single-copy block H, and the result keeps the factors.
    Its health describes the stacked space: each cluster mode occurs N times.
    """
    H = h.block
    check_memory(H.shape[0])
    real_part = float(np.max(np.abs(H.real)))
    if real_part > 1e-12:
        # a real part breaks JHJ = -H: no conjugation-compatible filling exists
        raise ComputationError(f"gapless: real part {real_part:.2g} > 1e-12")
    A = H.imag
    symmetric_part = float(np.max(np.abs(A + A.T)))
    if symmetric_part > 1e-12:
        raise ComputationError(f"Hamiltonian is not Hermitian: "
                               f"|A + A^T| {symmetric_part:.2g} > 1e-12")
    A = A - A.T
    A *= 0.5  # exactly antisymmetric, so OA = (AO)^T below
    O, edge_gap, m = _complex_structure(A, gap_tol)
    AO = A @ O
    del A
    AO -= AO.T  # numpy buffers the overlapping operand
    commutator = float(np.max(np.abs(AO, out=AO)))
    del AO
    proj = BasisProjection(_projection_matrix(O), h.family_tag, float(gap_tol), h.geometry,
                           copies=h.copies)
    del O
    try:
        residual = proj.validate()
    except ComputationError as exc:
        raise ComputationError(f"gapless: {exc}") from None
    if commutator > 1e-12:
        raise ComputationError(f"gapless: [A, O] residual {commutator:.2g} > 1e-12")
    proj.health = {"edge_gap": edge_gap, "zero_modes": m * h.copies,
                   "projection_residual": max(residual, commutator)}
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
        O, edge_gap, _ = _complex_structure(A, 0.0)
        if edge_gap > 1e-6:
            return CovarianceOperator(_projection_matrix(O))
