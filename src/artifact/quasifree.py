"""Ground-state projections and quasi-free (Gaussian) expectation values.

The ground sector of a quadratic Hamiltonian H = iA (A real antisymmetric)
is the span of its negative-energy eigenvectors. `ground_projection` computes
the real complex structure O = -i sign(H) of that sector: from one complex
eigh of size dim/2 when A conserves charge (no pairing), else in real
arithmetic with a half-filling rule for near-zero clusters (open disks of
chiral models carry edge modes). It stores O: the spectral projector
P = (I - iO)/2 is built only when `.matrix` is read (by oracles and tests).
Moments of Majorana generators in the state are evaluated from O two ways:
a literal permutation-sum oracle (`wick_expectation`) and a Pfaffian fast
path (`pfaffian_expectation`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ._util import ComputationError, check_memory
from .models import QuadraticHamiltonian

_WICK_MAX = 12

#: modes with |lambda| below this fraction of the largest are resolved in the
#: small window problem: squaring A costs them accuracy, the window does not
_WINDOW_FRACTION = 0.1

#: largest residual of O^T = -O, O^2 = -I and [A, O] = 0 a projection passes
_RESIDUAL_TOL = 1e-12


@dataclass
class BasisProjection:
    """Projection P = kron((I - iO)/2, I_copies) onto a ground sector, kept
    as the real antisymmetric single-copy O; the complex stacked P is built
    only when `.matrix` is read. Built from a Hamiltonian it also carries the
    health numbers of its own decomposition (edge_gap, zero_modes,
    projection_residual); a random one (random_covariance) is the two-point
    operator of a random pure Gaussian state."""
    O: np.ndarray
    geometry: object = None  # LatticeGeometry when built from a lattice model
    health: dict = field(default_factory=dict)
    copies: int = 1

    @property
    def matrix(self) -> np.ndarray:
        P = self.O * -0.5j
        P.flat[::P.shape[0] + 1] += 0.5
        return np.kron(P, np.eye(self.copies))

    def validate(self) -> float:
        """Check O^T = -O (P Hermitian), over tile pairs, and O^2 = -I (P
        idempotent) with one real matmul, each to _RESIDUAL_TOL; return the
        larger residual.
        P + JPJ = I holds by construction, and kron with I_N preserves each
        residual, so the single-copy O is checked. An exactly antisymmetric
        O (as ground_projection's) has -O^2 = O O^T, which numpy runs as a
        syrk."""
        O = self.O
        antisym = _transpose_residual(O, np.add)
        if not antisym <= _RESIDUAL_TOL:
            raise ComputationError(f"projection is not Hermitian: "
                                   f"{antisym:.2g} > {_RESIDUAL_TOL:.2g}")
        R = np.empty_like(O)
        if antisym == 0.0:
            np.matmul(O, O.T, out=R)
            R.flat[::O.shape[0] + 1] -= 1.0
        else:
            np.matmul(O, O, out=R)
            R.flat[::O.shape[0] + 1] += 1.0
        square = float(np.max(np.abs(R, out=R)))
        if not square <= _RESIDUAL_TOL:
            raise ComputationError(f"projection is not idempotent: "
                                   f"{square:.2g} > {_RESIDUAL_TOL:.2g}")
        return max(antisym, square)

    @property
    def dim_K(self) -> int:
        return self.O.shape[0] * self.copies


def _canonical_basis(N: np.ndarray) -> np.ndarray:
    """The orthonormal basis of span(N) that Gram-Schmidt gives from its
    reduced column echelon form, so a pairing built on it depends only on the
    subspace, not on which basis of it LAPACK returned."""
    import scipy.linalg

    m = N.shape[1]
    rows = np.sort(scipy.linalg.qr(N.T, mode="r", pivoting=True)[1][:m])
    Q, R = np.linalg.qr(N @ np.linalg.inv(N[rows]))
    return Q * np.sign(np.diag(R))


#: edge of the square tiles that the transpose passes below visit in pairs
_TILE = 256


def _tile_pairs(n: int):
    """(rows, cols) slices of the tiles on and above the diagonal of an
    n x n array: with its mirror tile (cols, rows), each pair covers every
    entry once."""
    for i0 in range(0, n, _TILE):
        for j0 in range(i0, n, _TILE):
            yield slice(i0, i0 + _TILE), slice(j0, j0 + _TILE)


def _antisymmetrize(O: np.ndarray) -> None:
    """O <- (O - O^T)/2 in place, one pair of tiles at a time: entry for
    entry what O -= O.T; O *= 0.5 gives, with no transposed dim x dim
    buffer. Each entry is O_ij - O_ji rounded once, then halved exactly."""
    for I, J in _tile_pairs(O.shape[0]):
        if I == J:
            O[I, I] -= O[I, I].T  # numpy buffers the overlapping tile
        else:
            upper = O[I, J].copy()
            O[I, J] -= O[J, I].T
            O[J, I] -= upper.T
    O *= 0.5


def _transpose_residual(M: np.ndarray, op) -> float:
    """max |op(M, M^T)| for op np.add or np.subtract, over pairs of tiles
    (the residual is symmetric, so the tiles above the diagonal see every
    entry), with no dim x dim buffer. The maxima are reduced by numpy, so a
    NaN anywhere in M gives NaN."""
    worst = np.zeros(())
    for I, J in _tile_pairs(M.shape[0]):
        tile = op(M[I, J], M[J, I].T)
        worst = np.maximum(worst, np.max(np.abs(tile, out=tile)))
    return float(worst)


def _complex_structure(h: QuadraticHamiltonian, gap_tol: float):
    """O = -i sign(iA) for h's real antisymmetric A, near-zero cluster filled
    halfway. Returns (O, edge gap min|lambda|, cluster size m).

    An A that commutes with the charge rotation (h.charge_hamiltonian() is
    not None) and has no |lambda| <= gap_tol takes _charge_structure, one
    Hermitian eigh of size dim/2. Everything else, and such an A with a
    near-zero cluster, takes _real_structure after the charge path's arrays
    are freed."""
    found = _charge_structure(h, gap_tol)
    if found is not None:
        return found
    return _real_structure(h, gap_tol)


def _charge_structure(h: QuadraticHamiltonian, gap_tol: float):
    """(O, min|lambda|, 0) from the complex H of A = -iH
    (h.charge_hamiltonian()), or None when A has no such H or H has an
    eigenvalue with |lambda| <= gap_tol.

    One complex eigh of H (no squaring, no window) gives sign(H) =
    I - 2 G G^+, G the eigenvectors of the lambda < 0 modes. O is the real
    form of -i sign(H): O[0::2, 0::2] = O[1::2, 1::2] = Im sign(H) and
    O[0::2, 1::2] = -O[1::2, 0::2] = Re sign(H), antisymmetrized in place
    over pairs of tiles (_antisymmetrize)."""
    H = h.charge_hamiltonian()
    if H is None:
        return None
    lam, U = np.linalg.eigh(H)  # ascending
    del H
    edge_gap = float(np.min(np.abs(lam)))
    if not edge_gap > gap_tol:
        return None
    # U is freed before O is allocated, and O before S: S is then freed
    # above O, where the A O product of ground_projection reuses its pages,
    # and the eigh stays the peak RSS
    G = U[:, :int(np.searchsorted(lam, 0.0))].copy()
    del U
    O = np.empty((h.dim, h.dim))
    S = G @ G.conj().T
    del G
    S *= -2.0
    S.flat[::S.shape[0] + 1] += 1.0  # sign(H)
    O[0::2, 0::2] = S.imag
    O[1::2, 1::2] = S.imag
    O[0::2, 1::2] = S.real
    np.negative(S.real, out=O[1::2, 0::2])
    del S
    _antisymmetrize(O)
    return O, edge_gap, 0


def _real_structure(h: QuadraticHamiltonian, gap_tol: float):
    """O = -i sign(iA) in real arithmetic, for any real antisymmetric A,
    near-zero cluster filled halfway. Returns (O, edge gap, cluster size m).

    One real eigh of A^T A = -A A (h.gram()) gives w = lambda^2 and a real
    basis V. Modes with |lambda| above the window (gap_tol, or a tenth of
    the largest |lambda|) give O = A V w^(-1/2) V^T = A F with F = G G^T and
    G = V w^(-1/4), scaled in V's own columns: F is one symmetric rank-k
    update, and A F runs over A's blocks (h.matmul) into V's dead buffer.
    The window's columns Vc span an invariant subspace of A; the small
    Hermitian problem i Vc^T A Vc, with A Vc = h.matmul(Vc), resolves their
    lambdas at full accuracy, which squaring does not. A is read only
    through its blocks: no dense A is formed. Within the window,
    |lambda| <= gap_tol is the cluster: exact zero modes are paired from a
    real orthonormal null basis (a_k, b_k) -> O_c = sum a_k b_k^T - b_k a_k^T;
    split +-epsilon pairs keep their negative member, as every other mode.
    O is antisymmetrized in place over pairs of tiles (_antisymmetrize).
    """
    dim = h.dim
    w, V = np.linalg.eigh(h.gram())  # ascending; each lambda^2 twice
    tau2 = max(gap_tol**2, _WINDOW_FRACTION**2 * w[-1])
    k = int(np.searchsorted(w, tau2, side="right"))
    # never split the two copies of one lambda^2 between window and rest
    while 0 < k < dim and w[k] - w[k - 1] <= 1e3 * np.finfo(float).eps * w[-1]:
        k += 1
    Vc = V[:, :k].copy()
    G = V[:, k:]
    G *= w[k:] ** -0.25
    F = G @ G.T  # numpy runs a product with its own transpose as syrk
    del G
    O = h.matmul(F, out=V)  # V is dead: O takes its buffer
    del F, V
    edge_gap, m = float(np.sqrt(max(w[0], 0.0))), 0
    if k:
        mu, U = np.linalg.eigh(1j * (Vc.T @ h.matmul(Vc)))
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
    _antisymmetrize(O)
    return O, edge_gap, m


def ground_projection(h: QuadraticHamiltonian, gap_tol: float = 1e-8) -> BasisProjection:
    """Spectral projector onto the negative-energy subspace of h = iA, as
    its real complex structure O.

    Eigenvalues with |lambda| <= gap_tol form the near-zero cluster. An empty
    cluster gives the plain lambda < 0 projector; a nonzero one is filled
    halfway, choosing members compatibly with entrywise conjugation so that
    P + JPJ = I survives (see _complex_structure). The result is refused as
    gapless unless O^T = -O, O^2 = -I and [A, O] = 0 hold to _RESIDUAL_TOL
    (1e-12); the last certifies that P commutes with H. A gap_tol that is
    not a finite number >= 0 is refused before any eigh.

    A stack h = kron(iA, I_N) has the projection kron(P, I_N): everything
    above runs on the single-copy block A, and the result keeps the factors.
    Its health describes the stacked space: each cluster mode occurs N times.
    """
    if not 0.0 <= gap_tol < np.inf:
        raise ComputationError(f"gap_tol must be a finite number >= 0, not {gap_tol}")
    check_memory(h.dim)
    O, edge_gap, m = _complex_structure(h, gap_tol)
    AO = h.matmul(O)  # A is exactly antisymmetric, so OA = (AO)^T
    commutator = _transpose_residual(AO, np.subtract)
    del AO
    proj = BasisProjection(O, h.geometry, copies=h.copies)
    try:
        residual = proj.validate()
    except ComputationError as exc:
        raise ComputationError(f"gapless: {exc}") from None
    if not commutator <= _RESIDUAL_TOL:
        raise ComputationError(f"gapless: [A, O] residual {commutator:.2g} > {_RESIDUAL_TOL:.2g}")
    proj.health = {"edge_gap": edge_gap, "zero_modes": m * h.copies,
                   "projection_residual": max(residual, commutator)}
    return proj


def _pair_matrix(S: BasisProjection, vectors) -> np.ndarray:
    """All pair expectations <J f_j, P f_k> = f_j^T P f_k, from the real O:
    F^T P F = (F^T F - i F^T O F)/2. On a stack P = kron(P1, I_N) this is
    the sum of that form over the rows F_c of each copy c."""
    F = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    return sum(Fc.T @ Fc - 1j * (Fc.T @ (S.O @ Fc))
               for Fc in (F[c::S.copies] for c in range(S.copies))) / 2


def wick_expectation(S: BasisProjection, vectors) -> complex:
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
    M = _pair_matrix(S, vectors)
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


def pfaffian_expectation(S: BasisProjection, vectors) -> complex:
    """Same moment via the Pfaffian of M_{jk} = <J f_j, S f_k> (j < k),
    antisymmetrized, evaluated by Gaussian elimination with pivoting."""
    vectors = list(vectors)
    if len(vectors) % 2 == 1:
        raise ComputationError("pfaffian needs an even list")
    if not vectors:
        return complex(1.0)
    M = _pair_matrix(S, vectors)
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


def random_covariance(dim: int, rng: np.random.Generator) -> BasisProjection:
    """Pure random covariance (ground state of a random gapped quadratic H)."""
    if dim % 2 == 1:
        raise ComputationError("dim_K must be even")
    while True:
        A = rng.standard_normal((dim, dim))
        O, edge_gap, _ = _complex_structure(QuadraticHamiltonian(A - A.T, None), 0.0)
        if edge_gap > 1e-6:
            return BasisProjection(O)
