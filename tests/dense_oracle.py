"""Dense complex constructions that the real-arithmetic production paths are
tested against.

`dense_real_space_K` assembles the Hamiltonian by rotating every (c, c*)
fiber of the complex Nambu blocks with one (M, M, 2, 2) einsum; it is the
oracle for `artifact.models._real_space_K`, which writes A fiber by fiber.
`dense_ground_projection` makes one complex eigh of H, keeps the
lambda < 0 eigenvectors and applies the same half-filling rules for the
near-zero cluster; it is the oracle for
`artifact.quasifree.ground_projection`."""
import numpy as np
import scipy.linalg

from artifact import ComputationError
from artifact.quasifree import _canonical_basis

# Majorana rotation per complex mode: rows (gamma_1, gamma_2), cols (c, c*)
_omega = np.array([[1, 1], [-1j, 1j]], dtype=complex)


def dense_real_space_K(geometry, onsite, hops, pairs) -> np.ndarray:
    """Real-space Hamiltonian in the Majorana basis.

    Assembles h (hopping) and D (pairing) over the finite site set with open
    boundaries, forms the per-bond Nambu blocks [[h, D], [-conj(D), -h^T]],
    and rotates each 2x2 (c, c*) fiber by omega/sqrt(2). Returns a purely
    imaginary Hermitian matrix of size dim_K.
    """
    n_orb = geometry.majorana_count // 2
    ns = len(geometry.sites)
    M = ns * n_orb
    index = {(int(round(s.x)), int(round(s.y))): s.id for s in geometry.sites}
    h = np.zeros((M, M), dtype=complex)
    D = np.zeros((M, M), dtype=complex)
    for s in geometry.sites:
        i = s.id
        sl = slice(i * n_orb, (i + 1) * n_orb)
        h[sl, sl] += onsite
        for d, blk in hops.items():
            tgt = (int(round(s.x)) + d[0], int(round(s.y)) + d[1])
            j = index.get(tgt)
            if j is not None:
                tl = slice(j * n_orb, (j + 1) * n_orb)
                h[tl, sl] += blk
                h[sl, tl] += blk.conj().T
        for d, blk in pairs.items():
            tgt = (int(round(s.x)) + d[0], int(round(s.y)) + d[1])
            j = index.get(tgt)
            if j is not None:
                tl = slice(j * n_orb, (j + 1) * n_orb)
                D[tl, sl] += blk
                D[sl, tl] -= blk.T
    # rotate every (c_a, c*_a) fiber: K[(a,s),(b,t)] = [omega N(a,b) omega†]_{st}/2
    N = np.empty((M, M, 2, 2), dtype=complex)
    N[:, :, 0, 0] = h
    N[:, :, 0, 1] = D
    N[:, :, 1, 0] = -np.conj(D)
    N[:, :, 1, 1] = -h.T
    K = 0.5 * np.einsum('sp,abpq,qt->asbt', _omega, N, _omega.conj().T,
                        optimize=True).reshape(2 * M, 2 * M)
    resid = float(np.max(np.abs(K.real)))
    if resid > 1e-12:
        raise ComputationError("Hamiltonian violates JHJ = -H")
    return 1j * K.imag  # exact purely-imaginary storage


def dense_ground_projection(h, gap_tol: float) -> np.ndarray:
    """Spectral projector onto the lambda < 0 eigenvectors of h.matrix.

    Exact zero modes are paired from the canonical real orthonormal null
    basis (the pairing is a choice, shared with the production path so the
    two can be compared entrywise); split +-epsilon pairs keep their negative
    member.
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
            null = scipy.linalg.null_space(H.imag, rcond=1e-10)
            if null.shape[1] != m:
                raise ComputationError("unresolvable zero modes")
            null = _canonical_basis(null)
            cols.append((null[:, 0::2] + 1j * null[:, 1::2]) / np.sqrt(2.0))
        else:
            neg = cluster & (lam < 0)
            if np.count_nonzero(neg) != np.count_nonzero(cluster & (lam > 0)):
                raise ComputationError("unresolvable zero modes")
            cols.append(W[:, neg])
    V = np.hstack(cols)
    return V @ V.conj().T
