"""Dense complex construction of the ground projection: one complex eigh of
H, the lambda < 0 eigenvectors, and the same half-filling rules for the
near-zero cluster. It is the oracle that the real-arithmetic production path
(`artifact.quasifree.ground_projection`) is tested against."""
import numpy as np
import scipy.linalg

from artifact import ComputationError
from artifact.quasifree import _canonical_basis


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
