"""Dense complex constructions that the real-arithmetic production paths are
tested against.

`dense_real_space_K` assembles the dense complex h and D site by site,
then rotates every (c, c*) fiber of the complex Nambu blocks with one
(M, M, 2, 2) einsum; it is the one dense assembly, the oracle for the
builders' A (`artifact.models._real_space_blocks`), which never forms h,
D or a dense A: it applies the real fiber formulas to each bond's small
blocks and scatters them into slabs of A's rows.
`dense_ground_projection` makes one complex eigh of H, keeps the
lambda < 0 eigenvectors and applies the same half-filling rules for the
near-zero cluster; it is the oracle for
`artifact.quasifree.ground_projection`. `dense_basis_projection` stores such
a complex P in the real form O = -2 Im P that the evaluators read.
`dense_A_structure` is the real path with a dense A held throughout: the
same products as `artifact.quasifree._real_structure`, taken over the
row envelope that the constructor reads off the dense A (the square A^T A
as the sum of B^T B over its blocks B, and A X as the blocks' products), so
the two agree bit for bit.
`dense_tknn_chern` assembles every 2x2 Bloch matrix H = d . sigma from the
Bloch vector d(k) (`bloch_matrices`), solves it with eigh and multiplies
the lower band's link overlaps around each plaquette; it is the oracle for
`artifact.models.tknn_chern`, which reads the bands -+|d| and the plaquette
phases off d(k) in closed form.
`dense_exchange_phase_bch` builds both flux unitaries of every charge
sector, the full commutator C and its full logarithm (the Cayley transform
at every alpha), and reads the two-sided anchored trace off the anchor's
rows and columns of log C; it is the oracle for
`artifact.invariants.exchange_phase_bch`, which works in the first
generator's eigenbasis, reads one trace of the anchor's columns per sector
(log C is anti-Hermitian, so its rows follow from its columns) and, below
the series radius, runs the Mercator series on those columns only, so the
oracle checks that shortcut and the series independently.
`dense_sector_commutator` forms one sector's E = (D0 W D0*) W^+ - I from
the whole W and W^+; it is the oracle for
`artifact.invariants._sector_commutator`, which fills E from X alone, a
block of columns at a time."""
import numpy as np
import scipy.linalg

from artifact import BasisProjection, ComputationError, ConfigError
from artifact.invariants import (DEFAULT_CORE_FRACTION, JUNCTION_MULTIPLICITY,
                                 _anchored_trace, _core_indices, _log_near_identity)
from artifact.models import QuadraticHamiltonian, _bloch, _check_gapped
from artifact.quasifree import _WINDOW_FRACTION, _canonical_basis

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
    points = [(int(round(x)), int(round(y))) for x, y in geometry.sites.tolist()]
    index = {p: i for i, p in enumerate(points)}
    h = np.zeros((M, M), dtype=complex)
    D = np.zeros((M, M), dtype=complex)
    for i, (x, y) in enumerate(points):
        sl = slice(i * n_orb, (i + 1) * n_orb)
        h[sl, sl] += onsite
        for d, blk in hops.items():
            tgt = (x + d[0], y + d[1])
            j = index.get(tgt)
            if j is not None:
                tl = slice(j * n_orb, (j + 1) * n_orb)
                h[tl, sl] += blk
                h[sl, tl] += blk.conj().T
        for d, blk in pairs.items():
            tgt = (x + d[0], y + d[1])
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


def dense_A_structure(A: np.ndarray, gap_tol: float) -> np.ndarray:
    """O = -i sign(iA) from the dense real antisymmetric A, by the real
    path's window rule and products; inputs with exact zero modes are
    refused."""
    dim = A.shape[0]
    blocks = QuadraticHamiltonian(A, None).blocks  # only their spans are read

    def envelope_product(X):
        out = np.empty((dim, X.shape[1]))
        for r0, r1, c0, c1, _ in blocks:
            np.matmul(A[r0:r1, c0:c1], X[c0:c1], out=out[r0:r1])
        return out

    w, V = np.linalg.eigh(dense_gram(A))
    tau2 = max(gap_tol**2, _WINDOW_FRACTION**2 * w[-1])
    k = int(np.searchsorted(w, tau2, side="right"))
    while 0 < k < dim and w[k] - w[k - 1] <= 1e3 * np.finfo(float).eps * w[-1]:
        k += 1
    G = V[:, k:] * w[k:] ** -0.25
    O = envelope_product(G @ G.T)
    if k:
        Vc = V[:, :k]
        mu, U = np.linalg.eigh(1j * (Vc.T @ envelope_product(Vc)))
        if float(np.min(np.abs(mu))) <= 1e-12:
            raise ComputationError("exact zero modes")
        O += Vc @ (-1j * (U * np.sign(mu)) @ U.conj().T).real @ Vc.T
    O -= O.T
    O *= 0.5
    return O


def dense_gram(A: np.ndarray) -> np.ndarray:
    """A^T A as the sum of B^T B over the row envelope blocks B of the dense
    A (the constructor's spans, B sliced from A), each term added over its
    block's column span."""
    S = np.zeros(A.shape)
    for r0, r1, c0, c1, _ in QuadraticHamiltonian(A, None).blocks:
        B = A[r0:r1, c0:c1]
        S[c0:c1, c0:c1] += B.T @ B
    return S


def dense_basis_projection(P: np.ndarray, geometry) -> BasisProjection:
    """The dense projection P as a BasisProjection, after checking that it
    has the real form P = (I - iO)/2, i.e. P + JPJ = I."""
    selfdual = float(np.max(np.abs(P + np.conj(P) - np.eye(P.shape[0]))))
    if selfdual > 1e-12:
        raise ComputationError(f"projection violates P + JPJ = I: {selfdual:.2g}")
    return BasisProjection(-2.0 * P.imag, geometry)


def bloch_matrices(d: np.ndarray) -> np.ndarray:
    """H = d . sigma for Bloch vectors d of shape (3, ...); shape (..., 2, 2)."""
    H = np.empty(d.shape[1:] + (2, 2), dtype=complex)
    H[..., 0, 0] = d[2]
    H[..., 0, 1] = d[0] - 1j * d[1]
    H[..., 1, 0] = d[0] + 1j * d[1]
    H[..., 1, 1] = -d[2]
    return H


def dense_plaquette_phases(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal arg of the lower band's counterclockwise four-link product
    around each plaquette of the periodic grid of 2x2 Bloch matrices H, shape
    (kgrid, kgrid, 2, 2); also returns the eigenvalues of H."""
    ev, V = np.linalg.eigh(H)
    v = V[..., 0]
    vx = np.roll(v, -1, axis=0)
    vy = np.roll(v, -1, axis=1)
    vxy = np.roll(vx, -1, axis=1)

    def link(va, vb):
        return np.einsum('ija,ija->ij', va.conj(), vb)

    u = link(v, vx) * link(vx, vxy) * link(vxy, vy) * link(vy, v)
    return np.angle(u), ev


def dense_tknn_chern(family_tag: str, parameters: dict, kgrid: int = 200) -> int:
    """Chern number of the negative-energy band from eigh and link products
    (Fukui-Hatsugai-Suzuki), with the production gap certificate applied to
    the eigh eigenvalues."""
    if kgrid < 50:
        raise ConfigError("kgrid must be >= 50")
    phases, ev = dense_plaquette_phases(bloch_matrices(_bloch(family_tag, parameters, kgrid)))
    _check_gapped(family_tag, parameters, ev)
    total = float(np.sum(phases)) / (2 * np.pi)
    c = int(np.rint(total))
    if abs(total - c) > 1e-6:
        raise ComputationError("gapless parameters")
    return c


def dense_exchange_phase_bch(P, g0, g1, alpha0: float, alpha1: float, partition,
                             core_fraction: float = DEFAULT_CORE_FRACTION) -> complex:
    """exp(sum_j phi_j) over the nonzero eigenvalues j of the shared charge:
    per sector the unitaries Ua = exp(i alpha_a j Ba), E = U0 U1 U0* U1* - I,
    the full principal logarithm L of I + E by the Cayley transform, and
    phi_j the symmetrized anchored half-trace (Tr_a(P L) + Tr_a(L P))/2.
    A sector with max|E| < 1e-13 is skipped."""
    lam0, V0 = np.linalg.eigh(g0.block)
    lam1, V1 = np.linalg.eigh(g1.block)
    js = np.linalg.eigvalsh(g0.charge)
    anchor = _core_indices(P, partition, core_fraction)[2]
    Oa = P.O[anchor, :]
    phi = 0.0
    for j in js[np.abs(js) > 1e-12 * np.max(np.abs(js))]:
        U0 = (V0 * np.exp(1j * alpha0 * j * lam0)) @ V0.conj().T
        U1 = (V1 * np.exp(1j * alpha1 * j * lam1)) @ V1.conj().T
        E = U0 @ U1 @ U0.conj().T @ U1.conj().T
        E[np.diag_indices_from(E)] -= 1.0
        if float(np.max(np.abs(E))) < 1e-13:
            continue
        L = _log_near_identity(E)
        t = (_anchored_trace(Oa, anchor, L[:, anchor])
             + np.conj(_anchored_trace(Oa, anchor, L[anchor, :].conj().T)))
        phi += 0.5 * JUNCTION_MULTIPLICITY * 0.5 * t
    return complex(np.exp(phi))


def dense_sector_commutator(X, d0, p) -> np.ndarray:
    """E = C' - I of one charge sector with C' = (D0 W D0*) W^+, from the
    whole W = X diag(p) X^+ and its adjoint, D0 = diag(d0)."""
    W = (X * p) @ X.conj().T
    Wh = W.conj().T
    W = d0[:, None] * W * d0.conj()
    E = W @ Wh
    E[np.diag_indices_from(E)] -= 1.0
    return E
