"""Dense complex constructions that the real-arithmetic production paths are
tested against.

`dense_real_space_K` assembles the dense complex h and D site by site,
then rotates every (c, c*) fiber of the complex Nambu blocks with one
(M, M, 2, 2) einsum; it is the one dense assembly, the oracle for the
builders' A (`artifact.models._real_space_blocks`), which never forms h,
D or a dense A: it applies the real fiber formulas to each bond's small
blocks and scatters them into slabs of A's rows.
`full_width_real_space_blocks` assembles each slab of `_ENVELOPE_ROWS`
rows of A zeroed and scattered at the full dim_K width and trims it with
`artifact.models._envelope`; it is the oracle for
`artifact.models._real_space_blocks`, which zeroes and scatters each slab
over the site columns its bonds reach only, and whose blocks
(r0, r1, c0, c1) and bytes must be the oracle's. Likewise
`full_width_particle_hole_half` folds each pair of A's blocks into a slab
of the half's full n = dim/2 width; it is the oracle for
`artifact.quasifree._half_envelope`, the fold every Hamiltonian's blocks
go through when it is made, whose slabs span the pair's folded columns
only.
`dense_ground_projection` makes one complex eigh of H, keeps the
lambda < 0 eigenvectors and applies the same half-filling rules for the
near-zero cluster; it is the oracle for
`artifact.quasifree.ground_projection`. `dense_basis_projection` stores such
a complex P in the real form O = -2 Im P that the evaluators read.
`dense_charge_structure` makes one complex eigh of the charge Hamiltonian
H = Y + iX of size dim/2 that a charge-conserving A is the real form of,
and writes the real form of -i sign(H); it is the oracle for the
reductions of such an A (`artifact.quasifree._complex_structure`: the
particle-hole half and the diagonal groups), which never form H.
`dense_A_structure` is the real path with a dense A held throughout: the
same products as `artifact.quasifree._real_structure`, taken over the
row envelope that the constructor reads off the dense A before any fold
(`unfolded`; the square A^T A
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
block of columns at a time.
`uncertified_random_factor` draws a random state's A as
`artifact.quasifree.random_covariance` does and solves it with
`_real_structure` alone, with no certificate, redrawing while the edge gap
is at most 1e-6; it is the oracle for random_covariance, which takes the
same draw through ground_projection and its certificate.
`diagonal_dressing` dresses diag(b) by the one product (O * -b) @ O; it
is the oracle for `artifact.symgen.dress_charge` on a mask.
`dense_A`, `dense_block` and `dense_generator` are the dense views of the
factored forms that production keeps: a Hamiltonian's single-copy factor
(A, or A' on the half) written from its row envelope blocks, and a
FluxGenerator's block in the model's basis (diag(mask) for a lifted
charge's mask, T(B') for a half's B') and its stacked generator
kron(block, charge).
`unfolded` and `assembled` keep a Hamiltonian at fiber 1, as A's own row
envelope blocks, where production folds every charge-conserving,
particle-hole symmetric A to its half when the Hamiltonian is made
(`artifact.models._factor`): `unfolded` takes a dense A, `assembled` the
builders' slab assembly (`artifact.models._real_space_blocks`), before
any fold. They are A itself for the tests that read the dim-size A of a
qwz disk, and the input of the oracles of the fold."""
import itertools

import numpy as np
import scipy.linalg

from artifact import BasisProjection, ComputationError, ConfigError, stack_copies
from artifact.invariants import (DEFAULT_CORE_FRACTION, JUNCTION_MULTIPLICITY,
                                 _anchored_trace, _core_indices, _log_near_identity)
from artifact.models import (_ENVELOPE_ROWS, QuadraticHamiltonian, _bloch, _bond_fibers,
                             _check_gapped, _envelope, _real_space_blocks)
from artifact.quasifree import (_WINDOW_FRACTION, _canonical_basis, _fold, _particle_hole_O,
                               _real_structure)

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


def full_width_real_space_blocks(geometry, onsite, hops, pairs) -> tuple:
    """The row envelope blocks of A from the bonds of _bond_fibers, each
    slab of _ENVELOPE_ROWS rows zeroed and scattered over all dim_K columns
    before _envelope trims it."""
    ns, m = len(geometry.sites), geometry.majorana_count
    bonds = list(_bond_fibers(geometry, onsite, hops, pairs))

    def slabs():
        for r0 in range(0, ns * m, _ENVELOPE_ROWS):
            r1 = min(r0 + _ENVELOPE_ROWS, ns * m)
            s0, s1 = r0 // m, -(-r1 // m)
            slab = np.zeros((s1 - s0, m, ns, m))
            for F, rows, cols in bonds:
                inside = (rows >= s0) & (rows < s1)
                slab[rows[inside] - s0, :, cols[inside], :] += F
            yield 0, slab.reshape(-1, ns * m)[r0 - s0 * m:r1 - s0 * m]

    return tuple(_envelope(slabs()))


def full_width_particle_hole_half(h) -> tuple | None:
    """The row envelope blocks of the half A' with A = T(A'), or None where
    the half is refused: each pair of h's blocks is folded (_fold), block by
    block and padded to whole fibers, into a zeroed slab of all n = dim/2
    columns, and the slabs are read until the first that breaks T's
    pattern."""
    if h.dim % 4:
        return None
    n = h.dim // 2

    def slab(blocks):
        r0 = blocks[0][0]
        S = np.zeros(((blocks[-1][1] - r0) // 2, n))
        for b0, b1, c0, c1, block in blocks:
            e0, e1 = c0 - c0 % 4, c1 + -c1 % 4
            B = np.zeros((b1 - b0, e1 - e0))
            B[:, c0 - e0:c1 - e0] = block
            if _fold(B, S[(b0 - r0) // 2:(b1 - r0) // 2, e0 // 2:e1 // 2]) is None:
                return None
        return 0, S

    slabs = (slab(h.blocks[k:k + 2]) for k in range(0, len(h.blocks), 2))
    blocks = tuple(_envelope(itertools.takewhile(lambda s: s is not None, slabs)))
    return blocks if blocks and blocks[-1][1] == n else None


def dense_ground_projection(h, gap_tol: float) -> np.ndarray:
    """Spectral projector onto the lambda < 0 eigenvectors of h.matrix.

    A cluster of exact zero modes is paired from the canonical real
    orthonormal null basis (the pairing is a choice, shared with the real
    path, artifact.quasifree._real_structure, so the two can be compared
    entrywise); a cluster of split +-epsilon pairs keeps their negative
    members. The oracle fills a cluster all or nothing: it treats a cluster
    holding both kinds as split, so a mixed cluster, which production fills
    mode by mode, is checked outside the fibers of its exact zeros.
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


def dense_charge_structure(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(O, lambda): the eigenvalues lambda of the charge Hamiltonian
    H = Y + iX of the dense A, X = A[0::2, 0::2] and Y = A[0::2, 1::2], and
    O = -i sign(iA), the real form of -i sign(H):
    O[0::2, 0::2] = O[1::2, 1::2] = Im sign(H) and
    O[0::2, 1::2] = -O[1::2, 0::2] = Re sign(H). Each lambda of H is a pair
    +-lambda of iA, so a split pair keeps its negative member by the sign
    alone. An A without the charge form, or with an exact zero mode, is
    refused."""
    X, Y = A[0::2, 0::2], A[0::2, 1::2]
    if not (np.array_equal(A[1::2, 1::2], X) and np.array_equal(A[1::2, 0::2], -Y)):
        raise ComputationError("no charge form")
    lam, U = np.linalg.eigh(Y + 1j * X)
    if float(np.min(np.abs(lam))) <= 1e-12:
        raise ComputationError("exact zero modes")
    S = (U * np.sign(lam)) @ U.conj().T
    O = np.empty(A.shape)
    O[0::2, 0::2] = O[1::2, 1::2] = S.imag
    O[0::2, 1::2] = S.real
    O[1::2, 0::2] = -S.real
    return (O - O.T) / 2, lam


def dense_A_structure(A: np.ndarray, gap_tol: float) -> tuple[np.ndarray, float]:
    """(O, edge gap min|lambda|): O = -i sign(iA) from the dense real
    antisymmetric A, by the real path's window rule and products; inputs
    with exact zero modes are refused."""
    dim = A.shape[0]
    blocks = unfolded(A).blocks  # only their spans are read

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
    edge_gap = float(np.sqrt(max(w[0], 0.0)))
    if k:
        Vc = V[:, :k]
        mu, U = np.linalg.eigh(1j * (Vc.T @ envelope_product(Vc)))
        edge_gap = float(np.min(np.abs(mu)))
        if edge_gap <= 1e-12:
            raise ComputationError("exact zero modes")
        O += Vc @ (-1j * (U * np.sign(mu)) @ U.conj().T).real @ Vc.T
    O -= O.T
    O *= 0.5
    return O, edge_gap


def dense_gram(A: np.ndarray) -> np.ndarray:
    """A^T A as the sum of B^T B over the row envelope blocks B of the dense
    A (the spans the constructor reads off A before any fold, B sliced from
    A), each term added over its block's column span."""
    S = np.zeros(A.shape)
    for r0, r1, c0, c1, _ in unfolded(A).blocks:
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
    A sector with max|E| < 1e-13 is skipped. Everything runs in the
    model's basis: the dense blocks against the fiber-1 view of P."""
    lam0, V0 = np.linalg.eigh(dense_block(g0))
    lam1, V1 = np.linalg.eigh(dense_block(g1))
    js = np.linalg.eigvalsh(g0.charge)
    P = BasisProjection(P.O, P.geometry, copies=P.copies)
    anchor = _core_indices(P, partition, core_fraction)[2]
    Oa = P.factor[anchor, :]
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


def uncertified_random_factor(dim: int, rng) -> np.ndarray:
    """The factor O of the first draw A - A^T, A of standard normal entries,
    whose _real_structure at gap_tol 0 has an edge gap above 1e-6, with no
    certificate run on it."""
    while True:
        A = rng.standard_normal((dim, dim))
        O, edge_gap, _ = _real_structure(QuadraticHamiltonian(A - A.T, None), 0.0)
        if edge_gap > 1e-6:
            return O


def diagonal_dressing(O: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(diag(b) - O diag(b) O)/2, Hermitized, with diag(b) never formed."""
    Qt = (O * -b) @ O
    Qt.flat[::len(b) + 1] += b
    Qt += Qt.conj().T
    Qt *= 0.25
    return Qt


def unfolded(A: np.ndarray) -> QuadraticHamiltonian:
    """The geometry-less Hamiltonian of the dense real antisymmetric A kept
    at fiber 1: the row envelope blocks the constructor reads off A, never
    folded."""
    blocks = tuple(_envelope((0, A[r0:r0 + _ENVELOPE_ROWS])
                             for r0 in range(0, len(A), _ENVELOPE_ROWS)))
    return QuadraticHamiltonian._of_blocks(blocks, len(A), None)


def assembled(geometry, onsite, hops, pairs, copies: int = 1) -> QuadraticHamiltonian:
    """The builders' Hamiltonian of these on-site, hopping and pairing
    blocks kept at fiber 1: A's row envelope blocks as _real_space_blocks
    assembles them, never folded; a stack of `copies` keeps them too."""
    blocks = tuple(_real_space_blocks(geometry, onsite, hops, pairs))
    h = QuadraticHamiltonian._of_blocks(blocks, geometry.dim_K, geometry)
    return h if copies == 1 else stack_copies(h, copies)


def dense_A(h) -> np.ndarray:
    """The single-copy factor of h (A, or A' on fiber 2) as a dense
    dim x dim array, written from its row envelope blocks."""
    A = np.zeros((h.dim, h.dim))
    for r0, r1, c0, c1, block in h.blocks:
        A[r0:r1, c0:c1] = block
    return A


def dense_block(g) -> np.ndarray:
    """g's block in the model's basis: diag(mask) for a mask, and on fiber 2
    T(B') for the half's B'."""
    B = np.diag(g.factor) if g.factor.ndim == 1 else g.factor
    return B if g.fiber == 1 else _particle_hole_O(B)


def dense_generator(g) -> np.ndarray:
    """g as the dense stacked generator kron(block, charge), copy index
    fastest."""
    return np.kron(dense_block(g), g.charge)
