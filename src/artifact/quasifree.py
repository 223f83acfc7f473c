"""Ground-state projections and quasi-free (Gaussian) expectation values.

The ground sector of a quadratic Hamiltonian H = iA (A real antisymmetric)
is the span of its negative-energy eigenvectors. `ground_projection` computes
the real complex structure O = -i sign(H) of that sector in real arithmetic,
by one structure solver (`_real_structure`: one real eigh of A^T A and a
small window problem) applied to the Hamiltonian's factor. That factor is
the particle-hole half A' of size dim/2 when A conserves charge (no
pairing) and its charge Hamiltonian has the particle-hole symmetry (every
qwz disk), folded block pair by block pair (`_half_envelope`) when the
Hamiltonian is made, and A itself otherwise; `_complex_structure` solves
it whole, or group by group when it is block-diagonal (trivial). No
reduction falls back to another; each fills a near-zero cluster halfway,
mode by mode (open disks of chiral models carry edge modes). On the half O
is a two-copy stack of the half's O', which the projection keeps as its
factor, as it keeps the single copy of a stack. The factor is accepted
only with its certificate (O^T = -O, O^2 = -I, [A, O] = 0), run over slabs
of rows against the Hamiltonian each piece was solved from. O and
P = (I - iO)/2 are built only when `.O` or `.matrix` is read.
Moments of Majorana generators in the state are evaluated from O two ways:
an oracle that sums Wick's theorem over the perfect matchings of the list
(`wick_expectation`) and a Pfaffian fast path (`pfaffian_expectation`).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from ._util import DEFAULT_GAP_TOL, ComputationError, as_integer, check_memory
from .models import QuadraticHamiltonian, _envelope

_WICK_MAX = 12

#: modes with |lambda| below this fraction of the largest are resolved in the
#: small window problem: squaring A costs them accuracy, the window does not
_WINDOW_FRACTION = 0.1

#: |lambda| at or below this is an exact zero mode of the cluster
_EXACT_ZERO = 1e-12

#: largest residual of O^T = -O, O^2 = -I and [A, O] = 0 a projection passes
_RESIDUAL_TOL = 1e-12


@dataclass
class BasisProjection:
    """Projection P = kron((I - iO)/2, I_copies) onto a ground sector, kept
    as its real antisymmetric factor: the single-copy O (fiber 1), or the
    O' of its particle-hole half, with O = T(O') (fiber 2, _particle_hole_O).
    `.O` and the complex stacked P (`.matrix`) are built on every read.
    Every generator and trace of the flux functions reads the factor; the
    fiber-1 view BasisProjection(P.O, P.geometry, copies=P.copies) is the
    same projection kept in the model's basis, for generators that do not
    fold onto the half. Built by ground_projection (random_covariance's
    random states too) it also carries the health numbers of its own
    decomposition (edge_gap, zero_modes, projection_residual)."""
    factor: np.ndarray
    geometry: object = None  # LatticeGeometry when built from a lattice model
    health: dict = field(default_factory=dict)
    copies: int = 1
    fiber: int = 1

    @property
    def O(self) -> np.ndarray:
        return self.factor if self.fiber == 1 else _particle_hole_O(self.factor)

    @property
    def matrix(self) -> np.ndarray:
        P = self.O * -0.5j
        P.flat[::P.shape[0] + 1] += 0.5
        return np.kron(P, np.eye(self.copies))

    def validate(self) -> float:
        """Check O^T = -O (P Hermitian), over tile pairs, and O^2 = -I (P
        idempotent), each to _RESIDUAL_TOL; return the larger residual.
        P + JPJ = I holds by construction, and kron with I_N and T preserve
        or bound each residual (_particle_hole_O), so the factor is checked.
        An exactly antisymmetric one (as ground_projection's) has
        -O^2 = O O^T, which is symmetric: the slab of rows I is
        O[I] O[i0:]^T, the columns from the slab's first row on. Otherwise
        the slab is O[I] O. The slabs have _TILE rows, so no second
        factor-size array is held, and their maxima are reduced by numpy, so
        a NaN gives NaN."""
        O = self.factor
        antisym = _transpose_residual(O)
        if not antisym <= _RESIDUAL_TOL:
            raise ComputationError(f"projection is not Hermitian: "
                                   f"{antisym:.2g} > {_RESIDUAL_TOL:.2g}")
        n, worst = O.shape[0], np.zeros(())
        for i0 in range(0, n, _TILE):
            if antisym == 0.0:
                R = O[i0:i0 + _TILE] @ O[i0:].T
                R.flat[::R.shape[1] + 1] -= 1.0
            else:
                R = O[i0:i0 + _TILE] @ O
                R.flat[i0::n + 1] += 1.0
            worst = np.maximum(worst, np.max(np.abs(R, out=R)))
            del R  # freed before the next slab's product
        square = float(worst)
        if not square <= _RESIDUAL_TOL:
            raise ComputationError(f"projection is not idempotent: "
                                   f"{square:.2g} > {_RESIDUAL_TOL:.2g}")
        return max(antisym, square)

    @property
    def dim_K(self) -> int:
        return self.factor.shape[0] * self.fiber * self.copies


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


def _transpose_residual(M: np.ndarray) -> float:
    """max |M + M^T| over pairs of tiles (the residual is symmetric, so the
    tiles above the diagonal see every entry), all in one tile buffer: the
    transposed tile is copied into its leading entries (contiguous, at the
    edges too) and M[I, J] added onto it, so numpy buffers one operand at
    most. The maxima are reduced by numpy, so a NaN anywhere in M gives NaN."""
    side = min(_TILE, M.shape[0])
    buffer, worst = np.empty(side * side, dtype=M.dtype), np.zeros(())
    for I, J in _tile_pairs(M.shape[0]):
        upper = M[I, J]
        tile = buffer[:upper.size].reshape(upper.shape)
        np.copyto(tile, M[J, I].T)
        np.add(upper, tile, out=tile)
        worst = np.maximum(worst, np.max(np.abs(tile, out=tile)))
    return float(worst)


def _commutator_residual(h: QuadraticHamiltonian, O: np.ndarray) -> float:
    """max |A O - (A O)^T|, which is [A, O] for an antisymmetric O (A is
    exactly antisymmetric, so O A = (A O)^T), with no dim x dim buffer. The
    difference is antisymmetric, so the rows I = i0:i0 + _TILE need only
    its columns from i0 on: A[I, :] O[:, i0:] - (A[i0:, :] O[:, I])^T, two
    products over A's blocks (h.matmul), the transpose taken tile by tile.
    The maxima are reduced by numpy, so a NaN anywhere in O gives NaN."""
    n, worst = O.shape[0], np.zeros(())
    for i0 in range(0, n, _TILE):
        I = slice(i0, i0 + _TILE)
        rows = h.matmul(O[:, i0:], rows=I)
        cols = h.matmul(O[:, I], rows=slice(i0, n))
        for j0 in range(0, n - i0, _TILE):
            rows[:, j0:j0 + _TILE] -= cols[j0:j0 + _TILE].T
        worst = np.maximum(worst, np.max(np.abs(rows, out=rows)))
        del rows, cols  # freed before the next slab's products
    return float(worst)


def _certify(h: QuadraticHamiltonian, O: np.ndarray) -> float:
    """The certificate of O = -i sign(iA) for h's A: the largest residual of
    O^T = -O and O^2 = -I (BasisProjection.validate) and of [A, O] = 0
    (_commutator_residual), which certifies that P commutes with H. Any of
    them above _RESIDUAL_TOL is refused as gapless, naming the first."""
    try:
        residual = BasisProjection(O).validate()
        commutator = _commutator_residual(h, O)
        if not commutator <= _RESIDUAL_TOL:
            raise ComputationError(f"[A, O] residual {commutator:.2g} > {_RESIDUAL_TOL:.2g}")
    except ComputationError as exc:
        raise ComputationError(f"gapless: {exc}") from None
    return max(residual, commutator)


def _complex_structure(h: QuadraticHamiltonian, gap_tol: float):
    """(factor, fiber, (edge gap, cluster size m, residual)): O = -i sign(iA)
    for h's A, near-zero cluster filled halfway, kept as the projection's
    factor on h's fiber. h's own factor is solved: A' of the particle-hole
    half (fiber 2, every qwz disk and stack, detected when h was made,
    models._factor), whose O' is the factor and whose lambdas are H's, so m
    counts H's cluster twice; or A itself (fiber 1). Each piece is solved by
    _real_structure and certified by _certify against its own Hamiltonian.

    A factor of several diagonal groups (_diagonal_groups: trivial and its
    stacks) is solved group by group, each O written into a zeroed
    dim x dim factor. Its health is the smallest edge gap, the summed
    cluster and the largest residual: A and O are block-diagonal alike, so
    the groups' certificates are the whole one."""
    groups = _diagonal_groups(h)
    if len(groups) == 1:
        O, edge_gap, m = _real_structure(h, gap_tol)
        return O, h.fiber, (edge_gap, h.fiber * m, _certify(h, O))
    check_memory(h.dim, 1)  # the zeroed factor; each group's solver checks its own
    O, health = np.zeros((h.dim, h.dim)), []
    for r0, group in groups:
        O_group, edge_gap, m = _real_structure(group, gap_tol)
        health.append((edge_gap, m, _certify(group, O_group)))
        O[r0:r0 + group.dim, r0:r0 + group.dim] = O_group
    gaps, clusters, residuals = zip(*health)
    return O, h.fiber, (min(gaps), h.fiber * sum(clusters), max(residuals))


def _diagonal_groups(h: QuadraticHamiltonian):
    """[(r0, group)]: the diagonal blocks A[r0:r1, r0:r1] that A is the direct
    sum of, at the resolution of h's envelope blocks, each as a Hamiltonian
    of its own. The blocks are scanned in row order, and a group closes at
    the row r1 where its last block ends once none of its blocks reaches a
    column >= r1. A is exactly antisymmetric, so no later row reaches back
    into it either: the forward reach is the whole check."""
    groups, first, reach = [], 0, 0
    for i, (_, end, _, c1, _) in enumerate(h.blocks):
        reach = max(reach, c1)
        if reach <= end:  # the group's rows and columns, counted from its first row
            g0 = h.blocks[first][0]
            groups.append((g0, QuadraticHamiltonian._of_blocks(tuple(
                (r0 - g0, r1 - g0, *((c0 - g0, c1 - g0) if c1 > c0 else (0, 0)), block)
                for r0, r1, c0, c1, block in h.blocks[first:i + 1]), end - g0, None)))
            first = i + 1
    return [(0, h)] if len(groups) == 1 else groups


def _half_envelope(blocks, dim: int) -> tuple | None:
    """The row envelope blocks of the real antisymmetric A' of size dim/2
    with A = T(A') (_particle_hole_O), folded from `blocks`, an iterable of
    the row envelope blocks of an A of size dim, one pair at a time
    (_half_slab), so each pair can be dropped once folded; None when dim is
    not a whole number of orbital pairs or at the first 4 x 4 fiber of A
    that breaks T's pattern (_fold), where no later block is read. That
    pattern is a charge-conserving H (no pairing) with the particle-hole
    symmetry of class D, sigma_x conj(H) sigma_x = -H on every pair of
    orbitals (the qwz Bloch matrix has sigma_x H(-k)* sigma_x = -H(k)): it
    is read from the entries, never assumed from a family. Each pair is
    folded into a slab of _ENVELOPE_ROWS rows of A' that spans only their
    folded columns, which models._envelope trims to A''s block: no dense H
    or A' and no full-width row of A' is formed."""
    if dim % 4:
        return None
    blocks = iter(blocks)
    slabs = (_half_slab([first, *itertools.islice(blocks, 1)]) for first in blocks)
    half = tuple(_envelope(itertools.takewhile(lambda slab: slab is not None, slabs)))
    return half if half and half[-1][1] == dim // 2 else None


def _half_slab(blocks):
    """(c, S): the rows of A' that the envelope blocks `blocks` of A hold,
    S being their columns from c on, or None when a fiber of one breaks T's
    pattern. Each block, its columns widened to whole fibers, is folded
    (_fold) into its span of the slab, one padded block at a time; the slab
    spans the blocks' widened columns, halved, and nothing more."""
    r0 = blocks[0][0]
    spans = [(c0 - c0 % 4, c1 + -c1 % 4) for *_, c0, c1, _ in blocks]
    e0 = min((f0 for f0, f1 in spans if f1 > f0), default=0)
    e1 = max(f1 for _, f1 in spans)
    slab = np.zeros(((blocks[-1][1] - r0) // 2, (e1 - e0) // 2))
    for (b0, b1, c0, c1, block), (f0, f1) in zip(blocks, spans):
        if f1 == f0:
            continue  # a zero block
        B = np.zeros((b1 - b0, f1 - f0))
        B[:, c0 - f0:c1 - f0] = block
        if _fold(B, slab[(b0 - r0) // 2:(b1 - r0) // 2, (f0 - e0) // 2:(f1 - e0) // 2]) is None:
            return None
    return e0 // 2, slab


#: the 4 x 4 fiber O[4p:4p + 4, 4q:4q + 4] of O = W O' W^+ in the real form,
#: entry (i, j) = (k, sign): sign times plane k of (s, a, d, b), where
#: s, d = (O'00 +- O'11)/2 and a, b = (O'01 -+ O'10)/2 at the pairs (p, q)
_PARTICLE_HOLE_FIBER = (((0, 1.0), (1, 1.0), (2, 1.0), (3, -1.0)),
                        ((1, -1.0), (0, 1.0), (3, 1.0), (2, 1.0)),
                        ((2, 1.0), (3, 1.0), (0, 1.0), (1, -1.0)),
                        ((3, -1.0), (2, 1.0), (1, 1.0), (0, 1.0)))


def _particle_hole_O(O_half: np.ndarray) -> np.ndarray:
    """O = T(O') of size 2n, the real form of -i sign(H) = W O' W^+: each
    4 x 4 fiber of O at the pairs (p, q) is read from the planes
    O'00 = O'[0::2, 0::2], ... at (p, q) (_PARTICLE_HOLE_FIBER), with four
    n/2-square temporaries. An exactly antisymmetric O' gives an exactly
    antisymmetric O, which commutes with the charge rotation exactly.

    T is R(W . W^+): on each site it is X -> Q (X kron I_2) Q^T for one
    fixed orthogonal 4 x 4 Q, so O is a two-copy stack of O' in a site-local
    frame, and every triple trace of O between site regions is twice that
    of O'. T is a *-homomorphism with T(I) = I, and A = T(A') up to the one
    rounding of _half_envelope, so O O^T - I = T(O' O'^T - I) and
    [A, O] = T([A', O']); each entry of T(X) is +-(x1 +- x2)/2 for two
    entries of X, so the half's certificate bounds the full one."""
    p00, p01 = O_half[0::2, 0::2], O_half[0::2, 1::2]
    p10, p11 = O_half[1::2, 0::2], O_half[1::2, 1::2]
    planes = (p00 + p11, p01 - p10, p00 - p11, p01 + p10)  # twice s, a, d, b
    pairs = len(planes[0])
    O = np.empty((4 * pairs, 4 * pairs), dtype=planes[0].dtype)
    _write_fibers(planes, 0.5, O.reshape(pairs, 4, pairs, 4).transpose(1, 3, 0, 2))
    return O


def _write_fibers(planes, scale: float, fibers: np.ndarray, rows=slice(None)) -> np.ndarray:
    """fibers[i, j] = scale * sign * planes[k] for each entry (i, j) = (k, sign)
    of the rows `rows` of _PARTICLE_HOLE_FIBER, the planes being
    (s, a, d, b): T's one statement, which _particle_hole_O writes through
    and _fold checks against. `fibers` is indexed [i, j, p, q] by fiber
    entry (i counted from the first row written) and pairs."""
    for i, row in enumerate(_PARTICLE_HOLE_FIBER[rows]):
        for j, (k, sign) in enumerate(row):
            np.multiply(planes[k], scale * sign, out=fibers[i, j])
    return fibers


def _fold(B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray | None:
    """B' with B = T(B'), the inverse of _particle_hole_O for a B of whole
    4 x 4 fibers (any number of pairs of rows and of columns, real or
    complex), written into `out` when given (_half_slab's slab); None when
    a fiber breaks _PARTICLE_HOLE_FIBER. Row 0 of each fiber holds the
    planes s, a, d, b at columns 0-3 (b negated), and rows 1-3 must equal
    the table's rows written from them (_write_fibers), exactly.
    B'[2p + x, 2q + y] is plane xy at the pairs (p, q): B'00 = s + d,
    B'01 = a + b, B'10 = -(a - b) and B'11 = s - d, each rounded once
    (b - a would differ from -(a - b) in the sign of zeros).
    A 1-D B is the mask b of diag(b) (a lifted charge), folded to the mask
    b' of diag(b'): T(diag(b')) is diag(b) exactly when b is constant on
    each 4-fiber (a region of whole sites), b' being that value on both
    orbitals of the pair; any other b (or a NaN) gives None."""
    if B.ndim == 1:
        b = B[0::4]
        return np.repeat(b, 2) if (B.reshape(-1, 4) == b[:, None]).all() else None
    fibers = B.reshape(B.shape[0] // 4, 4, B.shape[1] // 4, 4).transpose(1, 3, 0, 2)
    s, a, d, b = planes = [sign * f for f, (_, sign) in zip(fibers[0], _PARTICLE_HOLE_FIBER[0])]
    rows = _write_fibers(planes, 1.0, np.empty((3,) + fibers.shape[1:], B.dtype), slice(1, None))
    if not np.array_equal(rows, fibers[1:]):
        return None
    out = np.empty((2 * len(s), 2 * s.shape[1]), B.dtype) if out is None else out
    out.reshape(len(s), 2, s.shape[1], 2).transpose(1, 3, 0, 2)[...] = [[s + d, a + b],
                                                                         [-(a - b), s - d]]
    return out


def _eigenvalues_did_not_converge(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh_in_place(S: np.ndarray):
    """(w, V) = np.linalg.eigh(S), bit for bit, with the eigenvectors V
    written into S's own buffer, so no eigenvector array is allocated. S is
    overwritten: it may only be given a matrix that is dead after the call.
    numpy's public eigh has no `out`, so this calls its gufunc (eigh_lo,
    the lower triangle) as np.linalg.eigh does, with the same signature
    from S's dtype (float64 or complex128) and the same error state, so
    non-convergence still raises LinAlgError. The gufunc copies S into
    LAPACK's buffer before it writes any output."""
    w = np.empty(S.shape[0])
    signature = "D->dD" if np.iscomplexobj(S) else "d->dd"
    with np.errstate(call=_eigenvalues_did_not_converge, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.eigh_lo(S, signature=signature, out=(w, S))


def _real_structure(h: QuadraticHamiltonian, gap_tol: float):
    """O = -i sign(iA) in real arithmetic, for any real antisymmetric A,
    near-zero cluster filled halfway. Returns (O, edge gap, cluster size m).

    One real eigh of S = A^T A = -A A (h.gram()) gives w = lambda^2 and a
    real basis V, written into S's dead buffer (_eigh_in_place): the eigh
    holds S (then V), LAPACK's copy of S and its workspace. Modes with
    |lambda| above the window (gap_tol, or a tenth of the largest |lambda|)
    give O = A V w^(-1/2) V^T = A F with F = G G^T and
    G = V w^(-1/4), scaled in V's own columns: F is one symmetric rank-k
    update, and A F runs over A's blocks (h.matmul) into V's dead buffer.
    The window's columns Vc span an invariant subspace of A; the small
    Hermitian problem i Vc^T A Vc, with A Vc = h.matmul(Vc), resolves their
    lambdas at full accuracy, which squaring does not. A is read only
    through its blocks: no dense A is formed. Within the window,
    |lambda| <= gap_tol is the cluster, filled mode by mode: its exact zero
    modes (|lambda| <= _EXACT_ZERO) are paired from a real orthonormal null
    basis (a_k, b_k) -> O_c = sum a_k b_k^T - b_k a_k^T; every other member
    is one of a split +-epsilon pair and keeps its negative member, as every
    mode outside the cluster does. An odd or total cluster, or split members
    not half negative, are refused as unresolvable.
    O is antisymmetrized in place over pairs of tiles (_antisymmetrize).
    The projection's memory need is checked here, before the eigh, at the
    size n = h.dim decomposed (_util._WORKING_ARRAYS n x n arrays): dim for
    pip, dim/2 for the particle-hole half, each group's size for trivial.
    """
    dim = h.dim
    check_memory(dim)
    w, V = _eigh_in_place(h.gram())  # ascending; each lambda^2 twice
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
        zero = cluster & (np.abs(mu) <= _EXACT_ZERO)
        split = cluster & ~zero
        if 2 * np.count_nonzero(split & (mu < 0)) != np.count_nonzero(split):
            raise ComputationError("unresolvable zero modes")
        s = np.sign(mu)
        if zero.any():
            s[zero] = 0.0
            import scipy.linalg

            Uz = U[:, zero]
            null = scipy.linalg.orth(np.hstack([Uz.real, Uz.imag]))
            if null.shape[1] != Uz.shape[1]:
                raise ComputationError("unresolvable zero modes")
            N = _canonical_basis(Vc @ null)
            Oz = N[:, 0::2] @ N[:, 1::2].T
            O += Oz - Oz.T
        Ow = (-1j * (U * s) @ U.conj().T).real  # -i sign(i Vc^T A Vc)
        O += Vc @ Ow @ Vc.T
    _antisymmetrize(O)
    return O, edge_gap, m


def ground_projection(h: QuadraticHamiltonian,
                      gap_tol: float = DEFAULT_GAP_TOL) -> BasisProjection:
    """Spectral projector onto the negative-energy subspace of h = iA, as
    its real complex structure O: the one constructor of a certified
    projection, for the lattice models and random_covariance's random states
    alike.

    Eigenvalues with |lambda| <= gap_tol (by default the config's
    numerics.gap_tol, _util.DEFAULT_GAP_TOL) form the near-zero cluster. An
    empty cluster gives the plain lambda < 0 projector; a nonzero one is
    filled halfway, choosing members compatibly with entrywise conjugation
    so that P + JPJ = I survives (see _real_structure). The result is
    refused as gapless unless O^T = -O, O^2 = -I and [A, O] = 0 hold to
    _RESIDUAL_TOL (1e-12); the last certifies that P commutes with H
    (_certify). Everything runs on h's factor, on h's fiber
    (_complex_structure): the particle-hole half A' at dim/2 (every qwz disk
    and stack, kept so since h was made), whose O' the result keeps as its
    factor (fiber 2) and whose residual bounds O's (_particle_hole_O); or A
    itself (fiber 1). Each certificate runs against the Hamiltonian its
    piece of O was solved from: each diagonal group of a block-diagonal
    factor, whose O's are written into one factor, or the whole factor. A
    gap_tol that is not a finite number >= 0 is refused before any eigh, and
    so is a job that does not fit in memory: the structure solver checks the
    matrix it decomposes (_real_structure), and the groups' factor is
    checked before it is allocated.

    A stack h = kron(iA, I_N) has the projection kron(P, I_N): everything
    above runs on the single-copy block A, and the result keeps the factors.
    Its health describes the stacked space: each cluster mode occurs N times.
    """
    if not 0.0 <= gap_tol < np.inf:
        raise ComputationError(f"gap_tol must be a finite number >= 0, not {gap_tol}")
    O, fiber, (edge_gap, m, residual) = _complex_structure(h, gap_tol)
    health = {"edge_gap": edge_gap, "zero_modes": m * h.copies,
              "projection_residual": residual}
    return BasisProjection(O, h.geometry, health, h.copies, fiber)


def _pair_matrix(S: BasisProjection, vectors) -> np.ndarray:
    """All pair expectations <J f_j, P f_k> = f_j^T P f_k, from the real O:
    F^T P F = (F^T F - i F^T O F)/2. On a stack P = kron(P1, I_N) this is
    the sum of that form over the rows F_c of each copy c."""
    F = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    O = S.O
    return sum(Fc.T @ Fc - 1j * (Fc.T @ (O @ Fc))
               for Fc in (F[c::S.copies] for c in range(S.copies))) / 2


def _matchings(items: tuple):
    """The perfect matchings of `items` as (crossing sign, pairs): the first
    item is paired with each later one in turn, the k items between them
    each crossing the new pair or being paired among themselves, so the
    sign gains (-1)^k. An odd tuple has none; the empty one has one."""
    if not items:
        yield 1, ()
    for k, partner in enumerate(items[1:]):
        rest = items[1:k + 1] + items[k + 2:]
        for sign, pairs in _matchings(rest):
            yield (-1) ** k * sign, ((items[0], partner),) + pairs


def wick_expectation(S: BasisProjection, vectors) -> complex:
    """Moment of a product of Majorana generators by Wick's theorem: the sum
    over the perfect matchings of the list of the products of their pair
    expectations M[l, r] (l < r), each signed by the parity of its crossings
    (_matchings). Each matching is exactly one permutation s with
    s(1) < ... < s(n) and s(j) < s(j+n), pairing s(j) with s(j+n), and its
    crossing sign is sign(s) (-1)^(n(n-1)/2): this is the direct permutation
    sum over those s. An odd list has no matching: its sum is empty, exactly
    0j. The sum has (2n - 1)!! terms: lists longer than 12 are refused.
    """
    vectors = list(vectors)
    if len(vectors) > _WICK_MAX:
        raise ComputationError("oracle too large")
    if not vectors:
        return complex(1.0)
    M = _pair_matrix(S, vectors).tolist()
    return complex(sum(sign * math.prod(M[l][r] for l, r in pairs)
                       for sign, pairs in _matchings(tuple(range(len(vectors))))))


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
    """The two-point operator of a random pure Gaussian state: the ground
    projection of iA for one draw A - A^T, A of standard normal entries,
    made by ground_projection at gap_tol 0, so it is certified and carries
    its health like every other projection (a draw the certificate refuses
    is refused as gapless, never redrawn). dim is taken through as_integer
    and refused below 2, odd or too large for memory (check_memory), before
    any draw."""
    dim = as_integer(dim, "dim_K")
    if dim < 2:
        raise ComputationError(f"dim_K must be >= 2, not {dim}")
    if dim % 2 == 1:
        raise ComputationError("dim_K must be even")
    check_memory(dim)
    A = rng.standard_normal((dim, dim))
    return ground_projection(QuadraticHamiltonian(A - A.T, None), 0.0)
