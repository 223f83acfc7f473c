"""Gapped quadratic lattice models in the canonical Majorana representation.

Builders assemble a number-conserving + pairing Hamiltonian on the disk,
rotate it to the Majorana basis gamma_{a,1} = c_a + c*_a,
gamma_{a,2} = -i(c_a - c*_a), and store the real antisymmetric A of
H = iA (equivalently J H J = -H with J = entrywise conjugation). The matrix
acts on K with index order (site, majorana index), site-major. The complex
H is built only when `.matrix` is read (by oracles and tests).

Sign conventions (calibrated once, recorded in every report):
ground projection = lambda < 0 sector of the stored matrix; with it the
two-band model at u = 1 gives nu = +2 = 2 * tknn_chern("qwz", {"u": 1}).
"""
from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

import numpy as np

from ._util import ComputationError, ConfigError, as_integer, check_memory

if TYPE_CHECKING:
    from .geometry import LatticeGeometry

#: convention string embedded in reports (orientation + calibration anchors)
CONVENTION_TAG = "nu(qwz,u=1)=+2; tknn(qwz,u=1)=+1; ccw-cones"

#: model family -> (Majorana modes per site, the names of its parameters in
#: its builder's order). The CLI builds each family's disk with this count;
#: `trivial` takes any even count.
FAMILIES = {"qwz": (4, ("u",)), "pip": (2, ("mu", "delta")), "trivial": (2, ())}

_sx = np.array([[0, 1], [1, 0]], dtype=complex)
_sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
_sz = np.array([[1, 0], [0, -1]], dtype=complex)

#: rows per envelope block: few enough that a block's columns stay near a
#: stencil's width, enough for a block product to run at gemm speed
_ENVELOPE_ROWS = 128


def _envelope(slabs):
    """The row envelope blocks of a matrix given as its consecutive slabs of
    rows, each a pair (c, S): S holds the slab's columns from column c on,
    and the matrix is zero outside them. Yields (r0, r1, c0, c1, block) per
    slab, the slab being rows r0:r1, exactly zero outside columns c0:c1 (NaN
    counts as nonzero; c0 == c1 == 0 for a zero slab), and `block` an owned
    copy of its columns c0:c1. The envelope is read from the entries, never
    assumed from a geometry or from S's span, so a far coupling widens its
    block, a dense matrix gives full blocks, and a slab given at any width
    that holds its entries gives the same block."""
    r0 = 0
    for c, slab in slabs:
        r1 = r0 + slab.shape[0]
        cols = np.flatnonzero((slab != 0).any(axis=0))
        c0, c1 = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
        block = slab[:, c0:c1].copy()
        yield r0, r1, *((c + c0, c + c1) if cols.size else (0, 0)), block
        r0 = r1


class QuadraticHamiltonian:
    """H = kron(iA, I_copies) on the geometry: `copies` identical copies of
    the single-copy Hamiltonian iA, copy index fastest. A is kept as its row
    envelope blocks (_envelope), `blocks` = ((r0, r1, c0, c1,
    A[r0:r1, c0:c1]), ...), so a nearest-neighbour A holds a band of floats
    and no dim x dim array. The computations read A through the blocks
    (`matmul`, `gram`); the dense A (`dense()`) and the complex stacked H
    (`.matrix`) are built only when read (by oracles and tests). `dim` is
    the single-copy dimension.

    The constructor is where a matrix becomes A. It takes A itself or a
    complex iA; an iA with a real part breaks J H J = -H (no
    conjugation-compatible filling of the ground state exists) and is
    refused as gapless, and an A with a symmetric part as not Hermitian.
    `bulk_gap` is the periodic model's smallest |E(k)| when a builder
    certified it (None for a matrix built by hand).
    """

    def __init__(self, A: np.ndarray, geometry: LatticeGeometry):
        if np.iscomplexobj(A):
            real_part = float(np.max(np.abs(A.real)))
            if not real_part <= 1e-12:
                raise ComputationError(f"gapless: real part {real_part:.2g} > 1e-12")
            A = np.ascontiguousarray(A.imag)
        A = np.asarray(A, dtype=float)
        if not np.isfinite(A).all():
            raise ComputationError("Hamiltonian is not finite")
        symmetric_part = float(np.max(np.abs(A + A.T), initial=0.0))
        if symmetric_part > 1e-12:
            raise ComputationError(f"Hamiltonian is not Hermitian: "
                                   f"|A + A^T| {symmetric_part:.2g} > 1e-12")
        if symmetric_part > 0.0:
            A = A - A.T
            A *= 0.5  # exactly antisymmetric
        self.blocks = tuple(_envelope((0, A[r0:r0 + _ENVELOPE_ROWS])
                                      for r0 in range(0, len(A), _ENVELOPE_ROWS)))
        self.dim = len(A)
        self.geometry, self.copies, self.bulk_gap = geometry, 1, None

    @classmethod
    def _of_blocks(cls, blocks, dim: int, geometry: LatticeGeometry, copies: int = 1,
                   bulk_gap: float | None = None) -> "QuadraticHamiltonian":
        """The Hamiltonian kept as `blocks`, the row envelope blocks of an A
        the caller has already checked (the builders, stack_copies)."""
        h = cls.__new__(cls)
        h.blocks, h.dim = blocks, dim
        h.geometry, h.copies, h.bulk_gap = geometry, copies, bulk_gap
        return h

    def matmul(self, X: np.ndarray, out: np.ndarray | None = None,
               rows: slice = slice(0, None)) -> np.ndarray:
        """A[rows] @ X for the single-copy A (all of A by default, `rows` a
        slice of step 1), each block multiplied only with the rows of X
        inside its column span, written into `out` when given. The terms
        skipped are exact zeros of A, so a nearest-neighbour A costs a
        band's flops and a dense A the full product."""
        lo, hi, _ = rows.indices(self.dim)
        if out is None:
            out = np.empty((hi - lo, X.shape[1]))
        for r0, r1, c0, c1, block in self.blocks:
            a, b = max(r0, lo), min(r1, hi)
            if a < b:
                np.matmul(block[a - r0:b - r0], X[c0:c1], out=out[a - lo:b - lo])
        return out

    def gram(self) -> np.ndarray:
        """A^T A (= -A A) as the sum of B^T B over the blocks
        B = A[r0:r1, c0:c1], each term added over its block's column span
        only, so a nearest-neighbour A costs a band's flops. numpy runs each
        B^T B as a syrk, so the sum is exactly symmetric."""
        S = np.zeros((self.dim, self.dim))
        for *_, c0, c1, block in self.blocks:
            S[c0:c1, c0:c1] += block.T @ block
        return S

    def dense(self) -> np.ndarray:
        """The single-copy A as a dense dim x dim array."""
        A = np.zeros((self.dim, self.dim))
        for r0, r1, c0, c1, block in self.blocks:
            A[r0:r1, c0:c1] = block
        return A

    @property
    def matrix(self) -> np.ndarray:
        return 1j * np.kron(self.dense(), np.eye(self.copies))


# ---------------------------------------------------------------------------
# model data: on-site block, hopping blocks (c*_{r+d} t_d c_r + h.c.) and
# pairing blocks (c*_{r+d} D_d c*_r + h.c.) on the square lattice


def _qwz_blocks(u: float):
    onsite = u * _sz
    hops = {(1, 0): (_sz + 1j * _sx) / 2, (0, 1): (_sz + 1j * _sy) / 2}
    return onsite, hops, {}


def _pip_blocks(mu: float, delta: float):
    onsite = np.array([[-mu]], dtype=complex)
    hops = {(1, 0): np.array([[-1.0]], dtype=complex),
            (0, 1): np.array([[-1.0]], dtype=complex)}
    # Delta(k) = delta (sin kx - i sin ky): chirality fixed so weak pairing
    # at mu = -1 lands on nu = +1 under the package sign conventions
    pairs = {(1, 0): np.array([[0.5j * delta]], dtype=complex),
             (0, 1): np.array([[0.5 * delta]], dtype=complex)}
    return onsite, hops, pairs


def _bloch(family_tag: str, parameters: dict, kgrid: int) -> np.ndarray:
    """Bloch vectors d(k) of the periodic model on the kgrid x kgrid grid of
    the Brillouin zone, shape (3, kgrid, kgrid): of the band matrix for qwz,
    of the BdG matrix for pip."""
    ks = 2 * np.pi * np.arange(kgrid) / kgrid
    return _bloch_at(family_tag, parameters, ks[:, None], ks[None, :])


def _bloch_at(family_tag: str, parameters: dict, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
    """Bloch vector d(k) at the momenta (kx, ky), which broadcast against
    each other; shape (3,) + np.broadcast(kx, ky).shape. Both families'
    Bloch matrices are the traceless H(k) = d(k) . sigma."""
    if family_tag == "qwz":
        d = (np.sin(kx), np.sin(ky), float(parameters["u"]) + np.cos(kx) + np.cos(ky))
    elif family_tag == "pip":
        mu, delta = float(parameters["mu"]), float(parameters["delta"])
        d = (delta * np.sin(kx), delta * np.sin(ky), -2.0 * (np.cos(kx) + np.cos(ky)) - mu)
    else:
        raise ConfigError(f"no periodic oracle for family {family_tag!r}")
    return np.stack(np.broadcast_arrays(*d))


#: the four momenta k in {0, pi}^2, where every gap closing of qwz and pip
#: sits; an odd grid misses pi, so the certificate adds them explicitly
_HIGH_SYMMETRY = np.meshgrid([0.0, np.pi], [0.0, np.pi], indexing="ij")


def _check_gapped(family_tag: str, parameters: dict, ev: np.ndarray | None = None) -> float:
    """Refuse gapless parameters; return the bulk gap min |E(k)| of the bands
    -+|d(k)| of the traceless Bloch matrices d(k) . sigma, on a grid and at
    the four momenta {0, pi}^2. `ev` are energies the caller has already
    computed on its own grid (default: |d| on a kgrid-120 grid). A NaN or
    infinite gap is refused, never certified."""
    if family_tag == "pip" and parameters["delta"] == 0.0 and abs(parameters["mu"]) <= 4.0:
        # nodal ring of the delta = 0 metal can slip between grid points
        raise ComputationError("gapless parameters: nodal ring at delta = 0")
    if ev is None:
        ev = np.linalg.norm(_bloch(family_tag, parameters, 120), axis=0)
    corners = np.linalg.norm(_bloch_at(family_tag, parameters, *_HIGH_SYMMETRY), axis=0)
    gap = float(np.minimum(np.min(np.abs(ev)), np.min(corners)))  # NaN stays NaN
    if not np.isfinite(gap):
        raise ComputationError(f"Bloch bands are not finite: bulk gap {gap}")
    if not gap >= 1e-6:
        raise ComputationError(f"gapless parameters: bulk gap {gap:.2g} < 1e-6")
    return gap


def _solid_angle(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Signed solid angle of the spherical triangle of the unit vectors
    a, b, c (components on the first axis), in (-2 pi, 2 pi], positive when
    a, b, c run counterclockwise seen from outside the sphere:
    2 atan2(a . (b x c), 1 + a . b + b . c + c . a)."""
    triple = (a[0] * (b[1] * c[2] - b[2] * c[1]) + a[1] * (b[2] * c[0] - b[0] * c[2])
              + a[2] * (b[0] * c[1] - b[1] * c[0]))
    return 2.0 * np.arctan2(triple, 1.0 + np.sum(a * b + b * c + c * a, axis=0))


def _plaquette_phases(d: np.ndarray, rows: range | None = None) -> np.ndarray:
    """Berry-phase field strength of the lower band of H(k) = d(k) . sigma on
    the plaquettes of a periodic grid whose corner k has its first index in
    `rows` (default: every plaquette), d of shape (3, kgrid, kgrid) and
    nonzero at every momentum (the gap certificate refuses a d = 0): the
    principal arg of the link product <n|nx><nx|nxy><nxy|ny><ny|n> around
    the counterclockwise plaquette (k, k + x, k + x + y, k + y), computed in
    closed form. The lower band is the spin-1/2 state along n = -d/|d|, and
    arg <a|b><b|c><c|a> is half the signed solid angle O(a, b, c) of the
    geodesic triangle (a, b, c), so the plaquette's arg is
    [O(n, nx, nxy) + O(n, nxy, ny)]/2, wrapped into (-pi, pi].
    """
    kgrid = d.shape[1]
    rows = range(kgrid) if rows is None else rows
    d = d[:, np.arange(rows.start, rows.stop + 1) % kgrid]  # and the row k + x
    r = np.linalg.norm(d, axis=0)
    n = d / -r
    nx, n = n[:, 1:], n[:, :-1]
    ny = np.roll(n, -1, axis=2)
    nxy = np.roll(nx, -1, axis=2)
    phase = 0.5 * (_solid_angle(n, nx, nxy) + _solid_angle(n, nxy, ny))
    phase[phase > np.pi] -= 2 * np.pi
    phase[phase <= -np.pi] += 2 * np.pi
    return phase


# ---------------------------------------------------------------------------
# real-space assembly


def _bond_fibers(geometry: LatticeGeometry, onsite, hops, pairs):
    """The bonds of the real-space Hamiltonian in the Majorana basis, with
    open boundaries: yields (F, rows, cols) per offset d, F the real m x m
    block that A holds at every site pair (rows[i], cols[i]) = (r + d, r) on
    the disk.

    The bond d (c*_{r+d} t_d c_r + c*_{r+d} D_d c*_r + h.c.) gives the site
    pair (r + d, r) the blocks (h, D) = (t_d, D_d) and the pair (r, r + d)
    the blocks (t_d^dagger, -D_d^T). Rotating each (c, c*) fiber of the
    Nambu block [[h, D], [-conj(D), -h^T]] by omega/sqrt(2) gives, for
    Hermitian h, the real fibers written below (iA = omega N omega^dagger / 2),
    and the fibers of d and -d are exact negative transposes: A is exactly
    antisymmetric. The site pairs are found through a lookup grid of the
    integer site coordinates; distinct offsets give distinct site pairs.
    """
    n_orb = geometry.majorana_count // 2
    # offset d -> stacked (h, D) blocks of the site pair (r + d, r)
    blocks = defaultdict(lambda: np.zeros((2, n_orb, n_orb), dtype=complex))
    blocks[0, 0][0] += onsite
    for d, blk in hops.items():
        blocks[d][0] += blk
        blocks[-d[0], -d[1]][0] += blk.conj().T
    for d, blk in pairs.items():
        blocks[d][1] += blk
        blocks[-d[0], -d[1]][1] -= blk.T
    ns, m = len(geometry.sites), geometry.majorana_count
    xy = np.rint(geometry.sites).astype(int)
    pad = max(abs(c) for d in blocks for c in d)
    xy -= xy.min(axis=0) - pad
    grid = np.full(tuple(xy.max(axis=0) + pad + 1), -1)  # lattice point -> site id
    grid[xy[:, 0], xy[:, 1]] = np.arange(ns)
    for (dx, dy), (h, D) in blocks.items():
        # F[(a,s),(b,t)]: s, t index the fiber (gamma_1, gamma_2) of modes a, b
        F = np.empty((n_orb, 2, n_orb, 2))
        F[:, 0, :, 0] = h.imag + D.imag
        F[:, 0, :, 1] = h.real - D.real
        F[:, 1, :, 0] = -(h.real + D.real)
        F[:, 1, :, 1] = h.imag - D.imag
        rows = grid[xy[:, 0] + dx, xy[:, 1] + dy]
        cols = np.flatnonzero(rows >= 0)
        yield F.reshape(m, m), rows[cols], cols


def _real_space_blocks(geometry: LatticeGeometry, onsite, hops, pairs):
    """The row envelope blocks (r0, r1, c0, c1, A[r0:r1, c0:c1]) of the real
    antisymmetric A of size dim_K that the bonds of _bond_fibers make: each
    slab of _ENVELOPE_ROWS rows of A is assembled from the bonds of the sites
    that hold it, over the sites its bonds reach only (a band of a few
    lattice rows, not dim_K columns), and handed to _envelope with that
    span's first column, one at a time, so no dense A and no full-width row
    is formed."""
    ns, m = len(geometry.sites), geometry.majorana_count
    bonds = list(_bond_fibers(geometry, onsite, hops, pairs))

    def slabs():
        for r0 in range(0, ns * m, _ENVELOPE_ROWS):
            r1 = min(r0 + _ENVELOPE_ROWS, ns * m)
            s0, s1 = r0 // m, -(-r1 // m)  # the sites holding rows r0:r1
            held = [(F, rows[i] - s0, cols[i]) for F, rows, cols in bonds
                    for i in [(rows >= s0) & (rows < s1)] if i.any()]
            t0 = min((int(cols[0]) for *_, cols in held), default=0)  # cols ascend
            t1 = max((int(cols[-1]) + 1 for *_, cols in held), default=t0)
            slab = np.zeros((s1 - s0, m, t1 - t0, m))
            for F, rows, cols in held:
                slab[rows, :, cols - t0, :] += F
            yield t0 * m, slab.reshape(-1, (t1 - t0) * m)[r0 - s0 * m:r1 - s0 * m]

    return _envelope(slabs())


def _build(family_tag: str, geometry: LatticeGeometry, blocks, **params) -> QuadraticHamiltonian:
    """The body of every builder: the Majorana-count check, the memory guard
    (before anything is allocated, on one dim x dim array: the least any
    projection path holds), the bulk-gap certificate, the real-space
    assembly of `blocks(**params)` (on-site, hopping and pairing blocks) and
    the construction. `trivial` takes any even Majorana count, and its
    spectrum is exactly {+-1}, so its bulk gap is 1."""
    count = FAMILIES[family_tag][0]
    if family_tag != "trivial" and geometry.majorana_count != count:
        raise ComputationError(f"{family_tag} needs majorana_count = {count}")
    check_memory(geometry.dim_K, 1)
    gap = 1.0 if family_tag == "trivial" else _check_gapped(family_tag, params)
    envelope = tuple(_real_space_blocks(geometry, *blocks(**params)))
    if not all(np.isfinite(block).all() for *_, block in envelope):
        raise ComputationError("Hamiltonian is not finite")
    return QuadraticHamiltonian._of_blocks(envelope, geometry.dim_K, geometry, bulk_gap=gap)


def build_qwz(u: float, geometry: LatticeGeometry) -> QuadraticHamiltonian:
    """Two-band Chern insulator with mass u on the geometry's sites.

    Requires majorana_count = 4 (two complex orbitals per site). Gap is
    certified on the periodic spectrum; the open disk hosts edge modes whose
    near-zero energies are not a gap failure.
    """
    return _build("qwz", geometry, _qwz_blocks, u=float(u))


def build_pip(mu: float, delta: float, geometry: LatticeGeometry) -> QuadraticHamiltonian:
    """Spinless p-wave paired model (one complex mode per site, majorana_count 2)."""
    return _build("pip", geometry, _pip_blocks, mu=float(mu), delta=float(delta))


def build_trivial(geometry: LatticeGeometry) -> QuadraticHamiltonian:
    """Decoupled on-site modes at unit energy; spectrum exactly {±1}: the
    on-site block is I on every orbital and there are no bonds, so each
    fiber of A is [[0, 1], [-1, 0]]."""
    return _build("trivial", geometry,
                  lambda: (np.eye(geometry.majorana_count // 2), {}, {}))


def stack_copies(h: QuadraticHamiltonian, copies: int) -> QuadraticHamiltonian:
    """N identical copies; index order (site, majorana index, copy), copy fastest,
    so the matrix is kron(H, I_N) and copy-space charges lift as Kronecker factors.
    The result keeps the factors (H's blocks and the copy count); a
    geometry-less H gives a geometry-less stack."""
    copies = as_integer(copies, "copies")
    if copies < 1:
        raise ComputationError("copies must be >= 1")
    if copies == 1:
        return h
    geom = h.geometry
    if geom is not None:
        geom = geom.with_majorana_count(geom.majorana_count * copies)
    return QuadraticHamiltonian._of_blocks(h.blocks, h.dim, geom, h.copies * copies, h.bulk_gap)


#: strips of rows of the momentum grid that tknn_chern sums its plaquette
#: phases over, one at a time: the unit vectors, their rolled copies and the
#: solid-angle temporaries exist only for one strip and its wrap row
_TKNN_STRIPS = 32

#: kgrid x kgrid float64 arrays tknn_chern holds at its peak, rounded up to
#: the next whole array as _util._WORKING_ARRAYS is. The peak is _bloch's:
#: the three planes of d(k) and one being stacked; the strips add about a
#: twentieth of that. tracemalloc measures 4.02 at kgrid 200 and 4.00 at
#: 800, and the peak RSS above the pre-call level 4.70 at kgrid 200, 4.24
#: at 400 and 4.04 at 800 (24.0 traced before the strips)
_TKNN_WORKING_ARRAYS = 5


def tknn_chern(family_tag: str, parameters: dict, kgrid: int = 200) -> int:
    """Momentum-space Chern number of the negative-energy band by the
    plaquette field-strength algorithm of Fukui, Hatsugai and Suzuki; exact
    integer output. Both families' Bloch matrices are the traceless 2x2
    H(k) = d(k) . sigma with one occupied band, so the bands -+|d| and every
    plaquette's Berry phase come in closed form from d(k)
    (`_plaquette_phases`, summed over _TKNN_STRIPS strips of rows, the last
    one wrapping to row 0); no eigenproblem is solved.

    Orientation is the package convention anchor: qwz at u = 1 returns +1.
    kgrid is taken through as_integer. A grid whose arrays would not fit in
    the available memory is refused up front.
    """
    kgrid = as_integer(kgrid, "kgrid")
    if kgrid < 50:
        raise ConfigError("kgrid must be >= 50")
    check_memory(kgrid, _TKNN_WORKING_ARRAYS, "tknn oracle")
    d = _bloch(family_tag, parameters, kgrid)
    step = -(-kgrid // _TKNN_STRIPS)
    strips = [range(i0, min(i0 + step, kgrid)) for i0 in range(0, kgrid, step)]
    bands = [np.min(np.linalg.norm(d[:, s.start:s.stop], axis=0)) for s in strips]
    _check_gapped(family_tag, parameters, np.array(bands))
    total = sum(float(np.sum(_plaquette_phases(d, s))) for s in strips) / (2 * np.pi)
    if not np.isfinite(total):
        raise ComputationError(f"Chern sum is not finite: {total}")
    c = int(np.rint(total))
    if abs(total - c) > 1e-6:
        raise ComputationError("gapless parameters")
    return c
