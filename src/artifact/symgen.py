"""Symmetry generators: copy-space charges, their lifts to regions of the
lattice, projection-dressed flux generators, and parity generators.

Stacked-space index order is (site, majorana index, copy) with the copy index
fastest, so a copy-space charge q lifted to the sites of a region X is the
Kronecker product kron(diag(mask_X), q). Every generator here is read off the
projection's real single-copy O, never off the complex P = (I - iO)/2; a
real charge dresses to a real block.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._util import ComputationError, hermiticity_residual
from .geometry import LatticeGeometry, region_mask
from .quasifree import BasisProjection


@dataclass
class ChargeMatrix:
    q: np.ndarray
    copies: int

    def validate(self, tol: float = 1e-12):
        q = self.q
        if q.shape != (self.copies, self.copies):
            raise ComputationError("dimension mismatch")
        if hermiticity_residual(q) > tol:
            raise ComputationError("charge matrix is not Hermitian")
        if float(np.max(np.abs(q.T + q))) > tol:
            raise ComputationError("charge matrix is not antisymmetric")


#: the copy-space factor of a generic (single-copy, N = 1) generator
_ONE = np.ones((1, 1))


@dataclass
class FluxGenerator:
    """Generator Qtilde = kron(block, charge) on the stacked space, copy index
    fastest. A generic dense generator is the N = 1 case, charge [[1]], where
    Qtilde is the block itself."""
    block: np.ndarray
    kind: str  # "dressed-charge" | "parity"
    region: Optional[object] = None
    charge: np.ndarray = field(default_factory=_ONE.copy)

    @property
    def Qtilde(self) -> np.ndarray:
        if np.array_equal(self.charge, _ONE):
            return self.block
        return np.kron(self.block, self.charge)

    def check_factors(self, P: BasisProjection):
        """The generator acts on P's space: its block on P's single-copy
        space, its charge on P's copies."""
        if self.block.shape != P.O.shape or self.charge.shape != (P.copies, P.copies):
            raise ComputationError("dimension mismatch")

    def validate(self, P: BasisProjection, tol: float = 1e-10):
        # [kron(P, I), kron(B, c)] = kron([P, B], c), whose largest entry is
        # max|[P, B]| max|c|, and [P, B] = -(i/2)[O, B]
        self.check_factors(P)
        comm = P.O @ self.block - self.block @ P.O
        if 0.5 * float(np.max(np.abs(comm))) * float(np.max(np.abs(self.charge))) > tol:
            raise ComputationError("generator does not commute with projection")


@dataclass
class LiftedCharge:
    """A copy-space charge q on the sites of a region: kron(diag(mask), q),
    kept as its factors; `.matrix` is the dense stacked operator."""
    mask: np.ndarray  # 0/1 over the single-copy space
    q: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return np.kron(np.diag(self.mask), self.q)


def cyclic_charge(N: int) -> ChargeMatrix:
    """Hermitian antisymmetric generator of the cyclic rotation on N copies.

    Built from the discrete-Fourier eigenvectors of the cyclic shift with
    integer weights j = -(N-1)/2 ... (N-1)/2, so the spectrum is exactly that
    integer window. Only odd N is meaningful here; even N is refused.
    """
    if N % 2 == 0:
        raise ComputationError("even copies unsupported")
    if N < 1:
        raise ComputationError("copies must be >= 1")
    if N == 1:
        return ChargeMatrix(np.zeros((1, 1), dtype=complex), 1)
    half = (N - 1) // 2
    js = np.arange(-half, half + 1)
    k = np.arange(N)
    F = np.exp(2j * np.pi * np.outer(k, js) / N) / np.sqrt(N)
    q = (F * js) @ F.conj().T
    # entries are purely imaginary (j <-> -j symmetry); store that exactly
    B = q.imag
    q = 1j * (B - B.T) / 2
    cm = ChargeMatrix(q, N)
    cm.validate()
    return cm


def lift_charge(q: ChargeMatrix, geometry: LatticeGeometry, region) -> LiftedCharge:
    """Charge acting as q on the copy index of every Majorana mode of every
    site in the region, zero elsewhere: kron(diag(mask), q), as its factors.

    `geometry` is the single-copy geometry; the dense operator lives on the
    stacked space of dimension dim_K * copies.
    """
    return LiftedCharge(region_mask(region, geometry).astype(float), q.q)


def dress_charge(P: BasisProjection, Q, region=None) -> FluxGenerator:
    """Block-diagonal part of Q w.r.t. P: Qtilde = PQP + (1-P)Q(1-P).

    Q is a dense matrix (an N = 1 generator) or a LiftedCharge. For
    P = kron(P1, I_N) and Q = kron(Pi, q) the result is kron(D, q) with D the
    dressed Pi, so only the block is dressed; a lifted charge that meets a
    dense projection is expanded to its N = 1 form. With P1 = (I - iO)/2 the
    dressed block is (Q - OQO)/2: real for a real Q, so its
    eigendecomposition runs in real arithmetic. Commutes with P by
    construction; the block is re-Hermitized to absorb rounding noise.
    """
    if isinstance(Q, LiftedCharge):
        block, charge = ((np.diag(Q.mask), Q.q) if Q.q.shape[0] == P.copies
                         else (Q.matrix, _ONE))
    else:
        block, charge = Q, _ONE
    g = FluxGenerator(block, "dressed-charge", region, charge)
    g.check_factors(P)
    Qt = P.O @ block @ P.O
    np.subtract(block, Qt, out=Qt)
    Qt += Qt.conj().T  # (Q - OQO)/2, Hermitized
    Qt *= 0.25
    g.block = Qt
    return g


def parity_charge(P: BasisProjection, region, geometry: LatticeGeometry) -> FluxGenerator:
    """Symmetrized region parity (Pi T + T Pi)/2 with T = 1 - 2P, which
    simplifies to Pi - Pi P - P Pi = (i/2)(Pi O + O Pi) and commutes with P
    identically. On a stack it acts alike on every copy: kron(block, I_N)."""
    if geometry.dim_K != P.dim_K:
        raise ComputationError("dimension mismatch")
    block_geometry = geometry.with_majorana_count(geometry.majorana_count // P.copies)
    mask = region_mask(region, block_geometry).astype(float)
    Qt = mask[:, None] * P.O + P.O * mask[None, :]
    return FluxGenerator(0.5j * Qt, "parity", region, np.eye(P.copies))


def flux_unitary(g: FluxGenerator, alpha: float) -> np.ndarray:
    """exp(i alpha Qtilde) through the Hermitian eigendecompositions of the
    block and the charge: with B = V diag(lam) V^+ and c = W diag(j) W^+,
    Qtilde = X diag(lam_a j_b) X^+ for X = kron(V, W) (exactly unitary up to
    rounding; no series)."""
    if alpha == 0.0:
        return np.eye(g.block.shape[0] * g.charge.shape[0], dtype=complex)
    lam, V = np.linalg.eigh(g.block)
    js, W = np.linalg.eigh(g.charge)
    X = np.kron(V, W)
    return (X * np.exp(1j * alpha * np.kron(lam, js))) @ X.conj().T
