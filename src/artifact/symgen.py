"""Symmetry generators: copy-space charges, their lifts to regions of the
lattice, projection-dressed flux generators, and parity generators.

Stacked-space index order is (site, majorana index, copy) with the copy index
fastest, so every generator is a FluxGenerator, the Kronecker pair
kron(block, charge): a copy-space charge q lifted to the sites of a region X
is kron(diag(mask_X), q), and a generic dense generator is the N = 1 case
with charge [[1]]. A generator is kept as its factor and its charge only;
the dense block and kron(block, charge) are never formed here (the tests'
dense oracle builds them). Every generator here is read off the
projection's real factor (lifted charges and parity generators stay on a
particle-hole half), never off the complex P = (I - iO)/2; a real charge
dresses to a real block. dress_charge is the one way onto the factor's
fiber.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import quasifree
from ._util import ComputationError, as_integer
from .geometry import LatticeGeometry, region_mask
from .quasifree import BasisProjection


@dataclass
class FluxGenerator:
    """Generator Qtilde = kron(block, charge) on the stacked space, copy index
    fastest. A generic dense generator is the N = 1 case, charge [[1]], where
    Qtilde is the block itself. Like BasisProjection it keeps a factor: the
    block (fiber 1), or a half's B', whose block is T(B') (fiber 2). A
    lifted charge (lift_charge) keeps its fiber-1 site mask, the 1-D
    diagonal of its block, until dress_charge puts it on a projection's
    fiber: hall_sigma, exchange_phase_bch and flux_unitary take a factor
    only as a matrix (_matrix_factor). Neither the block nor Qtilde is ever
    formed: the computations read the factor."""
    factor: np.ndarray
    charge: np.ndarray = field(default_factory=lambda: np.ones((1, 1)))
    region: Optional[object] = None
    fiber: int = 1


def _matrix_factor(g: FluxGenerator) -> np.ndarray:
    """g's factor, which the flux functions take only as a matrix: an
    undressed mask (lift_charge) is refused, naming dress_charge."""
    if g.factor.ndim == 1:
        raise ComputationError("an undressed mask; dress the lifted charge with dress_charge")
    return g.factor


def cyclic_charge(N: int) -> np.ndarray:
    """Hermitian antisymmetric generator of the cyclic rotation on N copies.

    Built from the discrete-Fourier eigenvectors of the cyclic shift with
    integer weights j = -(N-1)/2 ... (N-1)/2, so the spectrum is exactly that
    integer window. Only odd N is meaningful here; even N is refused, and N
    is taken through as_integer, so 2.5 is refused, never truncated.
    """
    N = as_integer(N, "copies")
    if N < 1:
        raise ComputationError("copies must be >= 1")
    if N % 2 == 0:
        raise ComputationError("even copies unsupported")
    half = (N - 1) // 2
    js = np.arange(-half, half + 1)
    k = np.arange(N)
    F = np.exp(2j * np.pi * np.outer(k, js) / N) / np.sqrt(N)
    # entries are purely imaginary (j <-> -j symmetry); store that exactly,
    # which makes the charge exactly Hermitian and antisymmetric
    B = ((F * js) @ F.conj().T).imag
    return 1j * (B - B.T) / 2


def lift_charge(q: np.ndarray, geometry: LatticeGeometry, region) -> FluxGenerator:
    """Charge acting as q on the copy index of every Majorana mode of every
    site in the region, zero elsewhere: the undressed generator
    kron(diag(mask), q), kept as the mask itself (dim_K floats, not dim_K^2);
    diag(mask) is never built. The flux functions take it once dress_charge
    has put it on a projection's fiber.

    `geometry` is the single-copy geometry; the dense operator lives on the
    stacked space of dimension dim_K * copies.
    """
    return FluxGenerator(region_mask(region, geometry).astype(float), q, region)


def dress_charge(P: BasisProjection, g: FluxGenerator, region=None) -> FluxGenerator:
    """Block-diagonal part of Q = kron(B, q), g's generator, w.r.t. P:
    PQP + (1-P)Q(1-P).

    For P = kron(P1, I_N) and Q = kron(B, q) the result is kron(D, q) with D
    the dressed B, so only the block is dressed. With P1 = (I - iO)/2 the
    dressed block is (B - OBO)/2: real for a real B, so its
    eigendecomposition runs in real arithmetic. Commutes with P by
    construction; the block is re-Hermitized to absorb rounding noise. The
    result carries `region`, or g's region when none is given, and is kept
    on P's fiber, against P's factor: the one way onto it. g's factor (a
    matrix or a mask) acts on P's single-copy space on fiber 1 or on P's
    own, its charge on P's copies; anything else is a dimension mismatch.
    On a particle-hole half a fiber-1 factor is folded (quasifree._fold: a
    block B = T(B'), or a mask constant on each 4-fiber, as every lifted
    charge of a region of sites is); one that does not fold is refused,
    naming the fiber-1 view BasisProjection(P.O, P.geometry,
    copies=P.copies) it dresses against instead. A mask b is dressed as
    diag(b) without forming it, by the one product (O * -b) @ O; a matrix
    by O @ B @ O.
    """
    n = P.dim_K // (P.copies * g.fiber)
    if (g.fiber not in (1, P.fiber) or g.charge.shape != (P.copies,) * 2
            or g.factor.shape not in ((n, n), (n,))):
        raise ComputationError("dimension mismatch")
    B = g.factor if g.fiber == P.fiber else quasifree._fold(g.factor)
    if B is None:
        raise ComputationError("the generator does not fold onto P's half; dress it on the "
                               "fiber-1 view BasisProjection(P.O, P.geometry, copies=P.copies)")
    O = P.factor
    if B.ndim == 1:
        Qt = (O * -B) @ O
        Qt.flat[::len(B) + 1] += B
    else:
        Qt = O @ B @ O
        np.subtract(B, Qt, out=Qt)
    Qt += Qt.conj().T  # (B - OBO)/2, Hermitized
    Qt *= 0.25
    return FluxGenerator(Qt, g.charge, g.region if region is None else region, P.fiber)


def parity_charge(P: BasisProjection, region, geometry: LatticeGeometry) -> FluxGenerator:
    """Symmetrized region parity (Pi T + T Pi)/2 with T = 1 - 2P, which
    simplifies to Pi - Pi P - P Pi = (i/2)(Pi O + O Pi) and commutes with P
    identically. On a stack it acts alike on every copy: kron(block, I_N),
    kept on P's factor (a half's region mask has T(Pi') = Pi)."""
    if geometry.dim_K != P.dim_K:
        raise ComputationError("dimension mismatch")
    count = geometry.majorana_count // (P.copies * P.fiber)
    mask = region_mask(region, geometry.with_majorana_count(count)).astype(float)
    O = P.factor
    Qt = mask[:, None] * O + O * mask[None, :]
    return FluxGenerator(0.5j * Qt, np.eye(P.copies), region, P.fiber)


def flux_unitary(g: FluxGenerator, alpha: float) -> np.ndarray:
    """exp(i alpha Qtilde) over the charge sectors: with c = sum_j j P_j,
    exp(i alpha kron(B, c)) = sum_j kron(exp(i alpha j B), P_j), one term
    per distinct eigenvalue j of the charge. Each exp(i alpha j B) comes
    from the one Hermitian eigendecomposition of the generator's matrix
    factor (no series; an undressed mask is refused, _matrix_factor); on a
    particle-hole half it is T(exp(i alpha j B')), since T is a unital
    homomorphism, so the block T(B') is never formed. The result is exactly
    unitary up to rounding."""
    B = _matrix_factor(g)
    if alpha == 0.0:
        return np.eye(len(B) * g.fiber * len(g.charge), dtype=complex)
    lam, V = np.linalg.eigh(B)
    js, W = np.linalg.eigh(g.charge)
    U = np.zeros((len(V) * g.fiber * len(W),) * 2, dtype=complex)
    for j in np.unique(js):
        D = (V * np.exp(1j * alpha * j * lam)) @ V.conj().T
        Wj = W[:, js == j]
        U += np.kron(D if g.fiber == 1 else quasifree._particle_hole_O(D), Wj @ Wj.conj().T)
    return U
