"""Gapped quadratic lattice models in the canonical Majorana representation.

Builders assemble a number-conserving + pairing Hamiltonian on the disk,
rotate it to the Majorana basis gamma_{a,1} = c_a + c*_a,
gamma_{a,2} = -i(c_a - c*_a), and store H = iA with A real antisymmetric
(equivalently J H J = -H with J = entrywise conjugation). The matrix acts on
K with index order (site, majorana index), site-major.

Sign conventions (calibrated once, recorded in every report):
ground projection = lambda < 0 sector of the stored matrix; with it the
two-band model at u = 1 gives nu = +2 = 2 * tknn_chern("qwz", {"u": 1}).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import ComputationError, ConfigError, check_memory, hermiticity_residual
from .geometry import LatticeGeometry

#: convention string embedded in reports (orientation + calibration anchors)
CONVENTION_TAG = "nu(qwz,u=1)=+2; tknn(qwz,u=1)=+1; ccw-cones"

_sx = np.array([[0, 1], [1, 0]], dtype=complex)
_sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
_sz = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass
class QuadraticHamiltonian:
    """H = kron(block, I_copies) on the geometry: `copies` identical copies of
    the single-copy matrix `block`, copy index fastest (copies = 1: H is the
    block itself). The stacked matrix is built only when `.matrix` is read."""
    block: np.ndarray
    geometry: LatticeGeometry
    family_tag: str
    parameters: dict = field(default_factory=dict)
    copies: int = 1

    @property
    def matrix(self) -> np.ndarray:
        if self.copies == 1:
            return self.block
        return np.kron(self.block, np.eye(self.copies))

    def validate(self, tol: float = 1e-12):
        """Hermitian and J H J = -H; kron with I_N preserves both residuals,
        so the block is checked."""
        H = self.block
        if hermiticity_residual(H) > tol:
            raise ComputationError("Hamiltonian is not Hermitian")
        # J H J = -H  <=>  H purely imaginary entrywise
        if float(np.max(np.abs(H.real))) > tol:
            raise ComputationError("Hamiltonian violates JHJ = -H")


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
    """k-space matrices of the periodic model on the kgrid x kgrid grid of the
    Brillouin zone, shape (kgrid, kgrid, 2, 2): the band matrix for qwz, the
    BdG matrix for pip."""
    ks = 2 * np.pi * np.arange(kgrid) / kgrid
    return _bloch_at(family_tag, parameters, *np.meshgrid(ks, ks, indexing="ij"))


def _bloch_at(family_tag: str, parameters: dict, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
    """k-space matrices at the momenta (kx, ky), shape kx.shape + (2, 2)."""
    if family_tag == "qwz":
        u = float(parameters["u"])
        m = u + np.cos(kx) + np.cos(ky)
        return (np.sin(kx)[..., None, None] * _sx + np.sin(ky)[..., None, None] * _sy
                + m[..., None, None] * _sz)
    if family_tag == "pip":
        mu, delta = float(parameters["mu"]), float(parameters["delta"])
        xi = -2.0 * (np.cos(kx) + np.cos(ky)) - mu
        dk = delta * (np.sin(kx) - 1j * np.sin(ky))
        H = np.empty(kx.shape + (2, 2), dtype=complex)
        H[..., 0, 0] = xi
        H[..., 0, 1] = dk
        H[..., 1, 0] = np.conj(dk)
        H[..., 1, 1] = -xi
        return H
    raise ConfigError(f"no periodic oracle for family {family_tag!r}")


#: the four momenta k in {0, pi}^2, where every gap closing of qwz and pip
#: sits; an odd grid misses pi, so the certificate adds them explicitly
_HIGH_SYMMETRY = np.meshgrid([0.0, np.pi], [0.0, np.pi], indexing="ij")


def _check_gapped(family_tag: str, parameters: dict, ev: np.ndarray | None = None):
    """Refuse gapless parameters. `ev` are Bloch eigenvalues the caller has
    already computed on its own grid (default: a kgrid-120 grid)."""
    if family_tag == "pip" and parameters["delta"] == 0.0 and abs(parameters["mu"]) <= 4.0:
        # nodal ring of the delta = 0 metal can slip between grid points
        raise ComputationError("gapless parameters: nodal ring at delta = 0")
    if ev is None:
        ev = np.linalg.eigvalsh(_bloch(family_tag, parameters, 120))
    corners = np.linalg.eigvalsh(_bloch_at(family_tag, parameters, *_HIGH_SYMMETRY))
    gap = min(float(np.min(np.abs(ev))), float(np.min(np.abs(corners))))
    if gap < 1e-6:
        raise ComputationError(f"gapless parameters: bulk gap {gap:.2g} < 1e-6")


# ---------------------------------------------------------------------------
# real-space assembly


def _real_space_K(geometry: LatticeGeometry, onsite, hops, pairs) -> np.ndarray:
    """Real-space Hamiltonian in the Majorana basis.

    Assembles h (hopping) and D (pairing) over the finite site set with open
    boundaries. Rotating each (c, c*) fiber of the Nambu blocks
    [[h, D], [-conj(D), -h^T]] by omega/sqrt(2) gives, for Hermitian h, the
    real fibers of A written below (K = iA = omega N omega^dagger / 2).
    Returns the purely imaginary Hermitian matrix iA of size dim_K.
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
    # A[(a,s),(b,t)]: s, t index the fiber (gamma_1, gamma_2) of modes a, b
    A = np.empty((M, 2, M, 2))
    A[:, 0, :, 0] = h.imag + D.imag
    A[:, 0, :, 1] = h.real - D.real
    A[:, 1, :, 0] = -(h.real + D.real)
    A[:, 1, :, 1] = h.imag - D.imag
    del h, D  # the peak is then A and its complex copy
    return 1j * A.reshape(2 * M, 2 * M)


def build_qwz(u: float, geometry: LatticeGeometry) -> QuadraticHamiltonian:
    """Two-band Chern insulator with mass u on the geometry's sites.

    Requires majorana_count = 4 (two complex orbitals per site). Gap is
    certified on the periodic spectrum; the open disk hosts edge modes whose
    near-zero energies are not a gap failure.
    """
    if geometry.majorana_count != 4:
        raise ComputationError("qwz needs majorana_count = 4")
    check_memory(geometry.dim_K)
    params = {"u": float(u)}
    _check_gapped("qwz", params)
    K = _real_space_K(geometry, *_qwz_blocks(float(u)))
    h = QuadraticHamiltonian(K, geometry, "qwz", params)
    h.validate()
    return h


def build_pip(mu: float, delta: float, geometry: LatticeGeometry) -> QuadraticHamiltonian:
    """Spinless p-wave paired model (one complex mode per site, majorana_count 2)."""
    if geometry.majorana_count != 2:
        raise ComputationError("pip needs majorana_count = 2")
    check_memory(geometry.dim_K)
    params = {"mu": float(mu), "delta": float(delta)}
    _check_gapped("pip", params)
    K = _real_space_K(geometry, *_pip_blocks(float(mu), float(delta)))
    h = QuadraticHamiltonian(K, geometry, "pip", params)
    h.validate()
    return h


def build_trivial(geometry: LatticeGeometry) -> QuadraticHamiltonian:
    """Decoupled on-site modes at unit energy; spectrum exactly {±1}."""
    check_memory(geometry.dim_K)
    n_orb = geometry.majorana_count // 2
    block = np.kron(np.eye(n_orb), np.array([[0, 1j], [-1j, 0]]))
    K = np.kron(np.eye(len(geometry.sites)), block)
    h = QuadraticHamiltonian(K, geometry, "trivial", {})
    h.validate()
    return h


def stack_copies(h: QuadraticHamiltonian, copies: int) -> QuadraticHamiltonian:
    """N identical copies; index order (site, majorana index, copy), copy fastest,
    so the matrix is kron(H, I_N) and copy-space charges lift as Kronecker factors.
    The result keeps the factors (H's block and the copy count)."""
    if copies < 1:
        raise ComputationError("copies must be >= 1")
    if copies == 1:
        return h
    geom = h.geometry.with_majorana_count(h.geometry.majorana_count * copies)
    out = QuadraticHamiltonian(h.block, geom, f"stack{copies}x({h.family_tag})",
                               dict(h.parameters, copies=copies), h.copies * copies)
    out.validate()
    return out


def tknn_chern(family_tag: str, parameters: dict, kgrid: int = 200) -> int:
    """Momentum-space Chern number of the negative-energy bands via the
    lattice plaquette field-strength algorithm; exact integer output.

    Orientation is the package convention anchor: qwz at u = 1 returns +1.
    """
    if kgrid < 50:
        raise ConfigError("kgrid must be >= 50")
    H = _bloch(family_tag, parameters, kgrid)
    ev, V = np.linalg.eigh(H)
    _check_gapped(family_tag, parameters, ev)
    nocc = H.shape[-1] // 2
    V = V[..., :nocc]
    ip = np.roll(np.arange(kgrid), -1)
    # plaquette link product around each square, counterclockwise
    def link(Va, Vb):
        ov = np.einsum('ijal,ijam->ijlm', Va.conj(), Vb)
        if nocc == 1:
            return ov[:, :, 0, 0]
        return np.linalg.det(ov)
    u1 = link(V, V[ip, :])
    u2 = link(V[ip, :], V[ip][:, ip])
    u3 = link(V[ip][:, ip], V[:, ip])
    u4 = link(V[:, ip], V)
    total = float(np.sum(np.angle(u1 * u2 * u3 * u4))) / (2 * np.pi)
    c = int(np.rint(total))
    if abs(total - c) > 1e-6:
        raise ComputationError("gapless parameters")
    return c
