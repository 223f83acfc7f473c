import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (ComputationError, ConfigError, build_disk_lattice, build_pip,
                      build_qwz, build_trivial, models, stack_copies, tknn_chern)
from artifact.geometry import DEFAULT_APEX_OFFSET
from artifact.models import (QuadraticHamiltonian, _bloch, _check_gapped, _pip_blocks,
                             _plaquette_phases, _qwz_blocks, _real_space_blocks)
from artifact.quasifree import _particle_hole_half
from dense_oracle import (bloch_matrices, dense_plaquette_phases, dense_real_space_K,
                          dense_tknn_chern, full_width_particle_hole_half,
                          full_width_real_space_blocks)
from region_helpers import site_projector


@pytest.fixture(scope="module")
def disk4():
    return build_disk_lattice("square", 4.0, majorana_count=4)


@pytest.fixture(scope="module")
def disk2():
    return build_disk_lattice("square", 4.0, majorana_count=2)


def test_qwz_selfdual_structure(disk4):
    h = build_qwz(1.0, disk4)
    H = h.matrix
    assert float(np.max(np.abs(H - H.conj().T))) <= 1e-12
    # JHJ = -H means the matrix is purely imaginary entrywise
    assert float(np.max(np.abs(H.real))) <= 1e-12


@pytest.mark.parametrize("build", [
    lambda g4, g2: build_qwz(1.0, g4),
    lambda g4, g2: build_pip(-1.0, 0.5, g2),
    lambda g4, g2: build_trivial(g2),
])
def test_spectra_come_in_plus_minus_pairs(disk4, disk2, build):
    ev = np.linalg.eigvalsh(build(disk4, disk2).matrix)  # ascending
    assert float(np.max(np.abs(ev + ev[::-1]))) <= 1e-9


def test_far_corner_symmetric_part_refused():
    # the constructor checks |A + A^T| on the dense input; entries far outside
    # the stencil must be seen there and widen the envelope, not slip past it
    disk = build_disk_lattice("square", 6.0, majorana_count=4)  # several blocks
    A = build_qwz(1.0, disk).dense()
    for corners in ((1e-6, 0.0), (0.0, 1e-6), (1e-6, 1e-6)):  # one-sided, symmetric
        A[0, -1], A[-1, 0] = corners
        with pytest.raises(ComputationError, match="not Hermitian"):
            QuadraticHamiltonian(A, disk)
    A[-1, 0] = -1e-6 + 1e-13  # within 1e-12: accepted, made exactly antisymmetric
    B = QuadraticHamiltonian(A, disk).dense()
    assert np.array_equal(B, -B.T)
    assert B[0, -1] == pytest.approx(1e-6 - 5e-14, abs=1e-20)


def test_trivial_model_is_onsite(disk2):
    h = build_trivial(disk2)
    ev = np.abs(np.linalg.eigvalsh(h.matrix))
    assert ev.min() == pytest.approx(1.0, abs=1e-12)
    assert ev.max() == pytest.approx(1.0, abs=1e-12)
    region = site_projector([0, 3, 7], disk2)
    comm = h.matrix @ region - region @ h.matrix
    assert float(np.max(np.abs(comm))) == 0.0


@pytest.mark.parametrize("majoranas", [2, 4])
def test_trivial_block_is_the_onsite_kronecker_form(majoranas):
    # the bond-scatter assembly of the trivial family against its closed form
    g = build_disk_lattice("square", 4.0, majorana_count=majoranas)
    h = build_trivial(g)
    n = len(g.sites) * majoranas // 2
    assert np.array_equal(h.dense(), np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]]))
    assert h.bulk_gap == 1.0


@pytest.mark.parametrize("u", [0.0, 2.0, -2.0])
def test_qwz_gap_closings_rejected(disk4, u):
    # the k-grid contains every Dirac point, so the certificate itself fails
    with pytest.raises(ComputationError, match=r"gapless parameters: bulk gap \S+ < 1e-6"):
        build_qwz(u, disk4)


def test_pip_gapless_without_pairing(disk2):
    with pytest.raises(ComputationError, match="gapless parameters"):
        build_pip(-1.0, 0.0, disk2)


def test_pip_strong_pairing_builds(disk2):
    build_pip(-5.0, 0.5, disk2)


def test_majorana_count_requirements(disk4, disk2):
    with pytest.raises(ComputationError):
        build_qwz(1.0, disk2)
    with pytest.raises(ComputationError):
        build_pip(-1.0, 0.5, disk4)


@pytest.mark.parametrize("family, params", [("qwz", {"u": 1.3}),
                                             ("pip", {"mu": -1.0, "delta": 0.5})],
                         ids=["qwz", "pip"])
def test_bloch_grid_matches_pointwise(family, params):
    kgrid = 7
    ks = 2 * np.pi * np.arange(kgrid) / kgrid
    grid = _bloch(family, params, kgrid)
    assert grid.shape == (3, kgrid, kgrid)
    for i, kx in enumerate(ks):
        for j, ky in enumerate(ks):
            if family == "qwz":
                want = [np.sin(kx), np.sin(ky), params["u"] + np.cos(kx) + np.cos(ky)]
            else:
                want = [params["delta"] * np.sin(kx), params["delta"] * np.sin(ky),
                        -2.0 * (np.cos(kx) + np.cos(ky)) - params["mu"]]
            assert np.array_equal(grid[:, i, j], want)


def test_tknn_integers():
    assert tknn_chern("qwz", {"u": 1.0}, kgrid=60) == 1
    assert tknn_chern("qwz", {"u": 3.0}, kgrid=60) == 0
    assert tknn_chern("pip", {"mu": -1.0, "delta": 0.5}, kgrid=60) == 1
    assert isinstance(tknn_chern("qwz", {"u": -1.0}, kgrid=60), int)


@pytest.mark.parametrize("u", [0.5, 1.0, 1.5])
def test_tknn_sign_flips_with_mass(u):
    assert tknn_chern("qwz", {"u": -u}, kgrid=60) == -tknn_chern("qwz", {"u": u}, kgrid=60)


@pytest.mark.parametrize("kgrid", [200, 800])
def test_tknn_peak_stays_below_its_estimate(kgrid):
    # the plaquette phases are summed over strips of rows, so the Bloch
    # vectors d(k) set the peak: 4.02 and 4.00 kgrid x kgrid arrays measured
    # (24.0 with the whole grid's phases at once)
    tracemalloc.start()
    try:
        assert tknn_chern("qwz", {"u": 1.0}, kgrid) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.1 * 8 * kgrid**2 <= models._TKNN_WORKING_ARRAYS * 8 * kgrid**2


def test_tknn_small_grid_rejected():
    with pytest.raises(ConfigError):
        tknn_chern("qwz", {"u": 1.0}, kgrid=10)
    for kgrid in (200.5, 120.0):  # refused, never truncated
        with pytest.raises(ComputationError, match="kgrid must be an integer"):
            tknn_chern("qwz", {"u": 1.0}, kgrid)


def test_tknn_gapless_rejected():
    with pytest.raises(ComputationError, match="gapless parameters"):
        tknn_chern("qwz", {"u": 2.0}, kgrid=60)


@pytest.mark.parametrize("family, params", [("qwz", {"u": 2.0}), ("qwz", {"u": -2.0}),
                                             ("pip", {"mu": -4.0, "delta": 0.5}),
                                             ("pip", {"mu": 0.0, "delta": 0.5})])
def test_odd_grid_still_sees_closings_at_pi(family, params):
    # an odd kgrid has no k = pi; the certificate adds the points {0, pi}^2
    ks = 2 * np.pi * np.arange(51) / 51
    assert np.pi not in ks
    with pytest.raises(ComputationError, match=r"gapless parameters: bulk gap \S+ < 1e-6"):
        tknn_chern(family, params, kgrid=51)
    with pytest.raises(ComputationError, match="bulk gap"):
        _check_gapped(family, params, ev=np.ones(4))


def test_nan_parameters_are_refused_by_the_gap_certificate():
    # a NaN gap fails every comparison, so it must be refused, not certified
    with pytest.raises(ComputationError, match="not finite: bulk gap nan"):
        _check_gapped("qwz", {"u": np.nan})
    with pytest.raises(ComputationError, match="not finite: bulk gap nan"):
        _check_gapped("qwz", {"u": 1.0}, ev=np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ComputationError, match="not finite: bulk gap nan"):
        build_qwz(np.nan, build_disk_lattice("square", 3.0, majorana_count=4))
    assert _check_gapped("qwz", {"u": 1.0}, ev=np.array([1.0, 2.0])) == 1.0


#: parameters on both sides of every gap closing, some within 0.01 of one
ORACLE_CASES = ([("qwz", {"u": u}) for u in (3.0, -3.0, 1.0, -1.0, 0.5, -0.5, 1.8, -1.99,
                                             1.999, 0.01, -0.003)]
                + [("pip", {"mu": mu, "delta": delta}) for mu in (-5.0, 1.0, -1.0, -3.5, 3.99)
                   for delta in (0.5, 0.05)])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ComputationError, ConfigError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("family, params", ORACLE_CASES,
                         ids=[f"{f}-{'-'.join(map(str, p.values()))}" for f, p in ORACLE_CASES])
def test_closed_form_tknn_matches_dense_oracle(family, params):
    # the same integer or the same refusal as eigh + link products, on even
    # and odd grids
    for kgrid in (50, 51, 60, 200):
        assert (_outcome(tknn_chern, family, params, kgrid)
                == _outcome(dense_tknn_chern, family, params, kgrid)), kgrid


def _random_bloch_grid(seed: int, kgrid: int = 8) -> np.ndarray:
    # neighbouring momenta far apart on the Bloch sphere: plaquette phases
    # near +-pi, whose two triangle halves sum beyond (-pi, pi]
    return np.random.default_rng(seed).standard_normal((3, kgrid, kgrid))


def test_plaquette_phases_match_link_products():
    grids = ([_bloch(family, params, 64) for family, params in ORACLE_CASES]
             + [_random_bloch_grid(seed) for seed in range(4)])
    for d in grids:
        want, _ = dense_plaquette_phases(bloch_matrices(d))
        got = _plaquette_phases(d)
        assert np.all((got > -np.pi) & (got <= np.pi))
        diff = np.angle(np.exp(1j * (got - want)))
        assert float(np.max(np.abs(diff))) <= 1e-12


@pytest.mark.parametrize("kgrid, step", [(60, 7), (51, 2), (50, 50)])
def test_strip_phases_are_the_whole_grid_phases(kgrid, step):
    # tknn_chern sums strips of rows; the last strip wraps to row 0
    d = _bloch("pip", {"mu": -1.0, "delta": 0.5}, kgrid)
    strips = [_plaquette_phases(d, range(i0, min(i0 + step, kgrid)))
              for i0 in range(0, kgrid, step)]
    assert np.array_equal(np.concatenate(strips, axis=0), _plaquette_phases(d))


#: components of d: zero or at least 1e-100 in magnitude, inside the range
#: where the squares summed by |d| neither underflow nor overflow
_entries = st.one_of(st.just(0.0), st.floats(1e-100, 1e3), st.floats(-1e3, -1e-100))


@given(st.lists(st.tuples(_entries, _entries, _entries), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_closed_form_bands_match_eigvalsh(entries):
    # the bands -+|d| of d . sigma, which the gap certificate reads
    d = np.array(entries, dtype=float).T
    want = np.linalg.eigvalsh(bloch_matrices(d))
    norm = np.max(np.abs(want), axis=-1)
    r = np.linalg.norm(d, axis=0)
    got = np.stack([-r, r]).T
    assert np.all(np.abs(got - want) <= 1e-14 * norm[:, None])


@given(st.integers(0, 49), st.integers(0, 49))
@settings(max_examples=25, deadline=None)
def test_band_touching_refused_loudly(i, j):
    # d = 0 at one grid momentum: the bands touch at zero energy, and the
    # gap certificate refuses before any plaquette phase is formed
    d = _bloch("qwz", {"u": 1.0}, 50)
    d[:, i, j] = 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_bloch", lambda *args: d)
        with pytest.raises(ComputationError, match=r"gapless parameters: bulk gap 0 < 1e-6"):
            tknn_chern("qwz", {"u": 1.0}, kgrid=50)


def test_non_finite_bloch_grid_refused(monkeypatch):
    d = _bloch("qwz", {"u": 1.0}, 50)
    d[0, 3, 4] = np.nan
    monkeypatch.setattr(models, "_bloch", lambda *args: d)
    with pytest.raises(ComputationError, match="not finite"):
        tknn_chern("qwz", {"u": 1.0}, kgrid=50)


def test_bands_and_builders_run_without_lapack_eigensolvers(monkeypatch, disk4, disk2):
    def refuse(*args, **kwargs):
        raise AssertionError("batched LAPACK eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert tknn_chern("qwz", {"u": 1.0}) == 1
    assert tknn_chern("pip", {"mu": -1.0, "delta": 0.5}) == 1
    assert build_qwz(1.0, disk4).bulk_gap > 0
    assert build_pip(-1.0, 0.5, disk2).bulk_gap > 0


def test_stack_copies_is_kron(disk2):
    h = build_pip(-1.0, 0.5, disk2)
    h3 = stack_copies(h, 3)
    assert h3.geometry.majorana_count == 6
    assert np.allclose(h3.matrix, np.kron(h.matrix, np.eye(3)))
    assert stack_copies(h, 1) is h


def test_stack_copies_validates_count(disk2):
    with pytest.raises(ComputationError):
        stack_copies(build_trivial(disk2), 0)


def test_stack_copies_refuses_a_non_integer_count(disk2):
    # a count of 2.5 once gave a stack whose chern_number read 2.5 nu
    h = build_trivial(disk2)
    for count in (2.5, 3.0, "3"):
        with pytest.raises(ComputationError, match="copies must be an integer"):
            stack_copies(h, count)
    h3 = stack_copies(h, np.int64(3))
    assert h3.copies == 3 and type(h3.copies) is int


@pytest.mark.parametrize("radius, apex", [(4, DEFAULT_APEX_OFFSET), (6, DEFAULT_APEX_OFFSET),
                                          (8, DEFAULT_APEX_OFFSET), (12, DEFAULT_APEX_OFFSET),
                                          (8, (2.2371, -1.8871))],
                         ids=["4", "6", "8", "12", "8-shifted"])
@pytest.mark.parametrize("family, blocks", [("qwz", _qwz_blocks(1.0)),
                                            ("qwz", _qwz_blocks(-1.5)),
                                            ("pip", _pip_blocks(-1.0, 0.5))])
def test_real_assembly_matches_dense_oracle(family, blocks, radius, apex):
    geom = build_disk_lattice("square", float(radius), apex,
                              majorana_count=4 if family == "qwz" else 2)
    # the builders' assembly, read back dense
    A = QuadraticHamiltonian._of_blocks(tuple(_real_space_blocks(geom, *blocks)),
                                        geom.dim_K, geom).dense()
    assert A.shape == (geom.dim_K, geom.dim_K)
    assert np.array_equal(1j * A, dense_real_space_K(geom, *blocks))


def _same_blocks(got, want):
    """The two envelopes have the same spans (Python ints) and blocks, byte
    for byte."""
    assert [block[:4] for block in got] == [block[:4] for block in want]
    assert all(type(end) is int for block in got for end in block[:4])
    for *_, block in got:
        assert block.base is None and block.flags.c_contiguous
    assert [(b.dtype, b.shape, b.tobytes()) for *_, b in got] == \
        [(b.dtype, b.shape, b.tobytes()) for *_, b in want]


#: (Majoranas per site, on-site, hopping and pairing blocks, apex offset, copies)
NARROW_CASES = {
    "qwz_u1": (4, _qwz_blocks(1.0), DEFAULT_APEX_OFFSET, 1),
    "qwz_u-1.5": (4, _qwz_blocks(-1.5), DEFAULT_APEX_OFFSET, 1),
    "qwz_shifted_apex": (4, _qwz_blocks(1.0), (2.2371, -1.8871), 1),
    "qwz_stack3": (4, _qwz_blocks(1.0), DEFAULT_APEX_OFFSET, 3),
    "pip_mu-1": (2, _pip_blocks(-1.0, 0.5), DEFAULT_APEX_OFFSET, 1),
    "pip_mu0": (2, _pip_blocks(0.0, 0.5), DEFAULT_APEX_OFFSET, 1),  # a zero on-site fiber
    "trivial2": (2, (np.eye(1), {}, {}), DEFAULT_APEX_OFFSET, 1),
    "trivial6": (6, (np.eye(3), {}, {}), DEFAULT_APEX_OFFSET, 1),
}


@pytest.mark.parametrize("radius", [4.0, 6.5, 12.0])
@pytest.mark.parametrize("case", sorted(NARROW_CASES))
def test_narrow_slabs_give_the_full_width_blocks(case, radius):
    # each slab of A is zeroed over the sites its bonds reach, and each slab
    # of the half over its pair of blocks' folded columns; the full-width
    # assembly and fold (dense_oracle) give the same spans and bytes, and
    # the same refusal of the half (pip's pairing; trivial's fibers are not
    # in T's pattern)
    majoranas, blocks, apex, copies = NARROW_CASES[case]
    geom = build_disk_lattice("square", radius, apex, majorana_count=majoranas)
    envelope = tuple(_real_space_blocks(geom, *blocks))
    _same_blocks(envelope, full_width_real_space_blocks(geom, *blocks))
    h = stack_copies(QuadraticHamiltonian._of_blocks(envelope, geom.dim_K, geom), copies)
    half, want = _particle_hole_half(h), full_width_particle_hole_half(h)
    assert (half is None) == (want is None) != case.startswith("qwz")
    if half is not None:
        _same_blocks(half.blocks, want)


def test_build_holds_no_full_width_slab():
    # qwz R=16 (dim 3216): a slab of A is zeroed over the sites its bonds
    # reach, a few lattice rows, so the build's traced peak above its own
    # blocks stays below one full-width slab of 128 x dim floats: 0.12
    # measured, 1.96 when each slab spanned every column
    geom = build_disk_lattice("square", 16.0, majorana_count=4)
    tracemalloc.start()
    try:
        h = build_qwz(1.0, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(block.nbytes for *_, block in h.blocks)
    assert peak - held < models._ENVELOPE_ROWS * h.dim * 8


def test_build_peak_stays_below_projection_estimate():
    # the memory guard runs before the build on the projection's estimate of
    # 6 real dim x dim arrays, so the build itself must need less. It holds
    # A's envelope blocks (0.28 arrays at dim 804) and one slab of rows being
    # assembled over the columns its bonds reach, 0.33 arrays measured, so
    # the bound also keeps every dense dim x dim array out, a dense A
    # included
    geom = build_disk_lattice("square", 8.0, majorana_count=4)
    tracemalloc.start()
    try:
        build_qwz(1.0, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 8 * geom.dim_K**2


@pytest.mark.parametrize("family, majoranas", [("qwz", 4), ("pip", 2), ("trivial", 2),
                                               ("trivial", 6), ("qwz_stack3", 4)])
def test_dense_on_read_is_the_assembled_A(family, majoranas):
    # the builders keep only A's row envelope blocks, assembled slab by slab
    # (six Majoranas a site do not divide a slab's 128 rows); read back dense
    # they are the dense assembly entry for entry, and the constructor's
    # checks take that A to the same blocks (a symmetric part would change
    # or refuse them)
    geom = build_disk_lattice("square", 6.0, majorana_count=majoranas)
    if family == "pip":
        h, blocks = build_pip(-1.0, 0.5, geom), _pip_blocks(-1.0, 0.5)
    elif family == "trivial":
        h, blocks = build_trivial(geom), (np.eye(majoranas // 2), {}, {})
    else:
        h, blocks = build_qwz(1.0, geom), _qwz_blocks(1.0)
    if family == "qwz_stack3":
        h = stack_copies(h, 3)
        assert np.array_equal(h.matrix, 1j * np.kron(h.dense(), np.eye(3)))
    A = dense_real_space_K(geom, *blocks).imag
    assert np.array_equal(h.dense(), A)
    for (*span, block), (*again, block_again) in zip(
            h.blocks, QuadraticHamiltonian(A, geom).blocks, strict=True):
        assert span == again and np.array_equal(block, block_again)


def test_hamiltonian_holds_no_dense_array():
    # qwz at radius 12 (dim 1816): the blocks own their data (no view keeps a
    # dense A alive) and hold under a fifth of dim^2 floats; a stack shares them
    h = build_qwz(1.0, build_disk_lattice("square", 12.0, majorana_count=4))
    assert all(block.base is None for *_, block in h.blocks)
    assert sum(block.size for *_, block in h.blocks) <= 0.2 * h.dim**2
    assert stack_copies(h, 3).blocks is h.blocks
