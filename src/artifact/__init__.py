"""Finite-disk laboratory for topological indices of quadratic lattice models.

Build a disk geometry, a gapped model on it, and its ground projection; then
evaluate the real-space invariant, flux-response coefficients, exchange
phases, stacked-copy twist statistics, and parity indices, with exact
reference values and randomized self-tests alongside.
"""
from ._util import ArtifactError, ComputationError, ConfigError
from .geometry import (ConicalPartition, LatticeGeometry, build_disk_lattice,
                       make_good_partition, region_mask, windowed_site_ids)
from .models import (CONVENTION_TAG, QuadraticHamiltonian, build_pip, build_qwz,
                     build_trivial, stack_copies, tknn_chern)
from .quasifree import (BasisProjection, ground_projection, pfaffian_expectation,
                        random_covariance, wick_expectation)
from .symgen import (FluxGenerator, cyclic_charge, dress_charge, flux_unitary,
                     lift_charge, parity_charge)
from .invariants import (FreeFermionPrediction, chern_number, chern_number_with_residual,
                         cocycle_exponent, core_regions, exchange_phase_bch,
                         exchange_phase_closed, hall_sigma, hall_sigma_with_residual,
                         parity_indices, predicted_free_fermion, twist_statistics)

__version__ = "0.1.0"

__all__ = [
    "ArtifactError", "ComputationError", "ConfigError",
    "ConicalPartition", "LatticeGeometry",
    "build_disk_lattice", "make_good_partition", "region_mask", "windowed_site_ids",
    "CONVENTION_TAG", "QuadraticHamiltonian",
    "build_pip", "build_qwz", "build_trivial", "stack_copies", "tknn_chern",
    "BasisProjection", "ground_projection",
    "pfaffian_expectation", "random_covariance", "wick_expectation",
    "FluxGenerator", "cyclic_charge", "dress_charge",
    "flux_unitary", "lift_charge", "parity_charge",
    "FreeFermionPrediction",
    "chern_number", "chern_number_with_residual", "cocycle_exponent",
    "core_regions", "exchange_phase_bch", "exchange_phase_closed",
    "hall_sigma", "hall_sigma_with_residual", "parity_indices",
    "predicted_free_fermion", "twist_statistics",
    "__version__",
]
