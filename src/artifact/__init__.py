"""Finite-disk laboratory for topological indices of quadratic lattice models.

Build a disk geometry, a gapped model on it, and its ground projection; then
evaluate the real-space invariant, flux-response coefficients, exchange
phases, stacked-copy twist statistics, and parity indices, with exact
reference values and randomized self-tests alongside.

The public names are resolved on first use (PEP 562): `import artifact`
loads no submodule, so a command that imports `artifact.cli` compiles only
the modules it runs.
"""
import importlib

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("ArtifactError", "ComputationError", "ConfigError"), "_util"),
    **dict.fromkeys(("ConicalPartition", "LatticeGeometry", "build_disk_lattice",
                     "make_good_partition", "region_mask", "windowed_site_ids"), "geometry"),
    **dict.fromkeys(("CONVENTION_TAG", "QuadraticHamiltonian", "build_pip", "build_qwz",
                     "build_trivial", "stack_copies", "tknn_chern"), "models"),
    **dict.fromkeys(("BasisProjection", "ground_projection", "pfaffian_expectation",
                     "random_covariance", "wick_expectation"), "quasifree"),
    **dict.fromkeys(("FluxGenerator", "cyclic_charge", "dress_charge", "flux_unitary",
                     "lift_charge", "parity_charge"), "symgen"),
    **dict.fromkeys(("FreeFermionPrediction", "chern_number", "chern_number_with_residual",
                     "cocycle_exponent", "core_regions", "exchange_phase_bch",
                     "exchange_phase_closed", "hall_sigma", "hall_sigma_with_residual",
                     "parity_indices", "predicted_free_fermion", "twist_statistics"),
                    "invariants"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """The defining module's own object, read on every access, so a name
    rebound there (by a test or a tracer) is the one returned."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
