"""Numerical spectral toolkit for the Swanson oscillator.

Classifies the (omega, alpha, beta) parameter space of the non-Hermitian
quadratic Hamiltonian, builds the generalized eigenfunctions and spectra of
the operator pair (H, H_c) in every region and boundary stratum, verifies the
biorthogonal/complete structure by quadrature, and exposes matrix elements,
time evolution, resonance scans, and exceptional-point limit sweeps.

``import swanson`` loads no module yet: each module below is imported on its
first use, and so, on the first read of any public name, is the whole library,
numpy with it.  The package then drops its module ``__getattr__``, because
CPython does not specialize attribute reads of a module that has one, and each
``swanson.<name>`` read would stay some 20-60 ns slower.
"""

import importlib

# the public names, by the module that defines them
_EXPORTS = {
    "core": ("DEFAULT_TOL", "DerivedQuantities", "ModelParams", "RegionLabel", "SurfaceRow",
             "classify", "derive", "surface_grid"),
    "errors": ("DeltaDerivNotEvaluableError", "NonConvergentError", "PoleError", "RegionError",
               "SingularParameterError", "SwansonError"),
    "specfun": ("QuadratureRule", "gauss_hermite", "hermite", "log_gamma",
                "parabolic_cylinder_d", "recip_gamma"),
    "eigensystems": ("CylinderState", "DeltaDeriv", "EigenstateSpec", "GaussPoly",
                     "PlaneWaveGauss", "apply_hamiltonian", "apply_oscillator",
                     "conjugate_function", "discrete_states", "ep_states", "evaluate",
                     "free_particle_states"),
    "pairing": ("GramReport", "gram", "metric_pair", "pair", "reconstruct"),
    "continuum": ("PoleScanReport", "continuum_norm_constant", "continuum_state",
                  "delta_normalization_probe", "pole_scan", "resonant_expansion",
                  "stripped_discrete_function"),
    "dynamics": ("ObservableKind", "StateVector", "apply_observable", "evolve_expectation",
                 "evolve_sector", "make_state", "matrix_element", "metric_norm"),
    "ep_analysis": ("FlowEntry", "LimitSweepReport", "ep_spectrum_flow",
                    "sweep_to_boundary_i_iii", "sweep_to_ep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name or a module of the table, imported on first use (PEP 562)."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")    # binds it here as well
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        mod = importlib.import_module(f"{__name__}.{module}")
        globals().update((public, getattr(mod, public)) for public in names)
    del globals()["__getattr__"]     # every name is bound: nothing is left to look up
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
