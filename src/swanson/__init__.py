"""Numerical spectral toolkit for the Swanson oscillator.

Classifies the (omega, alpha, beta) parameter space of the non-Hermitian
quadratic Hamiltonian, builds the generalized eigenfunctions and spectra of
the operator pair (H, H_c) in every region and boundary stratum, verifies the
biorthogonal/complete structure by quadrature, and exposes matrix elements,
time evolution, resonance scans, and exceptional-point limit sweeps.
"""

from .core import (
    DEFAULT_TOL,
    DerivedQuantities,
    ModelParams,
    RegionLabel,
    SurfaceRow,
    classify,
    derive,
    surface_grid,
)
from .errors import (
    DeltaDerivNotEvaluableError,
    NonConvergentError,
    PoleError,
    RegionError,
    SingularParameterError,
    SwansonError,
)
from .specfun import (
    QuadratureRule,
    gauss_hermite,
    hermite,
    log_gamma,
    parabolic_cylinder_d,
    recip_gamma,
)
from .eigensystems import (
    CylinderState,
    DeltaDeriv,
    EigenstateSpec,
    GaussPoly,
    PlaneWaveGauss,
    apply_hamiltonian,
    apply_oscillator,
    conjugate_function,
    discrete_states,
    ep_states,
    evaluate,
    free_particle_states,
)
from .pairing import (
    DirectGaussHermite,
    DistributionalExact,
    GramReport,
    RotatedContour,
    gram,
    metric_pair,
    pair,
    reconstruct,
)
from .continuum import (
    PoleScanReport,
    continuum_norm_constant,
    continuum_state,
    delta_normalization_probe,
    pole_scan,
    resonant_expansion,
    stripped_discrete_function,
)
from .dynamics import (
    ObservableKind,
    StateVector,
    apply_observable,
    evolve_expectation,
    evolve_sector,
    make_state,
    matrix_element,
    metric_norm,
)
from .ep_analysis import (
    FlowEntry,
    LimitSweepReport,
    ep_spectrum_flow,
    sweep_to_boundary_i_iii,
    sweep_to_ep,
)

__version__ = "0.1.0"
