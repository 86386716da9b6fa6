"""What the traced benchmark needs of the library.

bench/tracing.py replaces every name in its PUBLIC table by a timing wrapper,
looking each one up on its swanson module, and bench/worker.py reads the cache
counters of specfun.gauss_hermite.  A name missing from the library makes
every traced run fail while the plain run still passes, so the names are
checked here, with the attributes bench/jobs.py reads from library objects.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _public_table() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PUBLIC


@pytest.mark.parametrize("name", [f"{module}.{fn}" for module, fns in _public_table().items()
                                  for fn in fns])
def test_every_traced_name_resolves(name):
    module, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"swanson.{module}"), fn))


def test_gauss_hermite_keeps_its_cache_counters():
    from swanson import specfun

    info = specfun.gauss_hermite.cache_info()
    assert info.hits >= 0 and info.misses >= 0


_CONTINUUM_FIELDS = ("gauss", "nu", "arg_scale", "side", "conjugated", "norm")

# each class whose instances bench/jobs.py checks, with the attributes its checks read
_JOB_ATTRIBUTES = {
    "CylinderState": _CONTINUUM_FIELDS,     # against an mpmath form of the fields
    "StateVector": ("normalized", "coeffs"),
    "PlaneWaveGauss": ("k_wave",),
    "GaussPoly": ("gauss",),
    "EigenstateSpec": ("energy",),
    "GramReport": ("matrix", "max_offdiag", "max_diag_err"),
    "LimitSweepReport": ("distances", "energies"),
    "PoleScanReport": ("detected_poles",),
    "DerivedQuantities": ("sigma", "upsilon_coeff", "m_eff"),
    "SurfaceRow": ("omega_sq", "mass", "region"),
    "FlowEntry": ("eps", "n", "energy_side1", "energy_side2_plus"),
}


@pytest.fixture(scope="module")
def made():
    """One object of each class, from the call that makes it in bench/jobs.py."""
    import swanson as S

    omega_zero = S.ModelParams(1.0, -0.125, -2.0)
    return {
        "CylinderState": S.continuum_state(S.ModelParams(1.0, -2.0, -0.5), 0.3, "+", "phi"),
        "StateVector": S.make_state(S.ModelParams(1.0, 0.2, 0.1), [1.0, 0.5]),
        "PlaneWaveGauss": S.free_particle_states(omega_zero, 0.5, 1.0, 0.3).right_fn,
        "GaussPoly": S.ep_states(omega_zero, 1.0, 0.5, 1.0, 0.5).right_fn,
        "EigenstateSpec": S.discrete_states(S.ModelParams(1.0, 0.2, 0.1), 1)[0],
        "GramReport": S.gram(S.ModelParams(1.0, 0.2, 0.1), 2),
        "LimitSweepReport": S.sweep_to_ep(1.0, -2.0, 0, "I", [0.1, 0.01]),
        "PoleScanReport": S.pole_scan(S.ModelParams(1.0, -2.0, -0.5), 1),
        "DerivedQuantities": S.derive(S.ModelParams(1.0, 0.2, 0.1)),
        "SurfaceRow": S.surface_grid(1.0, 2)[0],
        "FlowEntry": S.ep_spectrum_flow(1.0, -2.0, 1, [0.01])[0],
    }


@pytest.mark.parametrize("attr", [f"{kind}.{a}" for kind, attrs in _JOB_ATTRIBUTES.items()
                                  for a in attrs])
def test_every_attribute_the_jobs_read_exists(attr, made):
    kind, name = attr.split(".")
    assert type(made[kind]).__name__ == kind
    assert hasattr(made[kind], name)
