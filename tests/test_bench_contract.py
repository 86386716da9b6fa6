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


@pytest.mark.parametrize("attr", [f"CylinderState.{a}" for a in _CONTINUUM_FIELDS]
                         + ["StateVector.normalized"])
def test_every_attribute_the_jobs_read_exists(attr):
    # bench/jobs.py checks continuum states against an mpmath form of their fields
    # and reads the normalized flag of make_state
    from swanson import ModelParams, continuum_state, make_state

    made = {"CylinderState": continuum_state(ModelParams(1.0, -2.0, -0.5), 0.3, "+", "phi"),
            "StateVector": make_state(ModelParams(1.0, 0.2, 0.1), [1.0, 0.5])}
    kind, name = attr.split(".")
    assert type(made[kind]).__name__ == kind
    assert hasattr(made[kind], name)
