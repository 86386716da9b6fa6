"""The one stratum guard: every entry point that serves only some strata raises
RegionError "<entry> requires <strata>, got <stratum>", and each decides its
stratum once, from one classify and one derive."""

import sys
from collections import Counter

import numpy as np
import pytest

import conftest as pts
from swanson import (
    GaussPoly,
    ObservableKind,
    RegionError,
    continuum_norm_constant,
    continuum_state,
    core,
    delta_normalization_probe,
    ep_spectrum_flow,
    ep_states,
    evolve_expectation,
    evolve_sector,
    free_particle_states,
    gram,
    make_state,
    matrix_element,
    metric_norm,
    pole_scan,
    reconstruct,
    resonant_expansion,
    stripped_discrete_function,
    sweep_to_boundary_i_iii,
    sweep_to_ep,
)

P1, P2 = pts.REGION_I_POINTS[0], pts.REGION_II_POINT
GAUSSIAN = GaussPoly(gauss=-2.0, coeffs=(1.0,), norm=1.0)
BARRIER = "Region II or Region IV"
REAL = "Region I or Region III"
OMEGA_ZERO = "Boundary I-II or Boundary III-IV"

GUARDED = [
    (lambda: continuum_state(P1, 1.0), f"continuum_state requires {BARRIER}, got Region I"),
    (lambda: continuum_norm_constant(P1), f"continuum_norm_constant requires {BARRIER}, got Region I"),
    (lambda: pole_scan(P1, 3), f"pole_scan requires {BARRIER}, got Region I"),
    (lambda: resonant_expansion(P1, GAUSSIAN, 3),
     f"resonant_expansion requires {BARRIER}, got Region I"),
    (lambda: delta_normalization_probe(P1, 0.0, 0.346),
     f"delta_normalization_probe requires {BARRIER}, got Region I"),
    (lambda: stripped_discrete_function(P1, 2, "+"),
     f"stripped_discrete_function requires {BARRIER}, got Region I"),
    (lambda: make_state(P2, [1.0]), f"make_state requires {REAL}, got Region II"),
    (lambda: matrix_element(ObservableKind.X, 1, 0, P2),
     f"matrix_element requires {REAL}, got Region II"),
    (lambda: evolve_expectation(make_state(P1, [1.0, 0.5]), ObservableKind.X, P2, 0.5),
     f"evolve_expectation requires {REAL}, got Region II"),
    (lambda: metric_norm(make_state(P1, [1.0]), pts.BOUNDARY_I_III_POINT),
     f"metric_norm requires {REAL}, got Boundary I-III"),
    (lambda: evolve_sector(P1, [1.0], [], 0.5, np.zeros(3)),
     f"evolve_sector requires {BARRIER}, got Region I"),
    (lambda: reconstruct(P2, GAUSSIAN, 4), f"reconstruct requires {REAL}, got Region II"),
    (lambda: gram(P2, 4, "metric"), f"gram(which='metric') requires {REAL}, got Region II"),
    (lambda: gram(pts.BOUNDARY_I_III_POINT, 4, "metric"),
     f"gram(which='metric') requires {REAL}, got Boundary I-III"),
    (lambda: ep_states(P1, 1.0, 0.0, 1.0, 0.0), f"ep_states requires {OMEGA_ZERO}, got Region I"),
    (lambda: free_particle_states(P1, 1.0, 1.0, 0.0),
     f"free_particle_states requires {OMEGA_ZERO}, got Region I"),
    # omega = 1, beta = 0.2 puts the side-I points of the EP sweep in Region III
    (lambda: sweep_to_ep(1.0, 0.2, 2, "I", [0.1]),
     "sweep_to_ep at eps=0.1 requires Region I, got Region III"),
    # eps(G) ~ 0.5/G falls inside the tolerance of the boundary itself
    (lambda: sweep_to_boundary_i_iii(0.75, 0.25, 2, "plus", [1e13]),
     "sweep_to_boundary_i_iii at G=1e+13 requires Region I, got Boundary I-III"),
    (lambda: ep_spectrum_flow(1.0, 0.2, 2, [1e-9]),
     "ep_spectrum_flow at eps=1e-09 requires Region I, Region II, Region III or Region IV, "
     "got Boundary III-IV"),
]


@pytest.mark.parametrize("call,message", GUARDED, ids=[m.split(" requires")[0] for _, m in GUARDED])
def test_each_entry_point_names_itself_and_the_strata_it_serves(call, message):
    with pytest.raises(RegionError) as info:
        call()
    assert str(info.value) == message


def test_the_guard_returns_the_label_it_decided():
    assert core._require_stratum(P2, core.BARRIER, "x") is core.RegionLabel.REGION_II
    # a label is taken as decided: no second classify
    label = core.RegionLabel.REGION_III
    assert core._require_stratum(label, core.REAL_SPECTRUM, "x") is label
    with pytest.raises(RegionError, match="^x requires Boundary I-III, got Region III$"):
        core._require_stratum(label, (core.RegionLabel.BOUNDARY_I_III,), "x")


@pytest.fixture
def calls(monkeypatch):
    """Counts of classify and derive, patched in every swanson namespace that holds them."""
    counts = Counter()
    for name in ("classify", "derive"):
        original = getattr(core, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "swanson" or mod_name.startswith("swanson.")) \
                    and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


def _counted(calls, call):
    calls.clear()
    call()
    return calls["classify"], calls["derive"]


@pytest.mark.parametrize("kind", ["phi", "eta", "phi_tilde", "psi_bar"])
def test_continuum_state_classifies_and_derives_once(calls, kind):
    assert _counted(calls, lambda: continuum_state(P2, 1.3, "-", kind)) == (1, 1)


@pytest.mark.parametrize("n_max", [0, 5, 40])
@pytest.mark.parametrize("sector,branch", [("minus", "-"), ("plus", "+")])
def test_resonant_expansion_classifies_and_derives_once(calls, n_max, sector, branch):
    target = stripped_discrete_function(P2, 0, branch)
    assert _counted(calls, lambda: resonant_expansion(P2, target, n_max, sector)) == (1, 1)


def test_metric_gram_derives_once_for_the_whole_block(calls):
    # discrete_states classifies and derives; the metric dressing derives once more
    assert _counted(calls, lambda: gram(P1, 8, "metric")) == (1, 2)


@pytest.mark.parametrize("center", [None, 4.0])
def test_delta_probe_classifies_and_derives_once(calls, center):
    assert _counted(calls, lambda: delta_normalization_probe(P2, 0.0, 0.346, center)) == (1, 1)
