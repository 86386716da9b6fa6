"""The one stratum guard: every entry point that serves only some strata raises
RegionError "<entry> requires <strata>, got <stratum>", and each decides its
stratum once, from one classify and one derive, and builds only the discrete
states it reads."""

import inspect
import sys
from collections import Counter

import numpy as np
import pytest

import conftest as pts
import swanson
from swanson import (
    GaussPoly,
    ObservableKind,
    RegionError,
    continuum_norm_constant,
    continuum_state,
    core,
    delta_normalization_probe,
    eigensystems,
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


def _replace_everywhere(monkeypatch, name, original, replacement):
    """replacement in place of original in every swanson namespace that holds it as name."""
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "swanson" or mod_name.startswith("swanson.")) \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


@pytest.fixture
def calls(monkeypatch):
    """Counts of classify and derive, patched in every swanson namespace that holds them."""
    counts = Counter()
    for name in ("classify", "derive"):
        original = getattr(core, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        _replace_everywhere(monkeypatch, name, original, counted)
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
    # the block is dressed with the similarity coefficient of the one derive
    assert _counted(calls, lambda: gram(P1, 8, "metric")) == (1, 1)


@pytest.mark.parametrize("center", [None, 4.0])
def test_delta_probe_classifies_and_derives_once(calls, center):
    assert _counted(calls, lambda: delta_normalization_probe(P2, 0.0, 0.346, center)) == (1, 1)


STATE = make_state(P1, [1.0, 0.5])
GRID = np.linspace(-3.0, 3.0, 7)

# (entry point, arguments, (classify calls, derive calls)): one row per public function
# that takes a ModelParams, plus the sweeps, which make one of each per swept point and
# one for the limit (the EP limit is ep_states, which classifies only)
ENTRY_POINT_CALLS = [
    ("classify", (P1,), (1, 0)),
    ("derive", (P1,), (0, 1)),
    ("evaluate", (GAUSSIAN, GRID, P1), (0, 0)),
    ("apply_hamiltonian", (P1, GAUSSIAN, GRID), (0, 0)),
    ("apply_oscillator", (P1, GAUSSIAN, GRID), (0, 1)),
    ("discrete_states", (P2, 5), (1, 1)),
    ("ep_states", (pts.BOUNDARY_I_II_POINT, 1.0, 0.0, 1.0, 0.0), (1, 0)),
    ("free_particle_states", (pts.BOUNDARY_I_II_POINT, 1.0, 1.0, 0.0), (1, 0)),
    ("pair", (GAUSSIAN, GAUSSIAN, P1), (0, 0)),
    ("metric_pair", (GAUSSIAN, GAUSSIAN, P1), (0, 1)),
    ("gram", (P2, 8), (1, 1)),
    ("reconstruct", (P1, GAUSSIAN, 8), (1, 1)),
    ("continuum_norm_constant", (P2,), (1, 1)),
    ("continuum_state", (P2, 1.3), (1, 1)),
    ("delta_normalization_probe", (P2, 0.0, 0.346), (1, 1)),
    ("pole_scan", (P2, 3), (1, 0)),
    ("resonant_expansion", (P2, GAUSSIAN, 5, "plus"), (1, 1)),
    ("stripped_discrete_function", (P2, 2, "+"), (1, 1)),
    ("make_state", (P1, [1.0, 0.5]), (1, 0)),
    ("matrix_element", (ObservableKind.X, 1, 0, P1), (1, 1)),
    ("apply_observable", (P1, GAUSSIAN, ObservableKind.P), (0, 1)),
    ("evolve_expectation", (STATE, ObservableKind.X, P1, 0.5), (1, 1)),
    ("metric_norm", (STATE, P1), (1, 0)),
    ("evolve_sector", (P2, [1.0, 0.5], [0.3, 0.0, 1.0], 0.5, GRID), (1, 1)),
    ("sweep_to_ep", (1.0, -0.2, 2, "I", [0.1, 0.01, 0.001]), (4, 3)),
    ("sweep_to_boundary_i_iii", (0.75, 0.25, 100, "plus", [10.0, 100.0, 1000.0]), (4, 4)),
    ("ep_spectrum_flow", (1.0, -0.2, 3, [0.1, 0.01, 0.001]), (6, 6)),
]


@pytest.mark.parametrize("name,args,counts", ENTRY_POINT_CALLS, ids=[r[0] for r in ENTRY_POINT_CALLS])
def test_each_entry_point_classifies_and_derives_once_a_point(calls, name, args, counts):
    # called through the package, so classify and derive themselves meet the spy
    assert _counted(calls, lambda: getattr(swanson, name)(*args)) == counts


def test_the_count_table_covers_every_entry_point_that_takes_params():
    takes_params = {name for name, fn in vars(swanson).items()
                    if inspect.isfunction(fn) and not name.startswith("_")
                    and any(arg.annotation in ("ModelParams", core.ModelParams)
                            for arg in inspect.signature(fn).parameters.values())}
    assert takes_params
    assert takes_params <= {name for name, _, _ in ENTRY_POINT_CALLS}


@pytest.fixture
def built(monkeypatch):
    """(branch, indices) of every call of the ladder builder, in every swanson namespace."""
    log = []
    original = eigensystems._ladder

    def spy(label, d, params, branch, ns):
        states = original(label, d, params, branch, ns)
        log.append((branch, [s.n for s in states]))
        return states

    _replace_everywhere(monkeypatch, "_ladder", original, spy)
    return log


def test_boundary_sweep_builds_one_state_per_point_and_the_limit(built):
    sweep_to_boundary_i_iii(0.75, 0.25, 100, "plus", [10.0, 100.0, 1000.0])
    assert built == [("+", [100])] + [(None, [100])] * 3


@pytest.mark.parametrize("side,branch", [("I", None), ("II", "+"), ("II", "-")])
def test_ep_sweep_builds_one_state_per_point(built, side, branch):
    sweep_to_ep(1.0, -0.2, 100, side, [0.1, 0.01, 0.001], branch or "+")
    assert built == [(branch, [100])] * 3


def test_evolve_sector_builds_the_states_it_has_coefficients_for(built):
    evolve_sector(P2, [1.0, 0.5], [0.3, 0.0, 1.0, 0.2, 0.1], 0.5, GRID)
    assert built == [("-", [0, 1]), ("+", [0, 1, 2, 3, 4])]


def test_stripped_state_is_one_rung_of_the_plus_ladder(built):
    # phi_n^- is the left partner of the similarity-stripped '+' state
    stripped_discrete_function(P2, 2, "-")
    assert built == [("+", [2])]


def test_resonant_expansion_builds_one_stripped_ladder(built):
    target = stripped_discrete_function(P2, 1, "-")
    built.clear()
    resonant_expansion(P2, target, 5, "minus")
    assert built == [("+", [0, 1, 2, 3, 4, 5])]


@pytest.mark.parametrize("which", ["right-left", "metric"])
def test_gram_builds_one_ladder_per_branch(built, which):
    gram(P1, 6, which)
    assert built == [(None, list(range(7)))]
    built.clear()
    if which == "right-left":
        gram(P2, 6, which)
        assert built == [("+", list(range(7))), ("-", list(range(7)))]
