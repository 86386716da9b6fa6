"""The one stratum guard: every entry point that serves only some strata raises
RegionError "<entry> requires <strata>, got <stratum>", and each decides its
stratum once, from one classify and one derive, and builds only the discrete
states it reads.  The one index guard: every entry point that takes a ladder
index refuses one outside its domain with ValueError naming the argument, before
it classifies or builds a state."""

import inspect
import pickle
import sys
from collections import Counter

import numpy as np
import pytest

import conftest as pts
import swanson
from readme_cases import run_case
from swanson import (
    GaussPoly,
    ModelParams,
    ObservableKind,
    RegionError,
    cli,
    continuum,
    continuum_norm_constant,
    continuum_state,
    core,
    delta_normalization_probe,
    discrete_states,
    dynamics,
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
    pairing,
    pole_scan,
    reconstruct,
    resonant_expansion,
    specfun,
    stripped_discrete_function,
    surface_grid,
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


# (command line, (classify calls, derive calls)): a command classifies once for its own
# output, plus once for each library entry point it calls
CLI_CALLS = [
    # its Region I label, then reconstruct
    ("reconstruct --omega 1 --alpha 0.2 --beta 0.1 --nmax 40 --center 0.5 --width 1", (2, 1)),
    # its Region II label, two stripped_discrete_function, then resonant_expansion
    ("reconstruct --omega 1 --alpha -2 --beta -0.5 --sector minus --modes 0:1,3:2", (4, 3)),
    # its Region I label, then make_state, evolve_expectation and metric_norm
    ("evolve --omega 1 --alpha 0.2 --beta 0.1 --coeffs 1,1 --kind X --t-max 10", (4, 1)),
]


@pytest.mark.parametrize("line,counts", CLI_CALLS, ids=["reconstruct", "reconstruct-sector", "evolve"])
def test_each_command_classifies_once_plus_once_an_entry_point(calls, tmp_path, line, counts):
    calls.clear()
    code, _, err = run_case(cli.main, line.split() + ["-o", "out.csv"], tmp_path)
    assert code == 0, err
    assert (calls["classify"], calls["derive"]) == counts


def _public():
    """(name, object) of every public name of the package, each imported if need be: the
    names load on first use, so vars(swanson) holds only those used so far."""
    return [(name, getattr(swanson, name)) for name in swanson.__all__]


def test_the_count_table_covers_every_entry_point_that_takes_params():
    takes_params = {name for name, fn in _public()
                    if inspect.isfunction(fn)
                    and any(arg.annotation in ("ModelParams", core.ModelParams)
                            for arg in inspect.signature(fn).parameters.values())}
    assert takes_params
    assert takes_params <= {name for name, _, _ in ENTRY_POINT_CALLS}


@pytest.fixture
def built(monkeypatch):
    """(branch, indices) of every call of the ladder builder, in every swanson namespace: the
    states _ladder builds, and the rungs 0 ... top of each Rungs record a caller takes."""
    log = []
    original, original_rungs = eigensystems._ladder, eigensystems._rungs

    def spy(label, d, params, branch, ns):
        states = original(label, d, params, branch, ns)
        log.append((branch, [s.n for s in states]))
        return states

    def rungs_spy(label, d, params, branch, top):
        log.append((branch, list(range(top + 1))))
        return original_rungs(label, d, params, branch, top)

    _replace_everywhere(monkeypatch, "_ladder", original, spy)
    # the callers' namespaces only: _ladder reads the same sides inside eigensystems
    for mod in (continuum, dynamics, pairing):
        monkeypatch.setattr(mod, "_rungs", rungs_spy)
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


@pytest.mark.parametrize("params,which,error", [
    (ModelParams(1.0, 0.2, 0.1), "bogus", ValueError),
    (ModelParams(1.0, -2.0, -0.5), "metric", RegionError),
], ids=["which", "metric-stratum"])
def test_gram_refuses_which_before_any_state(built, params, which, error):
    with pytest.raises(error):
        gram(params, 100, which)
    assert built == []


@pytest.mark.parametrize("which", ["right-left", "metric"])
def test_gram_builds_one_ladder_per_branch(built, which):
    gram(P1, 6, which)
    assert built == [(None, list(range(7)))]
    built.clear()
    if which == "right-left":
        gram(P2, 6, which)
        assert built == [("+", list(range(7))), ("-", list(range(7)))]


# ---------------------------------------------------------------------------
# The one index guard: every entry point that takes a ladder index refuses one
# outside 0 ... top with ValueError naming the argument, before it classifies
# ---------------------------------------------------------------------------

def _sector(n):
    """evolve_sector with n + 1 plus-sector coefficients: its last index is n."""
    return evolve_sector(P2, [], [1.0] * (n + 1), 0.5, GRID)


B13 = pts.BOUNDARY_I_III_POINT

# (row id, call of the index, argument name, top or None, what follows the top in the
# message, (classify, derive) calls made before a top is refused): gram's top depends
# on its stratum (pairings by quadrature reach 115, the closed-form delta blocks of
# Boundary I-III the ladder's 300), so it is the one entry point that classifies first
INDEXED = [
    ("discrete_states", lambda n: discrete_states(P1, n), "n_max", 300, "", (0, 0)),
    ("gram[I]", lambda n: gram(P1, n), "n_max", 115, " outside Boundary I-III", (1, 1)),
    ("gram[I-III]", lambda n: gram(B13, n), "n_max", 300, "", (1, 1)),
    ("reconstruct", lambda n: reconstruct(P1, GAUSSIAN, n), "n_max", 115, "", (0, 0)),
    ("resonant_expansion", lambda n: resonant_expansion(P2, GAUSSIAN, n, "plus"),
     "n_max", 115, "", (0, 0)),
    ("stripped_discrete_function", lambda n: stripped_discrete_function(P2, n, "+"),
     "n", 300, "", (0, 0)),
    ("sweep_to_boundary_i_iii[plus]",
     lambda n: sweep_to_boundary_i_iii(0.75, 0.25, n, "plus", [10.0, 100.0]), "n", 300, "", (0, 0)),
    ("sweep_to_boundary_i_iii[minus]",
     lambda n: sweep_to_boundary_i_iii(0.75, 0.25, n, "minus", [10.0, 100.0]),
     "n", 115, " on the minus branch", (0, 0)),
    ("sweep_to_ep", lambda n: sweep_to_ep(1.0, -0.2, n, "II", [0.1, 0.01]), "n", 300, "", (0, 0)),
    ("ep_spectrum_flow", lambda n: ep_spectrum_flow(1.0, -0.2, n, [0.1, 0.01]),
     "n_max", 300, "", (0, 0)),
    ("evolve_sector", _sector, "plus-sector index", 300, "", (0, 0)),
    ("pole_scan", lambda n: pole_scan(P2, n), "n_scan", None, "", None),
    ("pole_scan[samples_per_unit]", lambda n: pole_scan(P2, 1, n), "samples_per_unit", None, "", None),
    ("hermite", lambda n: specfun.hermite(n, GRID), "n", None, "", None),
    ("hermite_rows", lambda n: specfun.hermite_rows(n, GRID), "n", None, "", None),
    ("hermite_coefficients", specfun.hermite_coefficients, "n", None, "", None),
    ("surface_grid", lambda n: surface_grid(2.0, n), "n", 1001, "", (0, 0)),
    ("gauss_hermite", specfun.gauss_hermite, "order", 500, "", (0, 0)),
]
# evolve_sector's index is the length of a sequence, never a non-integer or negative
TYPED = [row for row in INDEXED if row[0] != "evolve_sector"]
TOPPED = [row for row in INDEXED if row[3] is not None]


@pytest.mark.parametrize("value", [2.5, np.float64(2.0)], ids=["float", "np.float64"])
@pytest.mark.parametrize("name,call,arg,top,where,counts", TYPED, ids=[r[0] for r in TYPED])
def test_a_non_integer_index_is_refused_by_name_before_classify(calls, name, call, arg, top,
                                                                where, counts, value):
    # a non-integer index raised a bare TypeError, or (pole_scan) scanned to n_scan + 1
    calls.clear()
    with pytest.raises(ValueError, match=f"^{arg} must be an integer, got "):
        call(value)
    assert (calls["classify"], calls["derive"]) == (0, 0)


@pytest.mark.parametrize("name,call,arg,top,where,counts", TYPED, ids=[r[0] for r in TYPED])
def test_a_negative_index_is_refused_by_name_before_classify(calls, name, call, arg, top,
                                                             where, counts):
    calls.clear()
    with pytest.raises(ValueError, match=f"^{arg} must be non-negative, got -1$"):
        call(-1)
    assert (calls["classify"], calls["derive"]) == (0, 0)


@pytest.mark.parametrize("name,call,arg,top,where,counts", TOPPED, ids=[r[0] for r in TOPPED])
def test_an_index_past_its_top_is_refused_by_name_before_any_state(calls, built, name, call,
                                                                   arg, top, where, counts):
    calls.clear()
    with pytest.raises(ValueError, match=f"^{arg} must be at most {top}{where}, got {top + 1}$"):
        call(top + 1)
    assert (calls["classify"], calls["derive"]) == counts
    assert built == []


def test_pole_scan_keeps_its_sample_count_floor():
    with pytest.raises(ValueError, match="^samples_per_unit must be at least 2, got 1$"):
        pole_scan(P2, 3, 1)


@pytest.mark.parametrize("n_scan,samples_per_unit", [(4999, 201), (5000, 200), (99999, 200)])
def test_pole_scan_refuses_a_sample_count_past_its_top_before_classify(calls, n_scan,
                                                                       samples_per_unit):
    # each sample costs about 264 bytes at peak: n_scan 10^5 asked for about 5 GB
    calls.clear()
    count = samples_per_unit * (n_scan + 1)
    with pytest.raises(ValueError, match=rf"^samples_per_unit \* \(n_scan \+ 1\) must be at most "
                                         rf"1000000, got {samples_per_unit} \* {n_scan + 1} = {count}$"):
        pole_scan(P2, n_scan, samples_per_unit)
    assert (calls["classify"], calls["derive"]) == (0, 0)


def test_pole_scan_serves_its_sample_top_itself(monkeypatch):
    # the top is inclusive; a smaller top keeps the check quick and small
    monkeypatch.setattr(continuum, "_POLE_SCAN_SAMPLES_MAX", 800)
    assert len(pole_scan(P2, 3, 200).energies_imag) == 800
    with pytest.raises(ValueError, match="must be at most 800, got 201 \\* 4 = 804$"):
        pole_scan(P2, 3, 201)


@pytest.mark.parametrize("call", [
    lambda: discrete_states(P1, 300),
    lambda: discrete_states(P2, 300),
    lambda: discrete_states(B13, 300),
    lambda: stripped_discrete_function(P2, 300, "-"),
    lambda: _sector(300),
], ids=["discrete_states[I]", "discrete_states[II]", "discrete_states[I-III]",
        "stripped_discrete_function", "evolve_sector"])
def test_the_top_itself_is_served(call):
    assert call() is not None


def test_a_plus_branch_sweep_reaches_the_top():
    # (at G = 1000 the n = 300 swept state itself leaves the float range near |x| = 8 and
    # the sweep raises NonConvergentError, as it does from n = 250 there)
    report = sweep_to_boundary_i_iii(0.75, 0.25, 300, "plus", [10.0, 100.0])
    assert np.isfinite(report.distances).all()
    limit = 0.5 * 300.5     # hbar (alpha - beta) (n + 1/2)
    assert report.distances[1] < report.distances[0]
    assert abs(report.energies[1] - limit) < abs(report.energies[0] - limit)


# a valid index per row, small enough to be quick
VALID = {"gram[I-III]": 4, "reconstruct": 4, "resonant_expansion": 4, "pole_scan": 2,
         "pole_scan[samples_per_unit]": 7}


@pytest.mark.parametrize("name,call,arg,top,where,counts", TYPED, ids=[r[0] for r in TYPED])
def test_numpy_integer_indices_give_bit_equal_results(name, call, arg, top, where, counts):
    n = VALID.get(name, 3)
    assert pickle.dumps(call(np.int64(n))) == pickle.dumps(call(n))


def test_the_index_table_covers_every_entry_point_that_takes_an_index():
    # matrix_element keeps its own typed check of two indices; surface_grid's grid side n
    # and gauss_hermite's rule order pass the one guard too, as rows of the table
    others = {"matrix_element"}
    modules = [mod for name, mod in sys.modules.items() if name.startswith("swanson.")]
    named = _public() + [item for mod in modules for item in vars(mod).items()]
    takes_index = {name for name, fn in named
                   if inspect.isfunction(fn) and not name.startswith("_")
                   and fn.__module__.startswith("swanson")
                   and {"n", "n_max", "n_scan"} & set(inspect.signature(fn).parameters)}
    assert {"discrete_states", "hermite_rows", "pole_scan"} <= takes_index
    assert takes_index - others <= {row[0].split("[")[0] for row in INDEXED}
