import math

import mpmath
import numpy as np
import pytest

import conftest as pts
from swanson import (
    GaussPoly,
    ModelParams,
    NonConvergentError,
    RegionError,
    SingularParameterError,
    ep_spectrum_flow,
    pair,
    sweep_to_boundary_i_iii,
    sweep_to_ep,
)
from swanson import discrete_states, ep_analysis
from swanson.ep_analysis import _gaussian_battery
from swanson.pairing import _pair_block

GEOMETRIC_G = [10.0, 100.0, 1000.0]
GEOMETRIC_EPS = [1e-1, 1e-2, 1e-3]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sweep,name", [
    (lambda v: sweep_to_boundary_i_iii(v, 0.25, 0, "plus", [10.0]), "alpha"),
    (lambda v: sweep_to_boundary_i_iii(0.75, v, 0, "minus", [10.0]), "beta"),
    (lambda v: sweep_to_boundary_i_iii(v, v, 0, "plus", [10.0]), "alpha"),   # inf == inf
    (lambda v: sweep_to_ep(v, -0.2, 0, "I", [0.1]), "omega"),
    (lambda v: sweep_to_ep(1.0, v, 0, "II", [0.1]), "beta"),
    (lambda v: ep_spectrum_flow(v, -0.2, 1, [0.1]), "omega"),
    (lambda v: ep_spectrum_flow(1.0, v, 1, [0.1]), "beta"),
], ids=["boundary-alpha", "boundary-beta", "boundary-both", "ep-omega", "ep-beta", "flow-omega", "flow-beta"])
def test_sweeps_refuse_a_nonfinite_coupling_by_its_own_name(sweep, name, bad, monkeypatch):
    # the boundary sweep named omega = alpha + beta (and took alpha = beta = inf for the
    # singular alpha = beta); sweep_to_ep and the flow named alpha
    built = []
    for attr in ("ModelParams", "_ladder"):
        real = getattr(ep_analysis, attr)
        monkeypatch.setattr(ep_analysis, attr,
                            lambda *a, _real=real, _attr=attr, **k: built.append(_attr) or _real(*a, **k))
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        sweep(bad)
    assert built == []      # no parameter point and no state before the refusal


def test_root_consistency():
    # both printed roots satisfy r(eps)^2 = G^2 eps^2 with
    # r^2 = (a-b)^2 + 2 eps (a+b) + eps^2
    a, b = 0.75, 0.25
    for g in (10.0, 250.0, 1e4):
        disc = math.sqrt(4 * a * b + g * g * (a - b) ** 2)
        for eps in ((a + b + disc) / (g * g - 1.0), (a + b - disc) / (g * g - 1.0)):
            r_sq = (a - b) ** 2 + 2 * eps * (a + b) + eps * eps
            assert r_sq == pytest.approx(g * g * eps * eps, rel=1e-10)


# ---------------------------------------------------------------------------
# sweep onto the boundary omega = alpha + beta
# ---------------------------------------------------------------------------

def test_boundary_plus_branch_converges():
    report = sweep_to_boundary_i_iii(0.75, 0.25, 0, "plus", GEOMETRIC_G)
    assert np.all(np.diff(report.distances) < 0)
    assert report.distances[-1] <= 1e-3
    # E -> hbar (alpha - beta) (n + 1/2) = 0.25
    assert report.energies.real[-1] == pytest.approx(0.25, abs=2e-3)


def test_boundary_plus_branch_higher_mode():
    report = sweep_to_boundary_i_iii(0.75, 0.25, 2, "plus", GEOMETRIC_G)
    assert np.all(np.diff(report.distances) < 0)
    assert report.energies.real[-1] == pytest.approx(1.25, abs=1e-2)


def test_boundary_minus_branch_battery_convergence():
    for n in (0, 1):
        report = sweep_to_boundary_i_iii(0.75, 0.25, n, "minus", GEOMETRIC_G + [1e4])
        assert np.all(np.diff(report.distances) < 0)
        assert report.distances[-1] <= 1e-3
        # Cauchy tail between the last two battery directions
        assert abs(report.distances[-1] - report.distances[-2]) <= 1e-3
        # limit energy is the minus-branch eigenvalue -hbar (a-b)(n+1/2)
        assert report.energies.real[-1] == pytest.approx(-0.5 * (n + 0.5), abs=2e-3)


def test_boundary_sweep_swaps_sign_for_alpha_less_beta():
    report = sweep_to_boundary_i_iii(0.25, 0.75, 0, "plus", GEOMETRIC_G)
    assert np.all(np.diff(report.distances) < 0)
    assert report.distances[-1] <= 1e-3


def test_boundary_sweep_guards():
    with pytest.raises(SingularParameterError):
        sweep_to_boundary_i_iii(0.5, 0.5, 0, "plus", GEOMETRIC_G)
    with pytest.raises(ValueError):
        sweep_to_boundary_i_iii(0.75, 0.25, 0, "plus", [0.5, 10.0])
    with pytest.raises(ValueError):
        sweep_to_boundary_i_iii(0.75, 0.25, 0, "plus", [100.0, 10.0])
    with pytest.raises(RegionError):
        # eps(1e13) is within the classification tolerance of the boundary
        sweep_to_boundary_i_iii(0.75, 0.25, 0, "plus", [10.0, 1e13])


# ---------------------------------------------------------------------------
# sweep onto the Omega = 0 exceptional points
# ---------------------------------------------------------------------------

def test_ep_sweep_both_sides_same_limit():
    for n in (0, 1):
        side1 = sweep_to_ep(1.0, -2.0, n, "I", GEOMETRIC_EPS)
        side2 = sweep_to_ep(1.0, -2.0, n, "II", GEOMETRIC_EPS)
        for rep in (side1, side2):
            assert np.all(np.diff(rep.distances) < 0)
            assert rep.distances[-1] <= 1e-3
        # energies collapse to zero linearly: |E| = eps (n + 1/2)
        assert np.allclose(np.abs(side1.energies), np.asarray(GEOMETRIC_EPS) * (n + 0.5))
        assert np.max(np.abs(side2.energies.real)) <= 1e-12


def test_ep_sweep_energy_slopes_exact():
    for n in (0, 2, 4):
        rep = sweep_to_ep(1.0, -2.0, n, "I", GEOMETRIC_EPS)
        slopes = rep.energies.real / np.asarray(GEOMETRIC_EPS)
        assert np.max(np.abs(slopes / (n + 0.5) - 1.0)) <= 1e-10
        rep = sweep_to_ep(1.0, -2.0, n, "II", GEOMETRIC_EPS, branch="+")
        slopes = rep.energies.imag / np.asarray(GEOMETRIC_EPS)
        assert np.max(np.abs(slopes / (n + 0.5) - 1.0)) <= 1e-10


def test_ep_sweep_branches_share_limit():
    plus = sweep_to_ep(1.0, -2.0, 1, "II", GEOMETRIC_EPS, branch="+")
    minus = sweep_to_ep(1.0, -2.0, 1, "II", GEOMETRIC_EPS, branch="-")
    assert plus.distances[-1] <= 1e-3
    assert minus.distances[-1] <= 1e-3


def test_ep_sweep_odd_mode_limit_is_x_gaussian(grid_6b0):
    # the n = 1 limit function is x times the EP Gaussian
    rep = sweep_to_ep(1.0, -2.0, 1, "I", [1e-2, 1e-3, 1e-4])
    assert rep.distances[-1] <= 1e-4


def test_ep_parity_stability():
    # even-n swept functions keep zero odd component throughout the sweep,
    # as pairings against odd and even Gaussian probes
    odd_probe = GaussPoly(gauss=-2.0, coeffs=(0.0, 1.0), norm=1.0)
    even_probe = GaussPoly(gauss=-2.0, coeffs=(1.0,), norm=1.0)
    for eps in GEOMETRIC_EPS:
        alpha = (1.0 - eps * eps) / (4.0 * -2.0)
        params = ModelParams(1.0, alpha, -2.0)
        from swanson import discrete_states

        state = next(s for s in discrete_states(params, 2) if s.n == 2)
        odd_overlap = pair(odd_probe, state.right_fn, params)
        even_overlap = pair(even_probe, state.right_fn, params)
        assert abs(odd_overlap) <= 1e-8 * abs(even_overlap)


def test_ep_sweep_guards():
    with pytest.raises(SingularParameterError):
        sweep_to_ep(1.0, 0.5, 0, "I", GEOMETRIC_EPS)
    with pytest.raises(ValueError):
        sweep_to_ep(1.0, -2.0, 0, "I", [1e-3, 1e-2])
    with pytest.raises(ValueError):
        sweep_to_ep(1.0, -2.0, 0, "X", GEOMETRIC_EPS)
    with pytest.raises(RegionError):
        # beta > 0 with omega > 2 beta puts the swept point in Region I even
        # for the "II" request
        sweep_to_ep(2.0, 0.25, 0, "II", GEOMETRIC_EPS)


# ---------------------------------------------------------------------------
# spectrum flow table
# ---------------------------------------------------------------------------

def test_flow_table_closed_forms():
    rows = ep_spectrum_flow(1.0, -2.0, 3, [1e-2])
    entry = next(r for r in rows if r.n == 3)
    assert entry.energy_side1 == pytest.approx(0.035, rel=1e-10)
    assert entry.energy_side2_plus == pytest.approx(0.035j, rel=1e-10)
    assert entry.energy_side2_minus == pytest.approx(-0.035j, rel=1e-10)


def test_flow_table_collapse_and_ordering():
    rows = ep_spectrum_flow(1.0, -2.0, 4, [1e-2])
    mags = [abs(r.energy_side1) for r in rows]
    assert all(m < 0.05 for m in mags)
    assert all(mags[i] < mags[i + 1] for i in range(len(mags) - 1))


def test_boundary_sweep_alpha_less_beta_energy_limits():
    # at alpha < beta the monomial limit is reached from Region III and the
    # delta-derivative limit from Region I: the energies tend to
    # +-hbar (alpha - beta)(n + 1/2) = -+0.5 (n + 1/2)
    for n in (0, 1):
        plus = sweep_to_boundary_i_iii(0.25, 0.75, n, "plus", GEOMETRIC_G)
        assert np.all(np.diff(plus.distances) < 0)
        assert plus.energies.real[-1] == pytest.approx(-0.5 * (n + 0.5), abs=2e-3)
        minus = sweep_to_boundary_i_iii(0.25, 0.75, n, "minus", GEOMETRIC_G + [1e4])
        assert np.all(np.diff(minus.distances) < 0)
        assert minus.distances[-1] <= 1e-3
        assert minus.energies.real[-1] == pytest.approx(0.5 * (n + 0.5), abs=2e-3)


def test_ep_sweeps_reject_beta_zero():
    # Omega^2 = omega^2 at beta = 0 for every alpha: there is no point to sweep to
    with pytest.raises(RegionError):
        sweep_to_ep(1.0, 0.0, 0, "I", GEOMETRIC_EPS)
    with pytest.raises(RegionError):
        sweep_to_ep(1.0, 0.0, 0, "II", GEOMETRIC_EPS)
    with pytest.raises(RegionError):
        ep_spectrum_flow(1.0, 0.0, 2, [0.1, 0.01])


# ---------------------------------------------------------------------------
# the sweeps reuse the eigenfamilies and the pairing kernel
# ---------------------------------------------------------------------------

def _forbid(monkeypatch, module, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} must not be called here")

    monkeypatch.setattr(module, name, forbidden, raising=False)


@pytest.mark.parametrize("omega,beta", [(1.0, -2.0), (2.0, 0.25)])
def test_flow_table_is_the_ladder_energies(monkeypatch, omega, beta):
    # at (2, 0.25), omega > 2 beta > 0, the two sides are Regions III and IV
    import swanson.eigensystems as eigensystems
    import swanson.ep_analysis as ep_module
    from swanson import classify, discrete_states

    eps_values = [0.1, 0.01, 0.001]
    expected = []
    for eps in eps_values:
        p1 = ModelParams(omega, (omega ** 2 - eps ** 2) / (4.0 * beta), beta)
        p2 = ModelParams(omega, (omega ** 2 + eps ** 2) / (4.0 * beta), beta)
        if beta > 0:
            assert (classify(p1).value, classify(p2).value) == ("III", "IV")
        s1 = {s.n: s for s in discrete_states(p1, 3)}
        s2 = {(s.n, s.branch): s for s in discrete_states(p2, 3)}
        expected += [(eps, n, float(np.real(s1[n].energy)), complex(s2[(n, "+")].energy),
                      complex(s2[(n, "-")].energy)) for n in range(4)]
    for module in (ep_module, eigensystems):
        _forbid(monkeypatch, module, "discrete_states")
    rows = ep_spectrum_flow(omega, beta, 3, eps_values)
    got = [(r.eps, r.n, r.energy_side1, r.energy_side2_plus, r.energy_side2_minus) for r in rows]
    assert repr(got) == repr(expected)       # bit for bit, signed zeros included


def test_flow_table_rejects_eps_at_the_ep():
    # eps = 1e-9 puts Omega^2 = +-1e-18 within the classification tolerance
    with pytest.raises(RegionError):
        ep_spectrum_flow(1.0, -2.0, 2, [0.1, 1e-9])
    with pytest.raises(ValueError):
        ep_spectrum_flow(1.0, -2.0, -1, [0.1])


def test_sweeps_call_no_single_pairing(monkeypatch):
    import swanson.ep_analysis as ep_module
    import swanson.pairing as pairing_module

    for module in (ep_module, pairing_module):
        _forbid(monkeypatch, module, "pair")
    for n in (0, 1):
        for branch in ("plus", "minus"):
            sweep_to_boundary_i_iii(0.75, 0.25, n, branch, [10.0, 100.0])
        sweep_to_ep(1.0, -2.0, n, "II", [0.1, 0.01])


@pytest.mark.parametrize("n", [0, 1])
def test_battery_block_matches_single_pairings(n):
    from swanson import discrete_states
    from swanson.ep_analysis import _gaussian_battery
    from swanson.pairing import _pair_block

    battery = _gaussian_battery(1.0)
    boundary = ModelParams(1.0, 0.75, 0.25)
    swept = ModelParams(1.0 - 0.01, 0.75, 0.25)           # Region III, below the boundary
    for p in (boundary, swept):
        f = next(s for s in discrete_states(p, n) if s.n == n and s.branch in (None, "-")).right_fn
        block = _pair_block(battery, [f], p)[:, 0]
        single = np.array([pair(t, f, p) for t in battery])
        assert np.max(np.abs(block - single)) <= 1e-15 * np.linalg.norm(single)


@pytest.mark.parametrize("call,name", [
    (lambda: sweep_to_boundary_i_iii(0.75, 0.25, 0, "plus", [10.0, math.inf]), "g_values"),
    (lambda: sweep_to_boundary_i_iii(0.75, 0.25, 0, "minus", [math.nan, 10.0]), "g_values"),
    (lambda: sweep_to_ep(1.0, -2.0, 0, "I", [0.1, math.nan]), "eps_values"),
    (lambda: sweep_to_ep(1.0, -2.0, 0, "II", [math.inf, 0.1]), "eps_values"),
    (lambda: ep_spectrum_flow(1.0, -2.0, 2, [0.1, math.nan]), "eps_values"),
    (lambda: sweep_to_ep(1.0, -2.0, 0, "II", GEOMETRIC_EPS, branch="x"), "branch"),
    (lambda: sweep_to_boundary_i_iii(0.75, 0.25, 0, "up", [10.0]), "branch_target"),
], ids=["g-inf", "g-nan", "eps-nan", "eps-inf", "flow-eps-nan", "ep-branch", "boundary-branch"])
def test_sweep_inputs_are_checked_up_front(call, name):
    # these warned and blamed omega or alpha, or (the branch) raised a bare StopIteration
    with pytest.raises(ValueError, match=name):
        call()


def test_distance_scales_before_it_squares():
    from swanson.ep_analysis import _normalized_distance, _unit

    f = np.array([1.0, 2.0j, -0.5])
    g = np.array([0.9, 2.1j, -0.4])
    w = np.array([0.2, 0.3, 0.5])
    base = _normalized_distance(f, _unit(g, w), w)
    # unscaled, 1e200 squared overflows (distance sqrt(2)) and 1e-300 squared underflows
    for scale_f, scale_g in ((1e200, 1.0), (1e-200, 1e200), (1e-300, 1e-300)):
        unit_g = _unit(scale_g * g, w)
        assert _normalized_distance(scale_f * f, unit_g, w) == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_distance_of_a_nonfinite_vector_is_a_typed_error(bad):
    from swanson.ep_analysis import _normalized_distance, _unit

    # max(0.0, nan) is 0.0: a NaN must not read as exact convergence
    unit = _unit(np.array([1.0, 0.5, 0.25], dtype=complex), 1.0)
    with pytest.raises(NonConvergentError, match="not finite"):
        _unit(np.array([1.0, bad, 0.25]), 1.0)
    with pytest.raises(NonConvergentError, match="not finite"):
        _normalized_distance(np.array([bad, 0.5, 0.25]), unit, np.ones(3))


def test_plus_sweep_at_n80_stays_finite_and_converges():
    # the unscaled |values|^2 overflows at G = 1e4 here
    report = sweep_to_boundary_i_iii(0.75, 0.25, 80, "plus", [10.0, 1e3, 1e4])
    assert np.all(np.isfinite(report.distances))
    assert np.all(np.diff(report.distances) < 0)
    # the distance falls as 1/G
    assert report.distances[2] == pytest.approx(0.1 * report.distances[1], rel=2e-2)


@pytest.mark.parametrize("n", [3, 40, 115, 160])
def test_battery_delta_pairings_against_the_generating_function(n):
    # <battery_a | e^{-ct x^2/2} delta^(n) (-1)^n / sqrt(n!)> = h^(n)(0)/sqrt(n!) for
    # h = e^{-a^2} e^{A x^2 + B x}, A = -ct/2 - 1, B = 2a, and n! [x^n] e^{A x^2 + B x}
    # = (-A)^(n/2) H_n(B / (2 sqrt(-A))) (DLMF 18.12.15), at b0 = 1
    p = ModelParams(1.0, 0.75, 0.25)
    delta = next(s.right_fn for s in discrete_states(p, n) if s.n == n and s.branch == "-")
    got = _pair_block(_gaussian_battery(p.b0), [delta], p)[:, 0]
    with mpmath.workdps(50):
        big_a = mpmath.mpf(complex(delta.gauss).real) / 2 - 1
        exact = [mpmath.exp(-mpmath.mpf(a) ** 2) * (-big_a) ** (mpmath.mpf(n) / 2)
                 * mpmath.hermite(n, 2 * mpmath.mpf(a) / (2 * mpmath.sqrt(-big_a)))
                 / mpmath.sqrt(mpmath.factorial(n))
                 for a in (0.0, 0.5, -0.5, 1.0, -1.0)]
    exact = np.array([complex(v) for v in exact])
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_boundary_sweep_past_the_rules_fails_before_any_work(monkeypatch):
    # n = 171 on the minus branch needs a rule of order 724: the index check
    # comes before the limit state or its battery distance is built
    def no_states(*args, **kwargs):
        raise AssertionError("a state built before the index check")

    for name in ("_ladder_stratum", "_ladder"):     # the limit's stratum, then its state
        monkeypatch.setattr(ep_analysis, name, no_states)
    with pytest.raises(ValueError, match="n must be at most 115 on the minus branch, got 171"):
        sweep_to_boundary_i_iii(0.75, 0.25, 171, "minus", [10.0, 100.0])
