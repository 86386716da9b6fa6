import math

import numpy as np
import pytest

import conftest as pts
from swanson import (
    GaussPoly,
    ModelParams,
    RegionError,
    SingularParameterError,
    ep_spectrum_flow,
    pair,
    sweep_to_boundary_i_iii,
    sweep_to_ep,
)

GEOMETRIC_G = [10.0, 100.0, 1000.0]
GEOMETRIC_EPS = [1e-1, 1e-2, 1e-3]


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
