import cmath
import math

import mpmath
import numpy as np
import pytest

import conftest as pts
from swanson import (
    ModelParams,
    NonConvergentError,
    RegionError,
    apply_hamiltonian,
    apply_oscillator,
    conjugate_function,
    continuum_norm_constant,
    continuum_state,
    delta_normalization_probe,
    derive,
    evaluate,
    pole_scan,
    resonant_expansion,
    stripped_discrete_function,
)
from swanson import GaussPoly, continuum
from swanson.continuum import _interior_integrals
from swanson.specfun import _gauss_legendre, log_gamma, parabolic_cylinder_d

OMEGA_SCALE = math.sqrt(3.0)   # hbar |Omega| at the Region II witness point


# ---------------------------------------------------------------------------
# continuum states
# ---------------------------------------------------------------------------

def test_nu_map_and_zero_energy_fixed_point():
    p = pts.REGION_II_POINT
    st = continuum_state(p, 0.0, "+", "phi")
    assert st.nu == pytest.approx(-0.5)
    st = continuum_state(p, 1.2 * OMEGA_SCALE, "+", "phi")
    assert st.nu == pytest.approx(-1.2j - 0.5)


@pytest.mark.parametrize("eps", [0.5, -0.5, 2.0, -2.0, 1.3, -0.7])
def test_oscillator_equation_residual(eps, grid_6b0):
    p = pts.REGION_II_POINT
    energy = eps * OMEGA_SCALE
    for side in ("+", "-"):
        st = continuum_state(p, energy, side, "phi")
        vals = evaluate(st, grid_6b0, p)
        hvals = apply_oscillator(p, st, grid_6b0)
        assert np.max(np.abs(hvals - energy * vals)) <= 1e-6 * np.max(np.abs(vals))


def test_dressed_continuum_full_hamiltonian(grid_6b0):
    p = pts.REGION_II_POINT
    energy = 0.8 * OMEGA_SCALE
    st = continuum_state(p, energy, "+", "phi_tilde")
    vals = evaluate(st, grid_6b0, p)
    hvals = apply_hamiltonian(p, st, grid_6b0)
    assert np.max(np.abs(hvals - energy * vals)) <= 1e-6 * np.max(np.abs(vals))


def test_region_iv_energy_mirror(grid_6b0):
    p = pts.REGION_IV_POINT
    energy = 0.6 * OMEGA_SCALE
    st = continuum_state(p, energy, "+", "phi")
    vals = evaluate(st, grid_6b0, p)
    hvals = apply_oscillator(p, st, grid_6b0)
    assert np.max(np.abs(hvals - energy * vals)) <= 1e-6 * np.max(np.abs(vals))


def test_eta_is_pointwise_conjugate():
    p = pts.REGION_II_POINT
    x = np.array([-2.3, 0.0, 0.4, 1.9])
    for side in ("+", "-"):
        phi = continuum_state(p, 0.9, side, "phi")
        eta = continuum_state(p, 0.9, side, "eta")
        assert np.max(np.abs(evaluate(eta, x, p) - np.conjugate(evaluate(phi, x, p)))) == 0.0


def test_eta_satisfies_same_real_energy_equation(grid_6b0):
    p = pts.REGION_II_POINT
    energy = 1.1 * OMEGA_SCALE
    eta = continuum_state(p, energy, "+", "eta")
    vals = evaluate(eta, grid_6b0, p)
    hvals = apply_oscillator(p, eta, grid_6b0)
    assert np.max(np.abs(hvals - energy * vals)) <= 1e-6 * np.max(np.abs(vals))


def test_continuum_region_guard():
    with pytest.raises(RegionError):
        continuum_state(pts.REGION_I_POINTS[0], 0.5)
    with pytest.raises(ValueError):
        continuum_state(pts.REGION_II_POINT, 0.5, side="x")
    with pytest.raises(ValueError):
        continuum_state(pts.REGION_II_POINT, 0.5, kind="bogus")


# ---------------------------------------------------------------------------
# gamma-pole scan
# ---------------------------------------------------------------------------

def test_pole_positions():
    report = pole_scan(pts.REGION_II_POINT, 3, 200)
    assert len(report.detected_poles) == 4
    for n, pole in enumerate(report.detected_poles):
        assert abs(pole - (n + 0.5)) <= 0.005


def test_pole_dominance_two_decades():
    report = pole_scan(pts.REGION_II_POINT, 0, 400)
    y = report.energies_imag
    mag = report.log_gamma_magnitude
    at = lambda target: mag[np.argmin(np.abs(y - target))]
    assert at(0.5) - at(0.25) >= 2.0
    assert at(0.5) - at(0.75) >= 2.0


def test_pole_scan_region_iv_mirror():
    r2 = pole_scan(pts.REGION_II_POINT, 2, 150)
    r4 = pole_scan(pts.REGION_IV_POINT, 2, 150)
    assert np.allclose(r2.detected_poles, r4.detected_poles)
    assert np.allclose(r2.log_gamma_magnitude, r4.log_gamma_magnitude)


def test_pole_positions_b0_invariant():
    p = ModelParams(1.0, -2.0, -0.5, b0=2.5)
    report = pole_scan(p, 1, 200)
    for n, pole in enumerate(report.detected_poles):
        assert abs(pole - (n + 0.5)) <= 0.005


def test_pole_scan_calls_log_gamma_once(monkeypatch):
    # one real Lanczos sum, log Gamma(1/2 + y) over the whole grid; no complex log_gamma
    from swanson import specfun

    calls = []

    def spy(z):
        calls.append((np.size(z), z.dtype))
        return rule(z)

    rule = specfun._log_gamma_lanczos
    assert continuum._log_gamma_lanczos is rule
    for module in (specfun, continuum):
        monkeypatch.setattr(module, "_log_gamma_lanczos", spy)
    report = pole_scan(pts.REGION_II_POINT, 3, 200)
    assert calls == [(800, np.float64)]
    assert len(report.detected_poles) == 4


@pytest.mark.parametrize("n_scan", [3, 10, 60])
def test_pole_scan_magnitude_against_mpmath(n_scan):
    # the reflection form against a 40-digit oracle; the error follows log Gamma(1/2 + y),
    # so it is bounded on the scale of the scan's largest magnitude
    report = pole_scan(pts.REGION_II_POINT, n_scan)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.log10(abs(mpmath.gamma(0.5 - mpmath.mpf(y)))))
                        for y in report.energies_imag])
    err = np.abs(report.log_gamma_magnitude - ref)
    assert err.max() <= 2e-15 + 5e-16 * np.abs(ref).max()


@pytest.mark.parametrize("n_scan", [0, 3, 10])
def test_pole_scan_detects_the_poles_of_the_complex_log_gamma(n_scan):
    for samples in range(2, 401, 7):
        report = pole_scan(pts.REGION_II_POINT, n_scan, samples)
        y = report.energies_imag
        logmag = log_gamma(0.5 - y).real / math.log(10.0)
        interior = (logmag[1:-1] > logmag[:-2]) & (logmag[1:-1] > logmag[2:])
        assert np.array_equal(report.detected_poles, y[1:-1][interior])


@pytest.mark.parametrize("samples", [3, 5, 77, 201])
def test_pole_scan_odd_sample_counts(samples):
    # y = (k + 1/2)/s landed on the pole at y = 1/2 for odd s and raised PoleError
    report = pole_scan(pts.REGION_II_POINT, 3, samples)
    assert len(report.detected_poles) == 4
    for n, pole in enumerate(report.detected_poles):
        assert abs(pole - (n + 0.5)) <= 1.0 / (4 * samples) + 1e-12


def test_pole_scan_even_grid_is_half_staggered():
    report = pole_scan(pts.REGION_II_POINT, 3, 200)
    assert np.array_equal(report.energies_imag, (np.arange(800) + 0.5) / 200)


def test_pole_scan_guards():
    with pytest.raises(RegionError):
        pole_scan(pts.REGION_I_POINTS[0], 2)
    with pytest.raises(ValueError):
        pole_scan(pts.REGION_II_POINT, -1)


# ---------------------------------------------------------------------------
# resonant expansions
# ---------------------------------------------------------------------------

def test_expansion_basis_element():
    p = pts.REGION_II_POINT
    target = stripped_discrete_function(p, 2, "-")
    coeffs, sup_error = resonant_expansion(p, target, 5, "minus")
    expect = np.zeros(6)
    expect[2] = 1.0
    assert np.max(np.abs(coeffs - expect)) <= 1e-8
    assert sup_error <= 1e-8


def test_expansion_linearity():
    p = pts.REGION_II_POINT
    target = [(1.0, stripped_discrete_function(p, 0, "-")),
              (2.0, stripped_discrete_function(p, 3, "-"))]
    coeffs, sup_error = resonant_expansion(p, target, 5, "minus")
    expect = np.array([1.0, 0.0, 0.0, 2.0, 0.0, 0.0])
    assert np.max(np.abs(coeffs - expect)) <= 1e-6
    assert sup_error <= 1e-6


def test_expansion_plus_sector():
    p = pts.REGION_II_POINT
    target = stripped_discrete_function(p, 1, "+")
    coeffs, sup_error = resonant_expansion(p, target, 4, "plus")
    assert coeffs[1] == pytest.approx(1.0, abs=1e-8)
    assert sup_error <= 1e-8


def test_sector_mismatch_raises():
    p = pts.REGION_II_POINT
    target = stripped_discrete_function(p, 2, "-")
    with pytest.raises(NonConvergentError, match="sector mismatch"):
        resonant_expansion(p, target, 4, "plus")


def test_non_finite_coefficients_are_not_a_sector_mismatch():
    # degree 90 pairs on the Gauss-Hermite rule of order 400, whose weights are NaN
    p = pts.REGION_II_POINT
    target = [(1.0, stripped_discrete_function(p, 0, "-")),
              (2.0, stripped_discrete_function(p, 3, "-"))]
    with pytest.raises(NonConvergentError, match="Gauss-Hermite pairing of order 400") as info:
        resonant_expansion(p, target, 90, "minus")
    assert "sector mismatch" not in str(info.value)


def test_foreign_target_large_residual_reported():
    # a real Gaussian pairs convergently against either dual family but lies
    # in neither resonant sector: the residual must surface, not vanish
    p = pts.REGION_II_POINT
    target = GaussPoly(gauss=-2.0, coeffs=(1.0,), norm=1.0)
    coeffs, sup_error = resonant_expansion(p, target, 8, "minus")
    assert np.all(np.isfinite(coeffs))
    assert sup_error > 1e-2


def test_eta_phi_exchange_symmetry():
    # expanding the conjugated target in the plus sector conjugates the
    # minus-sector coefficients of the original target
    p = pts.REGION_II_POINT
    target = [(0.8 + 0.1j, stripped_discrete_function(p, 1, "-")),
              (0.5 - 0.3j, stripped_discrete_function(p, 2, "-"))]
    conj_target = [(np.conjugate(c), conjugate_function(f)) for c, f in target]
    c_minus, _ = resonant_expansion(p, target, 4, "minus")
    c_plus, _ = resonant_expansion(p, conj_target, 4, "plus")
    assert np.max(np.abs(c_plus - np.conjugate(c_minus))) <= 1e-10


def test_spectral_resolution_consistency(grid_6b0):
    # sum_n E_n^- |phi_n^-><phi_n^+| acts like the oscillator form on a
    # minus-sector finite sum
    p = pts.REGION_II_POINT
    amps = {0: 1.0, 3: 2.0}
    target = [(a, stripped_discrete_function(p, n, "-")) for n, a in amps.items()]
    coeffs, _ = resonant_expansion(p, target, 6, "minus")
    applied = np.zeros(len(grid_6b0), dtype=complex)
    for n, c in enumerate(coeffs):
        e_minus = -1j * OMEGA_SCALE * (n + 0.5)
        applied += c * e_minus * evaluate(stripped_discrete_function(p, n, "-"), grid_6b0, p)
    direct = np.zeros(len(grid_6b0), dtype=complex)
    for a, f in target:
        direct += a * apply_oscillator(p, f, grid_6b0)
    assert np.max(np.abs(applied - direct)) <= 1e-6 * np.max(np.abs(direct))


# ---------------------------------------------------------------------------
# delta-normalization probe
# ---------------------------------------------------------------------------

def test_probe_centered_near_one():
    p = pts.REGION_II_POINT
    value = delta_normalization_probe(p, 0.0, 0.2 * OMEGA_SCALE)
    assert abs(value - 1.0) <= 0.05


def test_probe_off_support_near_zero():
    p = pts.REGION_II_POINT
    value = delta_normalization_probe(p, 0.0, 0.2 * OMEGA_SCALE, center=1.5 * OMEGA_SCALE)
    assert abs(value) <= 0.05


def test_probe_narrower_window_sharpens():
    p = pts.REGION_II_POINT
    wide = delta_normalization_probe(p, 0.0, 0.2 * OMEGA_SCALE)
    narrow = delta_normalization_probe(p, 0.0, 0.1 * OMEGA_SCALE)
    assert abs(narrow - 1.0) <= abs(wide - 1.0) + 1e-4


def test_probe_box_stability_check():
    p = pts.REGION_II_POINT
    value = delta_normalization_probe(p, 0.0, 0.25 * OMEGA_SCALE, check_box=True)
    assert abs(value - 1.0) <= 0.05


def test_probe_nonzero_reference_energy_density_profile():
    # with the energy-independent calibration constant the pairing density
    # carries the exact factor exp(-pi E/(2 hbar |Omega|)); the probe measures
    # it, confirming both the tail bookkeeping and the E = 0 calibration
    p = pts.REGION_II_POINT
    for eps in (0.25, 0.5, 1.0):
        value = delta_normalization_probe(p, eps * OMEGA_SCALE, 0.2 * OMEGA_SCALE)
        assert abs(value - math.exp(-math.pi * eps / 2.0)) <= 0.02


@pytest.mark.parametrize("args,name", [
    ((math.inf, 0.2), "e0"), ((math.nan, 0.2), "e0"), ((0.0, math.inf), "width"),
    ((0.0, math.nan), "width"), ((0.0, 0.2, math.nan), "center"), ((0.0, 0.2, -math.inf), "center"),
])
def test_probe_rejects_nonfinite_inputs(args, name):
    # these failed with "cannot convert float NaN to integer" from inside log_gamma
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        delta_normalization_probe(pts.REGION_II_POINT, *[a * OMEGA_SCALE for a in args])


def test_probe_on_a_window_edge_is_a_usage_error():
    # the windowed principal value diverges logarithmically when E0 is an edge
    with pytest.raises(ValueError, match="edge of the window"):
        delta_normalization_probe(ModelParams(1.0, -1.0, -0.5), 0.0, 1.0, center=6.0)


def test_probe_on_an_energy_node_is_a_usage_error():
    # at (1, -1, -0.5) hbar |Omega| = 1, so width 1/6 about 0 puts the window on
    # [-1, 1] and its energy nodes on the raw Gauss-Legendre nodes; on a node the
    # principal-value quotients are 0/0, and beside one they lose digits as
    # 1/|eps' - eps0|
    p = ModelParams(1.0, -1.0, -0.5)
    node = float(_gauss_legendre(48)[0][30])
    for offset in (0.0, 1e-9, -1e-7):
        with pytest.raises(ValueError, match="e0 within 1e-6 width of an energy node"):
            delta_normalization_probe(p, node + offset, 1.0 / 6.0, center=0.0)
    value = delta_normalization_probe(p, node + 1e-5, 1.0 / 6.0, center=0.0)
    assert np.isfinite(value)


def _weber_family(eps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Gamma(1/2 - i eps) D_{i eps - 1/2}(-sqrt(2) e^{-i pi/4} u), straight from the Weber
    function: one row per energy."""
    pref = np.exp(log_gamma(0.5 - 1j * eps))
    z = -math.sqrt(2.0) * cmath.exp(-0.25j * math.pi) * u
    return pref[:, None] * parabolic_cylinder_d(1j * eps[:, None] - 0.5, z)


def _quadrature_interior(eps_p: np.ndarray, eps0: float, box: float, gamma=None) -> np.ndarray:
    """The interior integrals on 140 Gauss-Legendre nodes per unit of box (1400 at box 10);
    the gamma prefactors are the oracle's own, whatever the probe passes."""
    nodes, weights = np.polynomial.legendre.leggauss(int(round(140 * box)))
    u, uw = box * nodes, box * weights
    f0 = _weber_family(np.array([eps0]), u)[0]
    return np.sum(uw * np.conjugate(_weber_family(eps_p, u)) * f0, axis=1)


@pytest.mark.parametrize("eps0,box", [(0.0, 10.0), (0.5, 10.0), (3.0, 10.0), (-2.0, 10.0),
                                      (0.0, 15.0), (8.0, 10.0)])
def test_interior_integrals_are_wronskian_differences(eps0, box):
    # conj(f_eps') and f_eps0 solve f'' + (u^2 + 2 eps) f = 0 at their own energies, so
    # the interior integral is a difference of Wronskians over 2 (eps' - eps0)
    eps_p = eps0 + np.array([-1.3, -0.4, -0.05, -1e-3, 2e-3, 0.07, 0.6, 1.9])
    gamma = np.exp(log_gamma(0.5 - 1j * np.append(eps_p, eps0)))
    closed = _interior_integrals(eps_p, eps0, box, gamma)
    oracle = _quadrature_interior(eps_p, eps0, box)
    assert np.max(np.abs(closed - oracle)) <= 1e-10 * np.max(np.abs(oracle))


_OM = OMEGA_SCALE
_OM_IV = abs(derive(ModelParams(1.0, 2.0, 0.6)).omega_cap)
PROBE_SETTINGS = {
    "width-0.346": (pts.REGION_II_POINT, 0.0, 0.346 * _OM, {}),
    "width-0.01": (pts.REGION_II_POINT, 0.0, 0.01 * _OM, {}),
    "width-1": (pts.REGION_II_POINT, 0.0, 1.0 * _OM, {}),
    "off-support": (pts.REGION_II_POINT, 0.0, 0.2 * _OM, {"center": 1.5 * _OM}),
    "e0-0.5": (pts.REGION_II_POINT, 0.5 * _OM, 0.2 * _OM, {}),
    "e0-3": (pts.REGION_II_POINT, 3.0 * _OM, 0.2 * _OM, {}),
    "region-iv": (ModelParams(1.0, 2.0, 0.6), 0.0, 0.2 * _OM_IV, {}),
    "b0-1.7": (ModelParams(1.0, -2.0, -0.5, b0=1.7), 0.0, 0.2 * _OM, {}),
    "check-box": (pts.REGION_II_POINT, 0.0, 0.25 * _OM, {"check_box": True}),
}


@pytest.mark.parametrize("setting", list(PROBE_SETTINGS))
def test_probe_matches_the_quadrature_interior(setting, monkeypatch):
    # the closed-form interior against a 1400-node quadrature of the same integrals
    p, e0, width, kwargs = PROBE_SETTINGS[setting]
    closed = delta_normalization_probe(p, e0, width, **kwargs)
    monkeypatch.setattr(continuum, "_interior_integrals", _quadrature_interior)
    assert abs(closed - delta_normalization_probe(p, e0, width, **kwargs)) <= 1e-10


def test_probe_value_asks_for_few_weber_points(monkeypatch):
    # f and f' at u = +-box for 48 window energies and E0: 49 x 2 orders x 2 ends
    points = []

    def spy(nu, z):
        points.append(int(np.prod(np.broadcast_shapes(np.shape(nu), np.shape(z)))))
        return parabolic_cylinder_d(nu, z)

    monkeypatch.setattr(continuum, "parabolic_cylinder_d", spy)
    delta_normalization_probe(pts.REGION_II_POINT, 0.0, 0.346 * OMEGA_SCALE)
    assert 0 < sum(points) <= 196


def test_probe_value_evaluates_gamma_once(monkeypatch):
    # one Lanczos sum for Gamma(1/2 - i eps) over the 48 window energies and E0 (the
    # tails take Gamma(1/2 + i eps') from it by conjugation), one for the 1/Gamma table
    # of the Weber call at u = +-box
    from swanson import specfun

    calls = []
    rule = specfun._log_gamma_lanczos

    def spy(z):
        calls.append(np.size(z))
        return rule(z)

    monkeypatch.setattr(specfun, "_log_gamma_lanczos", spy)
    delta_normalization_probe(pts.REGION_II_POINT, 0.0, 0.346 * OMEGA_SCALE)
    assert len(calls) == 2 and calls[0] == 49
    calls.clear()
    delta_normalization_probe(pts.REGION_II_POINT, 0.0, 0.25 * OMEGA_SCALE, check_box=True)
    assert len(calls) == 4 and calls[0] == calls[2] == 49


def test_norm_constant_scaling():
    p = pts.REGION_II_POINT
    d = derive(p)
    c = continuum_norm_constant(p)
    assert c == pytest.approx(
        math.sqrt(d.sigma / (p.b0 * abs(d.omega_cap) * 2.0 * math.sqrt(2.0) * math.pi ** 2)))
    with pytest.raises(RegionError):
        continuum_norm_constant(pts.REGION_I_POINTS[0])


def test_probe_scale_invariance():
    # the calibration is universal in reduced units: a different barrier
    # point and characteristic length give the same centered probe value
    from swanson import RegionLabel, classify

    p = ModelParams(2.0, -1.5, -1.0, b0=1.7)
    assert classify(p) is RegionLabel.REGION_II
    hbar_omega = abs(derive(p).omega_cap)
    value = delta_normalization_probe(p, 0.0, 0.2 * hbar_omega)
    assert abs(value - 1.0) <= 0.05


@pytest.mark.parametrize("energy", [math.inf, -math.inf, math.nan])
def test_continuum_state_rejects_a_nonfinite_energy(energy):
    with pytest.raises(ValueError, match="energy must be finite"):
        continuum_state(pts.REGION_II_POINT, energy)


def test_negative_mode_indices_are_usage_errors():
    # a negative index used to give the n = 0 state, or an IndexError
    p = pts.REGION_II_POINT
    with pytest.raises(ValueError, match="n must be non-negative"):
        stripped_discrete_function(p, -1, "+")
    with pytest.raises(ValueError, match="n_max must be non-negative"):
        resonant_expansion(p, stripped_discrete_function(p, 0, "-"), -1)
