import cmath
import dataclasses
import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import conftest as pts
from swanson import (
    DeltaDeriv,
    DeltaDerivNotEvaluableError,
    GaussPoly,
    ModelParams,
    NonConvergentError,
    PlaneWaveGauss,
    RegionError,
    RegionLabel,
    apply_hamiltonian,
    apply_oscillator,
    continuum_state,
    derive,
    discrete_states,
    ep_states,
    evaluate,
    free_particle_states,
    pair,
    stripped_discrete_function,
)
from swanson.eigensystems import (_LADDER_MAX, _cyl_fields, _inverse_sqrt_factorial, _taylor_rows,
                                  polynomial_pieces, taylor_coefficients)
from swanson.specfun import hermite, parabolic_cylinder_d

ALL_DISCRETE_POINTS = (
    pts.REGION_I_POINTS + pts.REGION_III_POINTS
    + [pts.REGION_II_POINT, pts.REGION_IV_POINT, pts.BOUNDARY_I_III_POINT]
)


def eigen_residual(params, fn, energy, grid):
    vals = evaluate(fn, grid, params)
    hvals = apply_hamiltonian(params, fn, grid)
    return np.max(np.abs(hvals - energy * vals)) / np.max(np.abs(vals))


# ---------------------------------------------------------------------------
# spectra closed forms
# ---------------------------------------------------------------------------

def test_region_i_spectrum_closed_form():
    for p in pts.REGION_I_POINTS:
        omega = math.sqrt(p.omega ** 2 - 4 * p.alpha * p.beta)
        for s in discrete_states(p, 20):
            assert s.energy == pytest.approx(p.hbar * omega * (s.n + 0.5), rel=1e-15)


def test_region_iii_spectrum_closed_form():
    for p in pts.REGION_III_POINTS:
        omega = math.sqrt(p.omega ** 2 - 4 * p.alpha * p.beta)
        for s in discrete_states(p, 20):
            assert s.energy == pytest.approx(-p.hbar * omega * (s.n + 0.5), rel=1e-15)


def test_region_ii_iv_spectrum_closed_form():
    omega = math.sqrt(3.0)
    for s in discrete_states(pts.REGION_II_POINT, 20):
        sign = 1.0 if s.branch == "+" else -1.0
        assert s.energy == pytest.approx(sign * 1j * omega * (s.n + 0.5), rel=1e-15)
    for s in discrete_states(pts.REGION_IV_POINT, 20):
        sign = -1.0 if s.branch == "+" else 1.0
        assert s.energy == pytest.approx(sign * 1j * omega * (s.n + 0.5), rel=1e-15)


def test_boundary_i_iii_spectrum_closed_form():
    p = pts.BOUNDARY_I_III_POINT
    for s in discrete_states(p, 20):
        sign = 1.0 if s.branch == "+" else -1.0
        assert s.energy == pytest.approx(sign * 0.5 * (s.n + 0.5), rel=1e-15)


def test_hermitian_ground_state():
    p = ModelParams(1.0, 0.0, 0.0)
    s = discrete_states(p, 0)[0]
    assert s.energy == pytest.approx(0.5)
    assert s.to_dict()["variant"] == "GaussHermite"
    assert s.right_fn.coeffs == (1.0,)                # h_0 of the Hermite basis
    assert s.right_fn.gauss == pytest.approx(-1.0)    # pure exp(-x^2/(2 b0^2))
    assert s.right_fn.scale == pytest.approx(1.0)


def test_region_ii_witness_energy():
    states = discrete_states(pts.REGION_II_POINT, 0)
    plus = next(s for s in states if s.branch == "+")
    assert plus.energy == pytest.approx(1j * math.sqrt(3.0) / 2.0, rel=1e-15)


def test_boundary_monomial_witness():
    s = next(s for s in discrete_states(pts.BOUNDARY_I_III_POINT, 2)
             if s.n == 2 and s.branch == "+")
    assert s.energy == pytest.approx(1.25)
    assert s.to_dict()["variant"] == "GaussMonomial"
    assert s.right_fn.scale is None and s.right_fn.coeffs == (0.0, 0.0, 1.0)    # x^2
    assert s.right_fn.norm == pytest.approx(1.0 / math.sqrt(2.0))
    assert s.right_fn.gauss == pytest.approx(-2.0)    # -tau coefficient = -(a+b)/(a-b)


def _bits(f: GaussPoly) -> tuple:
    # bytes tell -0.0 from 0.0, which == does not
    return tuple(np.asarray(v, dtype=complex).tobytes()
                 for v in (f.gauss, f.norm, 0j if f.scale is None else f.scale, f.coeffs))


def test_discrete_states_are_the_stripped_states_dressed_bit_for_bit():
    # each state is built dressed; it must equal the stripped state with its Gaussian
    # shifted by the similarity coefficient, +cu on the right and -cu on the left
    for p in pts.REGION_I_POINTS + pts.REGION_III_POINTS + [pts.REGION_II_POINT,
                                                              pts.REGION_IV_POINT]:
        d = derive(p)
        for s in discrete_states(p, 12):
            if s.region in (RegionLabel.REGION_II, RegionLabel.REGION_IV):
                stripped = {b: stripped_discrete_function(p, s.n, b) for b in "+-"}
                right, left = stripped[s.branch], stripped["-" if s.branch == "+" else "+"]
            else:
                right = left = GaussPoly(-d.sigma ** 2, (0.0,) * s.n + (1.0,),
                                         math.sqrt(d.sigma / (p.b0 * math.sqrt(math.pi))), d.sigma)
            assert _bits(s.right_fn) == _bits(dataclasses.replace(right, gauss=d.upsilon_coeff
                                                                  + right.gauss))
            assert _bits(s.left_fn) == _bits(dataclasses.replace(left, gauss=-d.upsilon_coeff
                                                                 + left.gauss))


def test_left_energy_is_conjugate():
    for p in ALL_DISCRETE_POINTS:
        for s in discrete_states(p, 3):
            assert s.left_energy == pytest.approx(np.conjugate(s.energy))


# ---------------------------------------------------------------------------
# eigen-residuals (exact differentiation, never finite differences)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", ALL_DISCRETE_POINTS)
def test_eigen_residuals_right_and_left(params, grid_6b0):
    for s in discrete_states(params, 10):
        if not isinstance(s.right_fn, DeltaDeriv):
            assert eigen_residual(params, s.right_fn, s.energy, grid_6b0) <= 1e-8
        if not isinstance(s.left_fn, DeltaDeriv):
            assert eigen_residual(params.swapped(), s.left_fn, s.left_energy, grid_6b0) <= 1e-8


def _apply_h_to_gausspoly(params, f):
    """H applied symbolically to a single-piece polynomial x Gaussian form."""
    (a, b, coeffs), = polynomial_pieces(f, params)
    assert b == 0
    w, al, be = params.omega, params.alpha, params.beta
    c2 = 0.5 * params.hbar * (w - al - be) * params.b0 ** 2
    c0 = 0.5 * params.hbar * (w + al + be) / params.b0 ** 2
    c1 = 0.5 * params.hbar * (al - be)

    def diff(c):
        return c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(0, dtype=complex)

    def shift(c, k):
        return np.concatenate([np.zeros(k, dtype=complex), c])

    def add(*cs):
        out = np.zeros(max(len(c) for c in cs), dtype=complex)
        for c in cs:
            out[: len(c)] += c
        return out

    p1 = diff(coeffs)
    p2 = diff(p1)
    # f'' = e^q (P'' + 2 q' P' + (q'' + q'^2) P), q' = 2 a x
    fpp = add(p2, 4.0 * a * shift(p1, 1), 2.0 * a * coeffs, 4.0 * a * a * shift(coeffs, 2))
    xfp = add(shift(p1, 1), 2.0 * a * shift(coeffs, 2))   # x f' / e^q
    out = add(-c2 * fpp, c0 * shift(coeffs, 2), c1 * add(2.0 * xfp, coeffs))
    return GaussPoly(gauss=complex(f.gauss), coeffs=tuple(out), norm=1.0)


def test_delta_states_weak_eigen_residual():
    """Delta-derivative states satisfy the eigenvalue equation weakly:
    <H_c t | phi~> = E <t | phi~> for smooth test functions t."""
    p = pts.BOUNDARY_I_III_POINT
    battery = [
        GaussPoly(gauss=-2.0, coeffs=(1.0,), norm=1.0),
        GaussPoly(gauss=-2.0, coeffs=(0.0, 1.0), norm=1.0),
        GaussPoly(gauss=-1.0, coeffs=(0.3, 0.0, 1.0), norm=1.0),
        GaussPoly(gauss=-3.0, coeffs=(1.0, -0.5, 0.0, 2.0), norm=1.0),
    ]
    for s in discrete_states(p, 6):
        if not isinstance(s.right_fn, DeltaDeriv):
            continue
        for t in battery:
            lhs = pair(_apply_h_to_gausspoly(p.swapped(), t), s.right_fn, p)
            rhs = s.energy * pair(t, s.right_fn, p)
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_apply_hamiltonian_ratio_examples(grid_6b0):
    p = pts.REGION_I_POINTS[0]
    s = discrete_states(p, 3)[2]
    vals = evaluate(s.right_fn, grid_6b0, p)
    hvals = apply_hamiltonian(p, s.right_fn, grid_6b0)
    mask = np.abs(vals) > 1e-3 * np.max(np.abs(vals))
    assert np.max(np.abs(hvals[mask] / vals[mask] - s.energy)) <= 1e-9

    p2 = pts.REGION_II_POINT
    plus = next(s for s in discrete_states(p2, 0) if s.branch == "+")
    vals = evaluate(plus.right_fn, grid_6b0, p2)
    hvals = apply_hamiltonian(p2, plus.right_fn, grid_6b0)
    mask = np.abs(vals) > 1e-3 * np.max(np.abs(vals))
    ratios = hvals[mask] / vals[mask]
    assert np.max(np.abs(ratios - 1j * math.sqrt(3.0) / 2.0)) <= 1e-9


# ---------------------------------------------------------------------------
# symmetry properties
# ---------------------------------------------------------------------------

def test_pt_symmetry_of_ground_state(grid_6b0):
    for p in pts.REGION_I_POINTS:
        s = discrete_states(p, 0)[0]
        left = evaluate(s.right_fn, -grid_6b0, p)
        right = np.conjugate(evaluate(s.right_fn, grid_6b0, p))
        assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(right))


def test_branch_conjugacy_stripped():
    from swanson import stripped_discrete_function

    x = np.linspace(-4.0, 4.0, 31)
    for p in (pts.REGION_II_POINT, pts.REGION_IV_POINT):
        for n in range(6):
            plus = evaluate(stripped_discrete_function(p, n, "+"), x, p)
            minus = evaluate(stripped_discrete_function(p, n, "-"), x, p)
            assert np.max(np.abs(plus - np.conjugate(minus))) <= 1e-14 * np.max(np.abs(plus))


def test_region_ii_modulus_profile(grid_6b0):
    # stripped phi_0 has |exp(-i sigma^2 x^2 / 2 b0^2)| = 1, so the dressed
    # state's modulus is exactly the upsilon growth factor
    p = pts.REGION_II_POINT
    d = derive(p)
    s = next(s for s in discrete_states(p, 0) if s.branch == "+")
    vals = np.abs(evaluate(s.right_fn, grid_6b0, p))
    expect = abs(s.right_fn.norm) * np.exp(d.upsilon_coeff * grid_6b0 ** 2 / 2.0)
    assert np.max(np.abs(vals - expect)) <= 1e-12 * np.max(expect)


def test_boundary_anti_pseudo_hermitian_spectra():
    # the adjoint's spectrum is the negative of the spectrum, family by family
    p = pts.BOUNDARY_I_III_POINT
    states = discrete_states(p, 8)
    right_monomials = {s.n: s.energy for s in states if isinstance(s.right_fn, GaussPoly)}
    left_monomials = {s.n: s.left_energy for s in states if isinstance(s.left_fn, GaussPoly)}
    assert all(f.scale is None for s in states for f in (s.right_fn, s.left_fn)
               if isinstance(f, GaussPoly))
    assert len(right_monomials) == len(left_monomials) == 9
    for n in right_monomials:
        assert left_monomials[n] == pytest.approx(-right_monomials[n])


def test_region_iv_is_sign_swapped_region_ii():
    ii = {(s.n, s.branch): s for s in discrete_states(pts.REGION_II_POINT, 4)}
    iv = {(s.n, s.branch): s for s in discrete_states(pts.REGION_IV_POINT, 4)}
    for key, s2 in ii.items():
        assert iv[key].energy == pytest.approx(-s2.energy)


# ---------------------------------------------------------------------------
# boundary Omega = 0: exceptional-point and free-particle states
# ---------------------------------------------------------------------------

def test_ep_exponent_witness():
    spec = ep_states(pts.BOUNDARY_I_II_POINT, 1.0, 0.7, 0.4, -0.1)
    assert spec.right_fn.gauss == pytest.approx(0.6)     # -(omega+2b)/(omega-2b) = +3/5
    assert spec.energy == 0.0


def test_ep_pure_gaussian_subcase(grid_6b0):
    spec = ep_states(pts.BOUNDARY_I_II_POINT, 1.0, 0.0, 1.0, 0.0)
    assert spec.right_fn.coeffs == (1.0, 0.0)
    vals = evaluate(spec.right_fn, grid_6b0, pts.BOUNDARY_I_II_POINT)
    hvals = apply_hamiltonian(pts.BOUNDARY_I_II_POINT, spec.right_fn, grid_6b0)
    assert np.max(np.abs(hvals)) <= 1e-8 * np.max(np.abs(vals))


def test_ep_general_state_residual(grid_6b0):
    for p in (pts.BOUNDARY_I_II_POINT, pts.BOUNDARY_III_IV_POINT):
        spec = ep_states(p, 0.6, 1.1, 0.3, -0.7)
        vals = evaluate(spec.right_fn, grid_6b0, p)
        hvals = apply_hamiltonian(p, spec.right_fn, grid_6b0)
        assert np.max(np.abs(hvals)) <= 1e-8 * np.max(np.abs(vals))
        small = np.linspace(-2.0, 2.0, 41)
        lvals = evaluate(spec.left_fn, small, p)
        lh = apply_hamiltonian(p.swapped(), spec.left_fn, small)
        assert np.max(np.abs(lh)) <= 1e-8 * np.max(np.abs(lvals))


def test_ep_states_region_guard():
    with pytest.raises(RegionError):
        ep_states(pts.REGION_I_POINTS[0], 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(RegionError):
        # omega = 2 beta on the Omega = 0 boundary is the degenerate corner,
        # caught by the region guard before the singular exponent is formed
        ep_states(ModelParams(1.0, 0.5, 0.5), 1.0, 0.0, 1.0, 0.0)


def test_free_particle_wavenumber_witness():
    spec = free_particle_states(pts.BOUNDARY_I_II_POINT, 1.0, 1.0, 0.0)
    assert spec.right_fn.k_wave == pytest.approx(math.sqrt(2.0 / 3.125))
    assert not spec.right_fn.evanescent


def test_free_particle_zero_energy_reduces_to_ep(grid_6b0):
    p = pts.BOUNDARY_I_II_POINT
    free = free_particle_states(p, 0.0, 1.0, 0.0)
    ep = ep_states(p, 1.0, 0.0, 1.0, 0.0)
    fv = evaluate(free.right_fn, grid_6b0, p)
    ev = evaluate(ep.right_fn, grid_6b0, p)
    assert np.max(np.abs(fv - ev)) <= 1e-14 * np.max(np.abs(ev))


def test_free_particle_stripped_oscillator_residual(grid_6b0):
    p = pts.BOUNDARY_I_II_POINT
    energy = 0.8
    k = math.sqrt(2.0 * energy / (p.hbar * (p.omega - p.alpha - p.beta) * p.b0 ** 2))
    stripped = PlaneWaveGauss(gauss=0.0, k_wave=k, amp_plus=1.0, amp_minus=0.3)
    vals = evaluate(stripped, grid_6b0, p)
    hv = apply_oscillator(p, stripped, grid_6b0)
    assert np.max(np.abs(hv - energy * vals)) <= 1e-8 * np.max(np.abs(vals))


def test_free_particle_evanescent_flag():
    spec = free_particle_states(pts.BOUNDARY_I_II_POINT, -1.0, 1.0, 0.0)
    assert spec.right_fn.evanescent
    assert complex(spec.right_fn.k_wave).real == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# evaluation, guards, serialization
# ---------------------------------------------------------------------------

def test_evaluate_at_origin_is_norm():
    p = pts.REGION_I_POINTS[0]
    s = discrete_states(p, 0)[0]
    assert evaluate(s.right_fn, 0.0, p) == pytest.approx(s.right_fn.norm)


def test_evaluate_no_overflow_window():
    p = pts.REGION_I_POINTS[0]
    s = discrete_states(p, 20)[20]
    vals = evaluate(s.right_fn, np.linspace(-10.0, 10.0, 41), p)
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("sigma,b0", [(1.0, 1.0), (0.83, 1.0), (2.7, 0.4), (0.05, 3.0)])
def test_oscillator_norm_keeps_the_float_formula_to_n_150(sigma, b0):
    # at alpha = beta = a the similarity weight is 1 and sigma^4 = (1 + 2a) / (1 - 2a)
    a = (sigma ** 4 - 1.0) / (2.0 * (sigma ** 4 + 1.0))
    params = ModelParams(1.0, a, a, b0)
    sigma = derive(params).sigma
    x = np.linspace(-3.0, 3.0, 13) * b0 / sigma
    for s in discrete_states(params, 150):
        n, f = s.n, s.right_fn
        direct = math.sqrt(sigma / (b0 * math.sqrt(math.pi) * 2.0 ** n * math.factorial(n)))
        if direct > 0.0:    # 0 where b0 sqrt(pi) 2^n n! overflows: n = 150 at b0 = 3
            ref = direct * hermite(n, sigma * x / b0) * np.exp(f.gauss * x ** 2 / (2 * b0 ** 2))
            assert np.max(np.abs(evaluate(f, x, params) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [151, 160, 170])
@pytest.mark.parametrize("params", [pts.REGION_I_POINTS[0], pts.REGION_II_POINT])
def test_large_n_states_against_mpmath(params, n):
    # 2^n n! overflows a float from n = 151: these states used to be all zero
    x = np.linspace(-10.0, 10.0, 21)
    sigma = derive(params).sigma
    for s in (s for s in discrete_states(params, n) if s.n == n):
        f = s.right_fn
        vals = evaluate(f, x, params)
        with mpmath.workdps(30):
            norm = mpmath.sqrt(sigma / (mpmath.sqrt(mpmath.pi) * 2 ** n * mpmath.factorial(n)))
            phase = {None: 1.0, "+": cmath.exp(0.125j * math.pi),
                     "-": cmath.exp(-0.125j * math.pi)}[s.branch]
            ref = np.array([complex(phase * norm * mpmath.hermite(n, mpmath.mpc(f.scale) * xx)
                                    * mpmath.exp(mpmath.mpc(f.gauss) * xx ** 2 / 2))
                            for xx in x])
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))


def _mpmath_state(f, n, x, b0=1.0):
    """A normalized-Hermite GaussPoly state h_n at 40 digits."""
    with mpmath.workdps(40):
        z = mpmath.mpc(f.scale) * mpmath.mpf(x) / b0
        h = mpmath.hermite(n, z) / mpmath.sqrt(2 ** n * mpmath.factorial(n))
        gauss = mpmath.exp(mpmath.mpc(f.gauss) * x ** 2 / (2 * b0 ** 2))
        return complex(mpmath.mpc(f.norm) * h * gauss)


@pytest.mark.parametrize("x", [25.0, 30.0])
def test_n_200_state_far_out_against_mpmath(x):
    # H_200(sigma x) leaves the float range here, and evaluate used to return NaN
    params = ModelParams(1.0, 0.2, 0.1)
    f = discrete_states(params, 200)[200].right_fn
    ref = _mpmath_state(f, 200, x)
    assert 0.0 < abs(ref) < math.inf
    assert abs(evaluate(f, x, params) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("x", [35.0, 38.0])
def test_n_200_state_past_the_gaussian_underflow_against_mpmath(x):
    # e^{gauss x^2/2} underflows before it meets h_200 ~ e^380: the plain product read 0
    params = ModelParams(1.0, 0.2, 0.1)
    f = discrete_states(params, 200)[200].right_fn
    ref = _mpmath_state(f, 200, x)
    assert 0.0 < abs(ref) < 1e-160
    assert abs(evaluate(f, x, params) - ref) <= 1e-12 * abs(ref)


def test_n_300_monomial_state_past_the_power_overflow_against_mpmath():
    # x^300 overflows at x = 12 and the plain product read NaN; true value 1.4637e-140
    params = pts.BOUNDARY_I_III_POINT
    states = discrete_states(params, 300)
    f = next(s.right_fn for s in states if s.n == 300 and s.branch == "+")
    x = np.array([5.0, 12.0, 12.5])
    with mpmath.workdps(40):
        ref = np.array([complex(mpmath.mpf(f.norm) * mpmath.mpf(xx) ** 300
                                * mpmath.exp(mpmath.mpf(f.gauss.real) * xx ** 2 / 2)) for xx in x])
    vals = evaluate(f, x, params)
    assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref))


def test_value_outside_the_float_range_is_a_typed_error():
    growing = GaussPoly(gauss=1.0, coeffs=(1.0,), norm=1.0)
    assert evaluate(growing, 30.0, pts.REGION_I_POINTS[0]) == pytest.approx(math.exp(450.0))
    with pytest.raises(NonConvergentError, match="float range"):
        evaluate(growing, np.array([0.0, 40.0]), pts.REGION_I_POINTS[0])


def test_states_to_n_300_are_finite_and_match_mpmath():
    # the norm with 2^n n! fell below the float range near n = 268 and raised a typed error
    x = np.array([-4.0, 0.3, 7.5, 12.0])
    for params in (pts.REGION_I_POINTS[0], pts.REGION_II_POINT):
        states = discrete_states(params, 300)
        assert all(0.0 < abs(s.right_fn.norm) < math.inf for s in states)
        for s in (s for s in states if s.n in (268, 300)):
            vals = evaluate(s.right_fn, x, params)
            ref = np.array([_mpmath_state(s.right_fn, s.n, xx, params.b0) for xx in x])
            assert np.all(np.isfinite(vals))
            assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_boundary_norms_past_the_factorial_float_range():
    # n! leaves the float range at n = 171, where 1/sqrt(n!) raised a bare OverflowError
    states = discrete_states(ModelParams(1.0, 0.6, 0.4), 171)
    assert all(0.0 < abs(s.right_fn.norm) < math.inf and 0.0 < abs(s.left_fn.norm) < math.inf
               for s in states)
    for n in (0, 1, 20, 170):
        assert _inverse_sqrt_factorial(n) == 1.0 / math.sqrt(math.factorial(n))
    with mpmath.workdps(30):
        ref = float(1 / mpmath.sqrt(mpmath.factorial(171)))
    assert _inverse_sqrt_factorial(171) == pytest.approx(ref, rel=1e-15)
    # 300 is the last n whose norm is a normal float, so it is every ladder's reach: the
    # index guard refuses n_max 400 by name before any state is built
    assert _inverse_sqrt_factorial(_LADDER_MAX) >= sys.float_info.min
    with pytest.raises(ValueError, match="^n_max must be at most 300, got 400$"):
        discrete_states(ModelParams(1.0, 0.6, 0.4), 400)
    # the norm keeps its own check, which a user-built delta functional still reaches
    with pytest.raises(NonConvergentError, match="n = 301"):
        _inverse_sqrt_factorial(_LADDER_MAX + 1)
    with pytest.raises(NonConvergentError, match="n = 400"):
        pair(DeltaDeriv(0.0, 400, 1.0), GaussPoly(-1.0, (1.0,), 1.0), ModelParams(1.0, 0.6, 0.4))


def test_delta_guards():
    s = next(s for s in discrete_states(pts.BOUNDARY_I_III_POINT, 1) if s.branch == "-")
    with pytest.raises(DeltaDerivNotEvaluableError):
        evaluate(s.right_fn, 0.0, pts.BOUNDARY_I_III_POINT)
    with pytest.raises(DeltaDerivNotEvaluableError):
        apply_hamiltonian(pts.BOUNDARY_I_III_POINT, s.right_fn, [0.0])


def test_discrete_states_region_guards():
    with pytest.raises(RegionError):
        discrete_states(pts.BOUNDARY_I_II_POINT, 3)
    with pytest.raises(RegionError):
        discrete_states(ModelParams(1.0, 0.5, 0.5), 3)
    with pytest.raises(ValueError):
        discrete_states(pts.REGION_I_POINTS[0], -1)


def test_discrete_states_threads_tol():
    # gap 5e-13: Boundary I-III at the default tol, Region I at tol 1e-14
    p = ModelParams(1.0 + 5e-13, 0.6, 0.4)
    boundary = discrete_states(p, 2)
    assert {s.region for s in boundary} == {RegionLabel.BOUNDARY_I_III}
    assert len(boundary) == 6
    states = discrete_states(p, 2, tol=1e-14)
    assert [s.region for s in states] == [RegionLabel.REGION_I] * 3
    assert all(np.isfinite(s.energy) for s in states)
    assert all(math.isfinite(s.right_fn.norm) for s in states)


def test_state_counts():
    assert len(discrete_states(pts.REGION_I_POINTS[0], 7)) == 8
    assert len(discrete_states(pts.REGION_II_POINT, 7)) == 16
    assert len(discrete_states(pts.BOUNDARY_I_III_POINT, 7)) == 16


def test_serialization_round_trip():
    s = discrete_states(pts.REGION_II_POINT, 1)[0]
    rec = s.to_dict()
    assert rec["region"] == "II"
    assert rec["variant"] == "GaussHermite"
    assert set(rec) == {"region", "n", "branch", "energy_re", "energy_im", "variant"}


def test_taylor_coefficients_of_plane_wave():
    # exp(-x^2 + i k x) expanded about 0
    p = ModelParams(1.0, 0.0, 0.0)
    f = PlaneWaveGauss(gauss=-2.0, k_wave=1.5, amp_plus=1.0, amp_minus=0.0)
    coeffs = taylor_coefficients(f, p, 4)
    k = 1.5
    assert coeffs[0] == pytest.approx(1.0)
    assert coeffs[1] == pytest.approx(1j * k)
    assert coeffs[2] == pytest.approx(-1.0 - k ** 2 / 2.0)
    assert coeffs[3] == pytest.approx(-1j * k - 1j * k ** 3 / 6.0)


@pytest.mark.parametrize("args,name", [
    ((math.nan, 1.0, 0.0), "energy"),
    ((math.inf, 1.0, 0.0), "energy"),
    ((1.0, math.nan, 0.0), "amp_plus"),
    ((1.0, 1.0, complex(0.0, math.inf)), "amp_minus"),
])
def test_free_particle_states_reject_nonfinite_inputs(args, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        free_particle_states(pts.BOUNDARY_I_II_POINT, *args)


@pytest.mark.parametrize("position,name", [(0, "c0"), (1, "c1"), (2, "d0"), (3, "d1")])
def test_ep_states_reject_nonfinite_coefficients(position, name):
    coeffs = [1.0, 0.0, 1.0, 0.0]
    coeffs[position] = math.nan
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ep_states(pts.BOUNDARY_I_II_POINT, *coeffs)


def test_taylor_coefficients_past_the_norm_float_range():
    # exp(-x^2) = sum_j (-1)^j x^(2j) / j!: every coefficient that is itself in the float
    # range is returned, though 1/sqrt(m!) underflows from m = 301
    coeffs = taylor_coefficients(GaussPoly(gauss=-2.0, coeffs=(1.0,), norm=1.0),
                                 ModelParams(1.0, 0.0, 0.0), 400)
    assert coeffs[300] == pytest.approx(1.75e-263, rel=1e-3)
    for m in range(401):
        exact = 0.0 if m % 2 else (-1) ** (m // 2) * float(Fraction(1, math.factorial(m // 2)))
        if abs(exact) >= sys.float_info.min:
            assert coeffs[m] == pytest.approx(exact, rel=1e-12), m
        else:       # subnormal or zero: within 1e-12 of the smallest normal number
            assert abs(coeffs[m] - exact) <= 1e-12 * sys.float_info.min, m


EVANESCENT_POINT = ModelParams(1.0, 1.0, 0.25)     # Omega = 0, omega - alpha - beta = -1/4


@pytest.mark.parametrize("amps", [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
def test_evanescent_wave_far_out(amps):
    # E = 528: k = 65i nearly, so e^{-ikx} = e^{65 x} overflows at x = 11 while the state,
    # with its Gaussian e^{-3 x^2/2}, is 4.56e231 there; e^{+ikx} times it underflows
    p = EVANESCENT_POINT
    f = free_particle_states(p, 528.0, *amps).right_fn
    x = np.array([5.0, 11.0, 12.0])
    exact = [sum(cmath.exp(cmath.log(amp) + sign * 1j * f.k_wave * xx + f.gauss * xx * xx / 2.0)
                 for amp, sign in zip(amps, (1.0, -1.0)) if amp) for xx in x]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = evaluate(f, x, p)
        h_vals = apply_hamiltonian(p, f, x)
        osc_vals = apply_oscillator(p, f, x)
    for val, ref in zip(vals, exact):
        assert val == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert np.all(np.isfinite(h_vals)) and np.all(np.isfinite(osc_vals))
    assert np.allclose(h_vals, 528.0 * vals, rtol=1e-12, atol=0.0)
    if amps == (1.0, 0.0):
        assert vals[1] == vals[2] == 0.0
    else:
        assert vals[1] == pytest.approx(4.564e231, rel=1e-3)


CYLINDER = continuum_state(pts.REGION_II_POINT, 0.3, "+", "phi")


@pytest.mark.parametrize("f", [DeltaDeriv(gauss=-1.0, n=2, norm=1.0), CYLINDER],
                         ids=["DeltaDeriv", "CylinderState"])
def test_non_polynomial_variants_are_rejected_as_documented(f):
    p = pts.REGION_II_POINT
    with pytest.raises(TypeError):
        polynomial_pieces(f, p)
    with pytest.raises(TypeError):
        _taylor_rows([f], -1.0, p, 3)
    with pytest.raises(TypeError):
        taylor_coefficients(f, p, 3)
    if isinstance(f, DeltaDeriv):
        with pytest.raises(DeltaDerivNotEvaluableError):
            evaluate(f, 0.5, p)
    else:           # the Weber path
        g, mu, slope, pref = _cyl_fields(f)
        assert evaluate(f, 0.5, p) == pytest.approx(
            pref * cmath.exp(g * 0.125) * complex(parabolic_cylinder_d(mu, 0.5 * slope)), rel=1e-14)
