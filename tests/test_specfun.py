import cmath
import json
import math
import re
import subprocess
import sys
import textwrap

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swanson import (PoleError, RegionError, SwansonError, gauss_hermite, hermite, log_gamma,
                     parabolic_cylinder_d, recip_gamma)
from swanson import specfun
from swanson.specfun import hermite_coefficients, hermite_rows

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Hermite polynomials
# ---------------------------------------------------------------------------

def test_hermite_low_orders():
    for z in (0.3, -1.7 + 0.4j, 2.0j):
        assert hermite(0, z) == 1.0
        assert hermite(1, z) == pytest.approx(2 * z)
        assert hermite(2, z) == pytest.approx(4 * z * z - 2)


def test_hermite_generating_function_oracle():
    # H_5(1.3) equals the 5th derivative of exp(2*1.3*t - t^2) at t = 0;
    # central divided differences, sampled in high precision so the h^5
    # cancellation does not eat the answer
    z = 1.3
    with mpmath.workdps(60):
        h = mpmath.mpf(1) / 10 ** 6

        def gen(k):
            t = k * h
            return mpmath.exp(2 * z * t - t * t)

        stencil = [-1, 4, -5, 0, 5, -4, 1]
        estimate = sum(c * gen(k - 3) for k, c in enumerate(stencil)) / (2 * h ** 5)
        estimate = float(estimate)
    assert hermite(5, z) == pytest.approx(estimate, abs=1e-8)


@given(st.integers(min_value=0, max_value=12),
       st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=80, deadline=None)
def test_hermite_conjugation(n, z):
    assert hermite(n, np.conjugate(z)) == pytest.approx(np.conjugate(hermite(n, z)))


def test_hermite_rows_are_the_normalized_hermite_polynomials():
    z = np.array([0.3 - 1.2j, 2.5 + 0.1j, -4.0, 0.0])
    rows = hermite_rows(40, z)
    assert rows.shape == (41, 4)
    for k in range(41):
        expect = hermite(k, z) / math.sqrt(2.0 ** k * math.factorial(k))
        assert np.max(np.abs(rows[k] - expect)) <= 1e-13 * np.max(np.abs(expect))
    assert hermite_rows(0, 1.5).shape == (1,)


def test_hermite_coefficient_expansion():
    for n in range(8):
        coeffs = hermite_coefficients(n)
        z = 0.8 - 0.3j
        assert hermite(n, z) == pytest.approx(sum(c * z ** k for k, c in enumerate(coeffs)))


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6,
              -3617.0 / 510)


def stirling_log_gamma(z: complex) -> complex:
    """Independent oracle: Stirling series after an upward recursion shift."""
    z = complex(z)
    shift = 0
    while (z + shift).real < 25.0:
        shift += 1
    zs = z + shift
    series = sum(b / ((2 * k + 1) * (2 * k + 2) * zs ** (2 * k + 1))
                 for k, b in enumerate(_BERNOULLI))
    val = (zs - 0.5) * cmath.log(zs) - zs + 0.5 * math.log(2 * math.pi) + series
    for k in range(shift):
        val -= cmath.log(z + k)
    return val


def test_log_gamma_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(math.log(SQRT_PI), rel=1e-13)
    assert log_gamma(1 + 1j) == pytest.approx(stirling_log_gamma(1 + 1j), rel=1e-12)


@pytest.mark.parametrize("z", [2.7, -0.3 + 1.2j, 0.5 - 4.0j, -3.6 - 0.7j, 10.0 + 10.0j, -7.2])
def test_log_gamma_vs_stirling_oracle(z):
    assert log_gamma(z) == pytest.approx(stirling_log_gamma(z), rel=1e-12, abs=1e-12)


def test_log_gamma_recursion_identity():
    for z in (0.3 + 0.7j, -1.4 + 0.2j, 2.5):
        assert log_gamma(z + 1) == pytest.approx(log_gamma(z) + cmath.log(z), rel=1e-13)


def test_log_gamma_poles():
    for z in (0.0, -1.0, -5.0):
        with pytest.raises(PoleError):
            log_gamma(z)


def test_recip_gamma():
    assert recip_gamma(0.5) == pytest.approx(1.0 / SQRT_PI, rel=1e-13)
    for n in (0, -1, -2, -7):
        assert recip_gamma(float(n)) == 0.0


def _gamma_batch() -> np.ndarray:
    # shifts 0 .. 12 into the Lanczos half-plane, with and without imaginary parts
    re = np.linspace(-11.4, 9.6, 43)
    z = (re[:, None] + 1j * np.array([0.0, 0.7, -3.1, 24.0])[None, :]).ravel()
    return np.concatenate([z, [-0.3, -2.5, -7.2, -11.2, 0.5, 1.0]])


def test_gamma_array_calls_equal_scalar_calls_bit_for_bit():
    z = _gamma_batch()
    shifts = np.maximum(np.ceil(0.5 - z.real), 0.0)
    assert set(shifts) == set(range(13))
    lg = log_gamma(z)
    assert lg.shape == z.shape
    assert np.array_equal(lg, [log_gamma(complex(v)) for v in z])
    assert isinstance(log_gamma(complex(z[0])), complex)
    assert np.array_equal(log_gamma(z.reshape(2, -1)), lg.reshape(2, -1))

    z = np.concatenate([z, [0.0, -1.0, -7.0]])
    rg = recip_gamma(z)
    assert np.array_equal(rg, [recip_gamma(complex(v)) for v in z])
    assert np.all(rg[-3:] == 0.0) and np.all(rg[:-3] != 0.0)
    # any sub-batch gives the same bits as the whole
    for start, stop in ((0, 1), (5, 22), (100, 178)):
        assert np.array_equal(log_gamma(z[start:stop]), lg[start:stop])
        assert np.array_equal(recip_gamma(z[start:stop]), rg[start:stop])


@pytest.mark.parametrize("n", [1, 2, 6, 49, 800])
def test_lanczos_sum_equals_the_term_loop_bit_for_bit(n):
    # the partial fractions are formed as one (14, n) division and added row by row
    # in the order of a loop over the coefficients, real and complex arguments alike
    rng = np.random.default_rng(n)
    x = rng.uniform(0.5, 70.0, n)
    for z in (x, x + 1j * rng.uniform(-30.0, 30.0, n)):
        zm1 = z - 1.0
        s = specfun._LANCZOS_C[0]
        for k in range(1, len(specfun._LANCZOS_C)):
            s = s + float(specfun._LANCZOS_C[k]) / (zm1 + k)
        t = zm1 + specfun._LANCZOS_G + 0.5
        loop = 0.5 * math.log(2.0 * math.pi) + (zm1 + 0.5) * np.log(t) - t + np.log(s)
        got = specfun._log_gamma_lanczos(z)
        assert got.dtype == z.dtype and got.tobytes() == loop.tobytes()


def test_gamma_array_errors():
    with pytest.raises(PoleError):
        log_gamma(np.array([0.5 + 1.0j, 2.5, -3.0]))
    for bad in (math.inf, -math.inf, complex(1.0, math.nan), np.array([0.5, 1.0 - math.inf * 1j]),
                np.array([math.nan, 2.0])):
        with pytest.raises(ValueError, match="must be finite"):
            log_gamma(bad)
        with pytest.raises(ValueError, match="must be finite"):
            recip_gamma(bad)


@pytest.mark.parametrize("nu,z,name", [
    (0.5, math.nan, "argument z"), (0.5, math.inf, "argument z"),
    (0.5, complex(1.0, -math.inf), "argument z"), (math.nan, 1.0, "order nu"),
    (complex(-0.5, math.inf), 0.0, "order nu"),
    (np.array([0.5, 1.5]), np.array([1.0, math.nan]), "argument z"),
    (np.array([-0.5 + 2j, math.nan]), np.linspace(0.0, 3.0, 4)[:, None], "order nu"),
    (np.array([0.5, math.inf]), np.array([math.nan, 1.0]), "order nu"),
])
def test_weber_rejects_nonfinite_inputs_up_front(nu, z, name):
    # under the suite's error::RuntimeWarning filter: the check runs before any arithmetic
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        parabolic_cylinder_d(nu, z)


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order,message", [
    ("3", "order must be an integer, got '3'"),
    (0, "order must be at least 1, got 0"),
], ids=["str", "zero"])
def test_rule_order_outside_its_domain_is_refused_by_name(order, message):
    # a non-integer order passed the range test and numpy's hermgauss raised a bare TypeError;
    # floats, negatives and the top are rows of the index table in test_strata
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gauss_hermite(order)


@pytest.mark.parametrize("cached,order", [(3, 3.0), (np.int64(3), np.float64(3.0))],
                         ids=["float", "np.float64"])
def test_a_float_order_is_refused_even_when_its_integer_rule_is_cached(cached, order):
    # np.float64(3.0) and np.int64(3) make equal keys of an untyped cache, which then
    # handed back the rule of order 3
    assert gauss_hermite(cached).order == 3
    with pytest.raises(ValueError, match="^order must be an integer, got "):
        gauss_hermite(order)


def test_rule_n1():
    rule = gauss_hermite(1)
    assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-14)


def test_rule_n2_closed_form():
    rule = gauss_hermite(2)
    assert sorted(rule.nodes) == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-14)
    assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], rel=1e-14)


def test_fourth_moment():
    rule = gauss_hermite(3)
    moment = np.sum(rule.weights * rule.nodes ** 4)
    assert moment == pytest.approx(3 * SQRT_PI / 4, rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 160])
def test_zeroth_moment_and_symmetry(n):
    rule = gauss_hermite(n)
    assert np.sum(rule.weights) == pytest.approx(SQRT_PI, rel=1e-13)
    assert np.max(np.abs(np.sort(rule.nodes) + np.sort(rule.nodes)[::-1])) < 1e-12


def test_polynomial_exactness():
    # 2k-th Gaussian moment is (2k-1)!! sqrt(pi)/2^k; degree 12 needs N >= 7
    rule = gauss_hermite(7)
    k = 6
    double_fact = math.prod(range(2 * k - 1, 0, -2))
    assert np.sum(rule.weights * rule.nodes ** 12) == pytest.approx(
        double_fact * SQRT_PI / 2 ** k, rel=1e-12)


def test_rule_bounds():
    with pytest.raises(ValueError):
        gauss_hermite(0)
    with pytest.raises(ValueError):
        gauss_hermite(501)


# ---------------------------------------------------------------------------
# parabolic cylinder function
# ---------------------------------------------------------------------------

def integral_oracle_d(nu: complex, z: complex) -> complex:
    """D_nu(z) from the real-integral representation (valid Re nu < 0),
    extended upward by the order recurrence; independent of the
    implementation's series/asymptotic machinery.

    For Re z < 0 the integrand peaks at exp((Re z)^2/2) while the result is
    O(1), so the working precision grows with the cancellation depth.
    """
    nu = complex(nu)
    if nu.real < 0.0:
        cancellation_digits = int(max(0.0, -z.real) ** 2 / (2.0 * math.log(10.0))
                                  + 0.5 * math.pi * abs(nu.imag) / math.log(10.0)) + 1
        dps = 40 + cancellation_digits
        with mpmath.workdps(dps):
            mnu = mpmath.mpc(nu)
            mz = mpmath.mpc(z)
            # on [0, 1]: expand exp(-t^2/2 - z t) = sum c_k t^k and integrate
            # the endpoint-singular powers exactly, term by term
            c_prev = mpmath.mpc(0)
            c_cur = mpmath.mpc(1)
            series = c_cur / (0 - mnu)
            for k in range(1, 60 + 4 * int(abs(z))):
                c_next = (-mz * c_cur - c_prev) / k
                series += c_next / (k - mnu)
                c_prev, c_cur = c_cur, c_next
            # on [1, T]: smooth integrand, T set by the Gaussian tail
            t_cut = max(0.0, -z.real) + math.sqrt(2.0 * (dps + 10) * math.log(10.0)) + 5.0
            integral = mpmath.quad(
                lambda t: t ** (-mnu - 1) * mpmath.exp(-t * t / 2 - mz * t),
                [1, t_cut], maxdegree=10)
            return complex(mpmath.exp(-mz * mz / 4) / mpmath.gamma(-mnu) * (series + integral))
    # D_{nu}(z) = z D_{nu-1}(z) - (nu-1) D_{nu-2}(z)
    return z * integral_oracle_d(nu - 1.0, z) - (nu - 1.0) * integral_oracle_d(nu - 2.0, z)


def test_d_reductions():
    for z in (0.4, 2.5 - 1.0j, -3.0 + 0.5j):
        assert parabolic_cylinder_d(0.0, z) == pytest.approx(cmath.exp(-z * z / 4), rel=1e-12)
        assert parabolic_cylinder_d(1.0, z) == pytest.approx(z * cmath.exp(-z * z / 4), rel=1e-12)
    assert parabolic_cylinder_d(-1.0, 0.0) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)


@pytest.mark.parametrize("nu,r,angle", [
    # below R_in: the march along arg z, all sectors
    (-0.5 + 0.0j, 0.7, 0.0),
    (-0.5 - 2.0j, 3.0, 0.25),
    (0.8 + 0.5j, 3.0, -0.75),
    (-2.3 + 4.0j, 6.5, 0.5),
    (-6.0 + 0.0j, 6.0, 0.0),          # recessive direction, deep cancellation
    # beyond R_in: the tail series, including on the anti-Stokes rays
    (-0.5 - 2.0j, 12.0, 0.75),
    (-0.5 + 0.0j, 20.0, -0.75),
    (0.8 + 0.5j, 16.0, -0.25),
    (-2.3 + 4.0j, 20.0, 0.25),
    (-0.5 - 2.0j, 14.0, 1.0),
    # |Im nu| = 20 below R_in, off the rays
    (-0.5 + 20.0j, 9.0, 0.5),
    (-0.5 + 20.0j, 16.0, 0.0),
])
def test_d_against_integral_oracle(nu, r, angle):
    z = r * cmath.exp(1j * math.pi * angle)
    ref = integral_oracle_d(nu, z)
    val = parabolic_cylinder_d(nu, z)
    assert val == pytest.approx(ref, rel=2e-8, abs=1e-290)


def test_d_recurrence_residual_lattice():
    rng_nu = [-0.5 + 0.4j, -1.5 - 2.0j, 1.2 + 1.0j, -0.5 - 6.0j]
    rng_z = [0.5, 1.8 * cmath.exp(0.25j * math.pi), 5.0 * cmath.exp(-0.75j * math.pi),
             9.0 * cmath.exp(0.5j * math.pi), 14.0]
    for nu in rng_nu:
        for z in rng_z:
            d_m = parabolic_cylinder_d(nu - 1.0, z)
            d_0 = parabolic_cylinder_d(nu, z)
            d_p = parabolic_cylinder_d(nu + 1.0, z)
            scale = max(abs(d_m), abs(d_0), abs(d_p))
            assert abs(d_p - z * d_0 + nu * d_m) <= 1e-8 * scale


def test_d_vectorized_matches_scalar():
    zs = np.array([0.5 + 0.2j, -4.0 + 4.0j, 11.0j])
    vals = parabolic_cylinder_d(-0.5 + 1.5j, zs)
    for z, v in zip(zs, vals):
        assert parabolic_cylinder_d(-0.5 + 1.5j, complex(z)) == pytest.approx(v, rel=1e-13)


def test_fourier_eigenfunction_property():
    # the unitary Fourier transform of the n-th Hermite function is i^n times
    # itself; computed by dense scaled Gauss-Hermite quadrature
    rule = gauss_hermite(160)
    t = rule.nodes * math.sqrt(2.0)   # weight exp(-t^2/2) after scaling
    w = rule.weights * math.sqrt(2.0)

    def phi(n, z):
        return np.exp(-np.asarray(z, dtype=complex) ** 2 / 2) * hermite(n, z) \
            / math.sqrt(2.0 ** n * math.factorial(n) * SQRT_PI)

    for n in range(11):
        rest = np.exp(t ** 2 / 2) * phi(n, t)   # integrand with exp(-t^2/2) stripped
        for p in (0.0, 0.7, -1.9, 3.3):
            ft = np.sum(w * rest * np.exp(1j * p * t)) / math.sqrt(2 * math.pi)
            assert ft == pytest.approx((1j) ** n * phi(n, p), abs=1e-8)


# ---------------------------------------------------------------------------
# Taylor march on the anti-Stokes rays
# ---------------------------------------------------------------------------

RAY_ANGLES = (0.25, 0.75, -0.25, -0.75)


def mp_d(nu: complex, z: complex) -> complex:
    with mpmath.workdps(30):
        return complex(mpmath.pcfd(mpmath.mpc(nu), mpmath.mpc(z)))


def inner_radius(nu: complex) -> float:
    return float(specfun._MARCH_STEP * specfun._march_nodes(np.array([nu]))[0])


def assert_ray_oracle(nu: complex, radii, rel: float = 1e-10):
    for angle in RAY_ANGLES:
        z = np.asarray(radii) * cmath.exp(1j * math.pi * angle)
        vals = parabolic_cylinder_d(nu, z)
        for zz, v in zip(z, vals):
            ref = mp_d(nu, zz)
            assert abs(v - ref) <= rel * abs(ref), (nu, zz, v, ref)


@pytest.mark.parametrize("re_nu", [-0.5, -1.5, -2.5])
@pytest.mark.parametrize("im_nu", [-20.0, -9.1, 0.0, 3.7, 15.0])
def test_d_rays_against_mpmath(re_nu, im_nu):
    nu = complex(re_nu, im_nu)
    r_in = inner_radius(nu)
    radii = [0.0, 0.9, 2.6, 4.1, 6.8, 9.7, 12.3, 15.5, 18.2, 20.0,
             r_in * (1.0 - 1e-12), r_in]
    assert_ray_oracle(nu, radii)


@given(re_nu=st.floats(min_value=-6.0, max_value=3.0),
       im_nu=st.floats(min_value=-20.0, max_value=20.0),
       r=st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=25, deadline=None)
def test_d_rays_property(re_nu, im_nu, r):
    assert_ray_oracle(complex(re_nu, im_nu), [r])


def test_d_rays_conjugation_is_exact():
    x = np.concatenate([np.linspace(-9.0, 9.0, 37), [0.0, 1e-3, 13.5]])
    for nu in (-0.5 + 0.9j, -1.5 - 7.25j, 0.8 + 0.5j, -2.5 + 0.0j):
        for slope in (cmath.exp(0.25j * math.pi), math.sqrt(2.0) * cmath.exp(0.75j * math.pi)):
            z = slope * x
            d = parabolic_cylinder_d(nu, z)
            d_bar = parabolic_cylinder_d(np.conjugate(nu), np.conjugate(z))
            assert np.array_equal(d_bar, np.conjugate(d))
    ladder = np.array([-0.5 + 3.1j, -1.5 + 3.1j, -2.5 + 3.1j])[:, None]
    z = math.sqrt(2.0) * cmath.exp(0.75j * math.pi) * x
    assert np.array_equal(parabolic_cylinder_d(ladder.conj(), z.conj()),
                          np.conjugate(parabolic_cylinder_d(ladder, z)))


def test_d_array_orders_match_per_order_calls():
    orders = np.array([-0.5 - 8.7j, -0.5 + 0.2j, -1.5 + 4.0j, -2.5 - 19.0j, 0.3 + 1.0j])
    z = np.concatenate([
        np.linspace(-14.0, 14.0, 57) * cmath.exp(-0.25j * math.pi),
        np.linspace(0.5, 8.0, 4) * cmath.exp(0.3j),          # off the rays
    ])
    table = parabolic_cylinder_d(orders[:, None], z)
    assert table.shape == (len(orders), len(z))
    for nu, row in zip(orders, table):
        single = parabolic_cylinder_d(nu, z)
        assert np.all(np.abs(row - single) <= 1e-13 * np.abs(single))
    # a scalar order against a scalar argument still returns a Python complex
    assert isinstance(parabolic_cylinder_d(orders[0], 1.0 + 1.0j), complex)


def test_d_tail_series_values_do_not_depend_on_the_call():
    # points beyond R_in are summed by the tail series, each entry stopping at
    # its own tolerance; the off-ray points below R_in are marched, one march
    # per order and direction
    nus, zs = [], []
    for nu in (-0.5, -1.5 + 3.7j, -2.5 - 9.1j, 0.3 + 15.0j, 2.0 - 20.0j, -6.0 + 0.5j):
        for r in (inner_radius(nu) + 0.01, inner_radius(nu) + 1.3, 25.0, 40.0):
            for turn in (0.25, 0.75, -0.25, -0.75):
                nus.append(nu)
                zs.append(r * cmath.exp(1j * math.pi * turn))
        for r in (12.0, 19.5, 30.0):
            for turn in (0.0, 0.1, 0.4, 0.6, 0.9, -0.3, -0.95, 1.0):
                nus.append(nu)
                zs.append(r * cmath.exp(1j * math.pi * turn))
    nus, zs = np.array(nus), np.array(zs)
    on_ray = np.abs(np.abs(zs.real) - np.abs(zs.imag)) <= 1e-9 * np.abs(zs)
    for part in (on_ray, ~on_ray, np.ones_like(on_ray)):
        together = parabolic_cylinder_d(nus[part], zs[part])
        alone = [parabolic_cylinder_d(nu, z) for nu, z in zip(nus[part], zs[part])]
        assert together.tolist() == alone


def tail_series_by_terms(order, z, tol):
    """The tail series one term at a time, as it was summed before the blocks:
    (S, smallest term seen, number of terms kept) per entry."""
    inv = 1.0 / (2.0 * z * z)
    term = np.ones_like(z)
    total = np.ones_like(z)
    best = np.full(z.shape, np.inf)
    done = np.zeros(z.shape, dtype=bool)
    kept = np.zeros(z.shape, dtype=int)
    for k in range(60):
        # named, not a temporary: numpy may reuse a large temporary right operand
        # and multiply it as ratio * term, which rounds differently
        ratio = -(-order + 2 * k) * (-order + 2 * k + 1) / (k + 1.0)
        term = term * ratio * inv
        mag = np.abs(term)
        done |= mag > best
        np.minimum(best, mag, out=best)
        np.add(total, term, out=total, where=~done)
        kept += ~done
        converged = best <= tol
        if converged.all():
            break
        done |= converged
    return total, best, kept


def test_d_tail_series_matches_the_term_loop():
    tol = specfun._SERIES_TOL
    nus, zs = [], []
    # converging: just past R_in and far out, on and off the rays
    for nu in (-0.5 + 40.0j, -0.5 - 25.0j, 8.0 + 20.0j, -6.0 - 20.0j, -0.5, 40.0, 3.0 + 10.0j):
        for r in (inner_radius(nu) + 0.01, 30.0, 80.0):
            for turn in (0.25, 0.5, -0.75, 0.0):
                nus.append(nu)
                zs.append(r * cmath.exp(1j * math.pi * turn))
    # stopping at the smallest term (after one term, or after 54), and the 60-term cap
    for nu, r in ((-0.5 + 40.0j, 11.0), (-0.5 + 40.0j, 12.0), (-0.5 - 25.0j, 11.0),
                  (-6.0 - 20.0j, 11.0), (-6.0 - 20.0j, 12.0)):
        nus.append(nu)
        zs.append(r * cmath.exp(0.25j * math.pi))
    nus, zs = np.array(nus, dtype=complex), np.array(zs)
    ref, ref_err, kept = tail_series_by_terms(nus, zs, tol)
    stopped = ref_err > tol
    assert np.any(~stopped) and np.any(stopped & (kept < 60)) and np.any(stopped & (kept == 60))
    s, err = specfun._dv_tail_series(nus, zs, tol)
    # each term rounds as in the term loop and the kept ones add in its order
    assert s.tolist() == ref.tolist()
    assert np.array_equal(err <= tol, ref_err <= tol)
    # at a looser tolerance a term summed past convergence would show
    ref = tail_series_by_terms(nus, zs, specfun._ASYMPTOTIC_TOL)[0]
    s = specfun._dv_tail_series(nus, zs, specfun._ASYMPTOTIC_TOL)[0]
    assert s.tolist() == ref.tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_d_tail_series_on_a_large_call():
    # 10^5 entries over the box and the rays, beyond R_in in every direction
    rng = np.random.default_rng(13)
    n = 100_000
    nus = np.where(rng.random(n) < 0.5,
                   rng.uniform(-6.0, 8.0, n) + 1j * rng.uniform(-20.0, 20.0, n),
                   -0.5 + 1j * rng.uniform(-40.0, 40.0, n))
    r_in = specfun._MARCH_STEP * specfun._march_nodes(nus)
    zs = (r_in + rng.uniform(0.0, 40.0, n)) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    tol = specfun._SERIES_TOL
    ref, ref_err, _ = tail_series_by_terms(nus, zs, tol)
    s, err = specfun._dv_tail_series(nus, zs, tol)
    assert s.tolist() == ref.tolist()
    assert np.array_equal(err <= tol, ref_err <= tol)
    # an entry sums the same alone as among 10^5 others
    for i in (0, specfun._TAIL_CHUNK - 1, specfun._TAIL_CHUNK, n - 1):
        alone = specfun._dv_tail_series(nus[i:i + 1], zs[i:i + 1], tol)
        assert alone[0][0] == s[i] and alone[1][0] == err[i]


def test_d_marched_ray_values_do_not_depend_on_the_call():
    # marches of 35 to 102 lattice steps advance together, each padded with the
    # identity past its own end; every point lies inside R_in of every order
    orders = np.array([-0.5 - 8.7j, -0.5 + 0.2j, -1.5 + 4.0j, -2.5 - 19.0j, 0.3 + 1.0j,
                       -0.5 + 36.0j])
    x = np.linspace(-8.0, 8.0, 41)
    z = np.concatenate([x * cmath.exp(0.25j * math.pi), x * cmath.exp(0.75j * math.pi)])
    assert np.all(np.abs(z) < min(inner_radius(nu) for nu in orders))
    assert len(set(specfun._march_nodes(orders))) == len(orders)
    table = parabolic_cylinder_d(orders[:, None], z)
    for nu, row in zip(orders, table):
        assert row.tolist() == parabolic_cylinder_d(nu, z).tolist()


def test_d_rays_wrong_direction_falls_back(monkeypatch):
    nu = -0.5 + 20.0j        # exponential core on the pi/4 ray: one direction is unstable
    calls = []
    solve = specfun._two_point

    def spy(t_w, t_v, ends):
        calls.append(ends)
        return solve(t_w, t_v, ends)

    rule = specfun._march_outward
    monkeypatch.setattr(specfun, "_two_point", spy)
    monkeypatch.setattr(specfun, "_march_outward", lambda d_end, d_zero: ~rule(d_end, d_zero))
    radii = [0.0, 1.3, 4.4, 7.9, 11.0]
    assert_ray_oracle(nu, radii)
    assert calls, "the guard should have sent the wrong-direction march to the two-point solve"


def test_continuum_state_past_the_cliff_avoids_mpmath():
    # the library computes every Weber value itself: with mpmath unimportable,
    # continuum states past |nu| = 8, the delta probe and off-ray values come out
    script = textwrap.dedent("""
        import json, sys
        sys.modules["mpmath"] = None
        import numpy as np
        from swanson import (ModelParams, continuum_state, delta_normalization_probe, evaluate,
                             parabolic_cylinder_d)
        p = ModelParams(1.0, -2.0, -0.5)        # |Omega| = sqrt(3): E = 15 is |nu| > 8
        vals = evaluate(continuum_state(p, 15.0, "+", "phi"), np.linspace(-6.0, 6.0, 11), p)
        probe = delta_normalization_probe(p, 0.0, 0.2 * 3.0 ** 0.5)
        off = parabolic_cylinder_d(np.array([-0.5 + 1.5j, -5.5 - 12.0j, 6.0 + 19.0j]),
                                   np.array([3.0 + 1.0j, -5.0 + 9.0j, 0.5 - 14.0j]))
        print(json.dumps([[v.real, v.imag] for v in [*vals, probe, *off]]))
    """)
    cp = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    got = [complex(*pair) for pair in json.loads(cp.stdout)]

    from swanson import ModelParams, continuum_state
    from swanson.eigensystems import _cyl_fields
    p = ModelParams(1.0, -2.0, -0.5)
    gauss, mu, slope, pref = _cyl_fields(continuum_state(p, 15.0, "+", "phi"))
    assert gauss == 0.0
    for xx, v in zip(np.linspace(-6.0, 6.0, 11), got[:11]):
        ref = pref * mp_d(mu, slope * xx)
        assert abs(v - ref) <= 1e-10 * abs(ref)
    assert abs(got[11] - 1.0) <= 0.05
    for nu, z, v in zip((-0.5 + 1.5j, -5.5 - 12.0j, 6.0 + 19.0j),
                        (3.0 + 1.0j, -5.0 + 9.0j, 0.5 - 14.0j), got[12:]):
        ref = mp_d(nu, z)
        assert abs(v - ref) <= 1e-8 * abs(ref)


# ---------------------------------------------------------------------------
# the order box: every direction, typed errors outside
# ---------------------------------------------------------------------------

@given(re_nu=st.floats(min_value=-6.0, max_value=8.0),
       im_nu=st.floats(min_value=-20.0, max_value=20.0),
       r=st.floats(min_value=0.0, max_value=20.0),
       angle=st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=500, deadline=None)
@example(re_nu=1e-12, im_nu=0.0, r=1.0, angle=3.0)     # the march end lost nu to nu + 1
@example(re_nu=0.0, im_nu=1.4376079026738313e-37, r=12.0, angle=3.0)  # dD/dnu ~ 2e14
def test_d_box_property(re_nu, im_nu, r, angle):
    nu = complex(re_nu, im_nu)
    z = r * cmath.exp(1j * angle)
    val = parabolic_cylinder_d(nu, z)
    # the oracle at the drawn point with parts below 1e-30 set to 0, carried back to the
    # drawn point to first order: mpmath's pcfd takes longer the smaller a nonzero part
    # (1.1 s at 1e-100, 13-51 s at subnormal ones).  The nu term is needed: for
    # |arg z| > 3pi/4 the growing solution enters D_nu with weight 1/Gamma(-nu) ~ -nu, so
    # at nu = 1.4e-37i, z = 12 e^{3i} it moves D = 9.7e-16 by 3.1e-23 (dD/dnu ~ 2e14)
    nu_o, z_o = (complex(*(0.0 if abs(c) < 1e-30 else c for c in (w.real, w.imag)))
                 for w in (nu, z))
    ref = mp_d(nu_o, z_o)
    slope = 0.5 * z_o * ref - mp_d(nu_o + 1.0, z_o)
    if nu != nu_o:
        with mpmath.workdps(30):
            d_nu = complex(mpmath.diff(lambda v: mpmath.pcfd(v, mpmath.mpc(z_o)),
                                       mpmath.mpc(nu_o)))
        ref += d_nu * (nu - nu_o)
    ref += slope * (z - z_o)
    # relative to |D|; at a zero of D (D_2(1) = 0) to 1e-6 |D'| instead
    assert abs(val - ref) <= 1e-8 * (abs(ref) + 1e-6 * abs(slope)), (nu, z, val, ref)


def test_d_far_order_is_a_typed_error():
    # far outside the box, a tail series whose smallest term (5.1e-11) passed a
    # 1e-10 acceptance gave 4.65e-84-1.00e-84i here, against mpmath's
    # 2.53e-85-5.31e-85i: a relative error of 7.5
    with pytest.raises(SwansonError):
        parabolic_cylinder_d(-36.7121 + 11.6326j, 18.4456 + 0.4277j)


def test_d_gamma_calls_do_not_grow_with_the_orders(monkeypatch):
    # the closed form at z = 0, the march start and the connection formula
    # each take 1/Gamma for a whole array of orders in one call
    calls = []

    def spy(z):
        calls.append(np.size(z))
        return rule(z)

    rule = specfun.recip_gamma
    monkeypatch.setattr(specfun, "recip_gamma", spy)
    ray = cmath.exp(0.75j * math.pi)
    z = np.array([0.0, 3.0 * ray, 25.0 * ray])
    counts = []
    for n in (4, 48):
        calls.clear()
        nu = np.linspace(-2.0, 3.0, n) + 1j * np.linspace(-5.0, 5.0, n)
        parabolic_cylinder_d(nu[:, None], z[None, :])
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _count_gamma_work(monkeypatch) -> dict:
    # recip_gamma calls (each one a Lanczos evaluation) and Lanczos evaluations in all
    counts = {"recip_gamma": 0, "lanczos": 0}
    recip, lanczos = specfun.recip_gamma, specfun._log_gamma_lanczos

    def recip_spy(z):
        counts["recip_gamma"] += 1
        return recip(z)

    def lanczos_spy(z):
        counts["lanczos"] += 1
        return lanczos(z)

    monkeypatch.setattr(specfun, "recip_gamma", recip_spy)
    monkeypatch.setattr(specfun, "_log_gamma_lanczos", lanczos_spy)
    return counts


def test_d_takes_one_recip_gamma_per_call(monkeypatch):
    # the z = 0 closed form, every march start and both connection formulas read
    # one table of 1/Gamma for the call's distinct orders
    counts = _count_gamma_work(monkeypatch)
    up, left = cmath.exp(0.25j * math.pi), cmath.exp(0.75j * math.pi)
    z = np.concatenate([[0.0], np.linspace(0.3, 25.0, 12) * up, np.linspace(0.3, 25.0, 12) * left,
                        [3.0 + 1.0j, -4.0 + 0.5j, -30.0 + 2.0j]])
    nu = np.array([-0.5 - 2.3j, 1.5 + 0.4j, -3.0, 2.0])
    assert np.any(np.abs(z) > specfun._MARCH_STEP * specfun._march_nodes(nu).max())   # beyond R_in
    for orders, args in ((nu[:, None], z[None, :]), (nu[0], z), (-0.5 + 1.0j, 0.0),
                         (2.0 - 1.0j, -20.0 + 1.0j)):
        counts.update(recip_gamma=0, lanczos=0)
        parabolic_cylinder_d(orders, args)
        assert counts == {"recip_gamma": 1, "lanczos": 1}

    # the probe's one Weber call: 49 energies times two orders, at the box ends
    from swanson import ModelParams, continuum, delta_normalization_probe

    weber, shapes = continuum.parabolic_cylinder_d, []

    def weber_spy(order, arg):
        shapes.append(np.broadcast_shapes(np.shape(order), np.shape(arg)))
        return weber(order, arg)

    monkeypatch.setattr(continuum, "parabolic_cylinder_d", weber_spy)
    counts.update(recip_gamma=0)
    delta_normalization_probe(ModelParams(1.0, -2.0, -0.5), 0.0, 0.346)
    assert shapes == [(2, 49, 2)] and counts["recip_gamma"] == 1


def test_continuum_state_takes_two_lanczos_evaluations(monkeypatch):
    # log Gamma(nu + 1) of the prefactor and the Weber call's 1/Gamma table
    from swanson import ModelParams, continuum_state, derive, evaluate

    p = ModelParams(1.0, -2.0, -0.5)
    state = continuum_state(p, 2.5)
    counts = _count_gamma_work(monkeypatch)
    evaluate(state, np.linspace(-6.0, 6.0, 201) * p.b0 / derive(p).sigma, p)
    assert counts == {"recip_gamma": 1, "lanczos": 2}


def test_d_orders_outside_the_box_raise_before_any_march(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Weber work started for an order outside the box")

    for name in ("_ray_march", "_dv_asymptotic", "_dv_at_zero"):
        monkeypatch.setattr(specfun, name, forbidden)
    ray = cmath.exp(0.25j * math.pi)
    for nu, z in [(-6.5, 3.0), (8.5 + 1.0j, 3.0 + 1.0j), (-1.0 + 20.5j, 2.0j),
                  (-1.0 - 20.5j, 25.0), (-0.5 + 30.0j, 4.0 + 1.0j),     # off the rays
                  (-0.5 + 40.5j, 3.0 * ray), (41.0, 0.0)]:              # |nu| > 40 on them
        with pytest.raises(RegionError):
            parabolic_cylinder_d(nu, z)
    # one point outside the box rejects the whole call
    with pytest.raises(RegionError):
        parabolic_cylinder_d(np.array([-0.5, -13.0]), np.array([0.0, 2.0]))
    with pytest.raises(RegionError):
        parabolic_cylinder_d(np.array([-0.5 + 30.0j]), np.array([3.0 * ray, 3.0 + 1.0j]))
