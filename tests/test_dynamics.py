import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

import conftest as pts
from swanson import (
    DeltaDeriv,
    ModelParams,
    NonConvergentError,
    ObservableKind,
    RegionError,
    apply_observable,
    derive,
    discrete_states,
    evolve_expectation,
    evolve_sector,
    gram,
    make_state,
    matrix_element,
    metric_norm,
    pair,
)
from swanson.eigensystems import _values, evaluate

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# ladder matrix elements
# ---------------------------------------------------------------------------

def test_printed_constants_at_sigma_one():
    p = pts.SIGMA1_REGION_I
    assert derive(p).sigma == pytest.approx(1.0, rel=1e-14)
    assert matrix_element(ObservableKind.X, 1, 0, p) == pytest.approx(p.b0 / SQRT2)
    assert matrix_element(ObservableKind.X2, 3, 3, p) == pytest.approx(p.b0 ** 2 * 7.0 / 2.0)
    assert matrix_element(ObservableKind.P, 1, 0, p) == pytest.approx(1j * p.hbar / SQRT2)
    assert matrix_element(ObservableKind.P2, 2, 2, p) == pytest.approx(p.hbar ** 2 * 5.0 / 2.0)


def test_selection_rules():
    p = pts.REGION_I_POINTS[0]
    assert matrix_element(ObservableKind.X, 3, 0, p) == 0.0
    assert matrix_element(ObservableKind.P, 2, 0, p) == 0.0
    assert matrix_element(ObservableKind.X2, 3, 0, p) == 0.0
    assert matrix_element(ObservableKind.P2, 5, 0, p) == 0.0


@pytest.mark.parametrize("params", pts.REGION_I_POINTS + pts.REGION_III_POINTS)
def test_ladder_formulas_against_quadrature_oracle(params):
    states = discrete_states(params, 8)
    for kind in ObservableKind:
        for m in range(9):
            for n in range(9):
                oracle = pair(states[m].left_fn,
                              apply_observable(params, states[n].right_fn, kind), params)
                assert oracle == pytest.approx(matrix_element(kind, m, n, params), abs=1e-8)


def test_commutator_is_i_hbar():
    # X P - P X applied to basis functions equals i hbar times them, as an
    # exact identity on the polynomial coefficients
    p = pts.REGION_I_POINTS[0]
    for s in discrete_states(p, 4):
        f = s.right_fn
        xp = apply_observable(p, apply_observable(p, f, ObservableKind.P), ObservableKind.X)
        px = apply_observable(p, apply_observable(p, f, ObservableKind.X), ObservableKind.P)
        from swanson.eigensystems import polynomial_pieces

        (_, _, base), = polynomial_pieces(f, p)
        (_, _, cxp), = polynomial_pieces(xp, p)
        (_, _, cpx), = polynomial_pieces(px, p)
        comm = np.zeros(max(len(cxp), len(cpx)), dtype=complex)
        comm[: len(cxp)] += cxp
        comm[: len(cpx)] -= cpx
        expect = np.zeros_like(comm)
        expect[: len(base)] = 1j * p.hbar * base
        assert np.max(np.abs(comm - expect)) <= 1e-12 * np.max(np.abs(base))


@pytest.mark.parametrize("params", [pts.REGION_I_POINTS[0], pts.REGION_III_POINTS[0]],
                         ids=["region-I", "region-III"])
@pytest.mark.parametrize("n", [10, 60, 115])
def test_apply_observable_against_pointwise_oracle(params, n):
    # X f = x f and P f = -i hbar f' + i hbar c x f / b0^2 point by point, f' from
    # the closed form's grid derivative, over the state's whole support
    f = discrete_states(params, n)[n].right_fn
    reach = 1.2 * math.sqrt(2.0 * n + 1.0) * params.b0 / derive(params).sigma
    x = np.linspace(-reach, reach, 241)
    val, d1, _ = _values(f, x.astype(complex), params, 2)
    c, hbar = derive(params).upsilon_coeff, params.hbar
    x_oracle = x * val
    p_oracle = -1j * hbar * d1 + 1j * hbar * c * x * val / params.b0 ** 2
    x_f = evaluate(apply_observable(params, f, ObservableKind.X), x, params)
    p_f = evaluate(apply_observable(params, f, ObservableKind.P), x, params)
    assert np.max(np.abs(x_f - x_oracle)) <= 1e-12 * np.max(np.abs(x_oracle))
    assert np.max(np.abs(p_f - p_oracle)) <= 1e-12 * np.max(np.abs(p_oracle))


def test_apply_observable_keeps_the_basis_of_f():
    p = pts.REGION_I_POINTS[0]
    f = discrete_states(p, 3)[3].right_fn
    for kind in ObservableKind:
        out = apply_observable(p, f, kind)
        assert out.scale == f.scale and out.gauss == f.gauss
        assert len(out.coeffs) == len(f.coeffs) + (1 if kind.value in ("X", "P") else 2)


def test_apply_observable_p_needs_the_similarity_coefficient():
    # on omega = alpha + beta c is undefined: P is a region error, X still works
    b = pts.BOUNDARY_I_III_POINT
    mono = next(s.right_fn for s in discrete_states(b, 2) if s.n == 2 and s.branch == "+")
    grid = np.linspace(-2.0, 2.0, 9)
    x_f = evaluate(apply_observable(b, mono, ObservableKind.X), grid, b)
    assert np.allclose(x_f, grid * evaluate(mono, grid, b), rtol=1e-14, atol=1e-15)
    for kind in (ObservableKind.P, ObservableKind.P2):
        with pytest.raises(RegionError, match="similarity coefficient"):
            apply_observable(b, mono, kind)


def test_observables_refuse_an_unknown_kind_and_a_delta():
    p = pts.REGION_I_POINTS[0]
    with pytest.raises(TypeError, match="unknown observable 'X'"):
        matrix_element("X", 0, 1, p)
    with pytest.raises(TypeError, match="observables act on GaussPoly states"):
        apply_observable(p, DeltaDeriv(0.0, 1, 1.0), ObservableKind.X)


def test_matrix_element_region_guard():
    with pytest.raises(RegionError):
        matrix_element(ObservableKind.X, 0, 1, pts.REGION_II_POINT)
    with pytest.raises(ValueError):
        matrix_element(ObservableKind.X, -1, 0, pts.REGION_I_POINTS[0])


@pytest.mark.parametrize("m,n", [(1.5, 0.5), (1, 0.5), (2.0, 1), ("1", 0)])
def test_matrix_element_rejects_indices_that_are_not_integers(m, n):
    # 1.5, 0.5 used to read the band at n = 0.5 and return 0.7398
    name, value = ("m", m) if isinstance(m, (float, str)) else ("n", n)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        matrix_element(ObservableKind.X, m, n, pts.REGION_I_POINTS[0])


@pytest.mark.parametrize("m,n,message", [
    (-1, 0, "m must be non-negative, got -1"),
    (0, -2, "n must be non-negative, got -2"),
    (2, 0.5, "n must be an integer, got 0.5"),
    (-1, -1, "m must be non-negative, got -1"),
])
def test_matrix_element_refuses_each_index_by_name(m, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        matrix_element(ObservableKind.X2, m, n, pts.REGION_I_POINTS[0])


def test_matrix_element_takes_numpy_integers():
    p = pts.REGION_I_POINTS[0]
    assert matrix_element(ObservableKind.X2, np.int64(3), np.int32(1), p) \
        == matrix_element(ObservableKind.X2, 3, 1, p)


# ---------------------------------------------------------------------------
# expectation-value evolution (Regions I/III)
# ---------------------------------------------------------------------------

def test_pure_state_has_no_position_expectation():
    p = pts.REGION_I_POINTS[0]
    state = make_state(p, [1.0])
    for t in (0.0, 1.7, 9.4):
        assert evolve_expectation(state, ObservableKind.X, p, t) == pytest.approx(0.0, abs=1e-12)


def test_two_level_cosine():
    p = pts.SIGMA1_REGION_I
    omega = abs(derive(p).omega_cap)
    state = make_state(p, [1.0, 1.0])
    for t in np.linspace(0.0, 20.0 / omega, 29):
        value = evolve_expectation(state, ObservableKind.X, p, float(t))
        assert value == pytest.approx((p.b0 / SQRT2) * math.cos(omega * t), abs=1e-8)


def test_time_zero_matches_static_expectation():
    p = pts.REGION_I_POINTS[1]
    state = make_state(p, [0.6, 0.8j, -0.2])
    c = np.asarray(state.coeffs)
    static = 0.0 + 0.0j
    for m in range(3):
        for n in range(3):
            static += np.conjugate(c[m]) * c[n] * matrix_element(ObservableKind.X2, m, n, p)
    assert evolve_expectation(state, ObservableKind.X2, p, 0.0) == pytest.approx(static)


def test_metric_norm_conserved():
    p = pts.REGION_I_POINTS[0]
    state = make_state(p, [1.0, 0.5j, 0.3])
    for t in (0.0, 2.2, 13.7):
        assert metric_norm(state, p, t) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_metric_norm_rejects_a_nonfinite_time(t):
    # t drops out of the value, so a NaN time used to return 1.0
    p = pts.REGION_I_POINTS[0]
    with pytest.raises(ValueError, match="time must be finite"):
        metric_norm(make_state(p, [1.0, 0.5j]), p, t)


@pytest.mark.parametrize("p", pts.REGION_I_POINTS + pts.REGION_III_POINTS)
def test_metric_norm_matches_quadrature_gram(p):
    # oracle: c^dagger G c with G the quadrature metric Gram of the basis
    c = np.array([1.0, 0.5 - 0.2j, 0.0, 0.3j, -0.7, 0.1])
    g = gram(p, len(c) - 1, which="metric").matrix
    state = make_state(p, c)
    unit = np.asarray(state.coeffs)
    assert abs(np.conjugate(unit) @ g @ unit - 1.0) <= 1e-12
    energies = np.array([s.energy.real for s in discrete_states(p, len(c) - 1)])
    for t in (0.0, 2.2, 13.7):
        ct = unit * np.exp(-1j * energies * t / p.hbar)
        assert abs(metric_norm(state, p, t) - np.conjugate(ct) @ g @ ct) <= 1e-12


@pytest.mark.parametrize("params", [pts.SIGMA1_REGION_I, pts.REGION_I_POINTS[0],
                                    pts.REGION_III_POINTS[0]])
def test_heisenberg_identity(params):
    # d<X>/dt = <P>/m at t = 0, by centered finite differences
    state = make_state(params, [1.0, 1j])
    h = 1e-6
    dxdt = (evolve_expectation(state, ObservableKind.X, params, h)
            - evolve_expectation(state, ObservableKind.X, params, -h)) / (2.0 * h)
    p_over_m = evolve_expectation(state, ObservableKind.P, params, 0.0) / derive(params).m_eff
    assert dxdt == pytest.approx(p_over_m, abs=1e-6)


@pytest.mark.parametrize("params", [pts.REGION_I_POINTS[0], pts.REGION_III_POINTS[0],
                                    ModelParams(2.0, 0.5, 0.2, b0=0.7, hbar=1.9)])
def test_array_of_times_matches_scalar_calls(params):
    rng = np.random.default_rng(8)
    state = make_state(params, rng.normal(size=9) + 1j * rng.normal(size=9))
    times = np.linspace(0.0, 10.0, 101)
    for kind in ObservableKind:
        series = evolve_expectation(state, kind, params, times)
        scalar = np.array([evolve_expectation(state, kind, params, float(t)) for t in times])
        assert series.shape == times.shape
        assert np.max(np.abs(series - scalar)) <= 1e-13 * np.max(np.abs(scalar))
    grid = evolve_expectation(state, ObservableKind.X, params, times.reshape(101, 1))
    assert grid.shape == (101, 1)


def test_evolve_expectation_builds_no_states(monkeypatch):
    # one band function per call: no eigenstate objects, no per-element calls
    def forbidden(*args, **kwargs):
        raise AssertionError("evolve_expectation must not call this")

    import swanson.dynamics as dynamics
    import swanson.eigensystems as eigensystems

    p = pts.REGION_I_POINTS[0]
    state = make_state(p, [1.0, 0.5j, 0.3])
    for module, name in ((dynamics, "_rungs"), (eigensystems, "_ladder"),
                         (eigensystems, "discrete_states"), (dynamics, "matrix_element")):
        monkeypatch.setattr(module, name, forbidden)
    for kind in ObservableKind:
        evolve_expectation(state, kind, p, 1.5)
        evolve_expectation(state, kind, p, np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("size", [1, 2, 7])
def test_top_level_keeps_its_a_adagger_term(size):
    # <N-1| X^2 |N-1> = u^2 (2N - 1) in an N-level state: the cut keeps a a^dagger
    p = pts.REGION_I_POINTS[1]
    unit = (p.b0 / derive(p).sigma) ** 2 / 2.0
    state = make_state(p, [0.0] * (size - 1) + [1.0])
    assert evolve_expectation(state, ObservableKind.X2, p, 0.7) == pytest.approx(
        unit * (2 * size - 1), rel=1e-14)
    assert matrix_element(ObservableKind.X2, size - 1, size - 1, p) == pytest.approx(
        unit * (2 * size - 1), rel=1e-14)


def _mp_expectation(params, coeffs, kind, times) -> list[complex]:
    """The bi-orthogonal double sum at 30 digits: O from an mpmath ladder matrix one level
    larger than the state (squared there, then cut) and e^{-i E_n t/hbar} per level, with
    the sign of E_n taken from the eigenfamily."""
    sign = 1 if discrete_states(params, 0)[0].energy.real > 0 else -1
    with mpmath.workdps(30):
        w, al, be, b0, hbar = (mpmath.mpf(v) for v in (params.omega, params.alpha, params.beta,
                                                        params.b0, params.hbar))
        omega_cap = mpmath.sqrt(w * w - 4 * al * be)
        sigma = mpmath.sqrt(abs(omega_cap / (w - al - be)))     # sqrt(|m_eff Omega|/hbar) b0
        size = len(coeffs)
        a = mpmath.matrix(size + 1, size + 1)
        for k in range(size):
            a[k, k + 1] = mpmath.sqrt(k + 1)
        if kind in (ObservableKind.X, ObservableKind.X2):
            op = b0 / (sigma * mpmath.sqrt(2)) * (a + a.T)
        else:
            op = 1j * hbar * sigma / (mpmath.sqrt(2) * b0) * (a.T - a)
        if kind in (ObservableKind.X2, ObservableKind.P2):
            op = op * op
        c = [mpmath.mpc(z) for z in coeffs]
        values = []
        for t in times:
            amp = [c[n] * mpmath.exp(-1j * sign * omega_cap * (n + mpmath.mpf(0.5)) * mpmath.mpf(t))
                   for n in range(size)]
            values.append(complex(sum(mpmath.conj(amp[m]) * op[m, n] * amp[n]
                                      for m in range(size) for n in range(size))))
    return values


@pytest.mark.parametrize("params", pts.REGION_I_POINTS + pts.REGION_III_POINTS
                         + [ModelParams(2.0, 0.5, 0.2, b0=0.7, hbar=1.9)])
def test_expectation_against_a_30_digit_double_sum(params):
    # the five-phase band sum against the full double sum over the levels' own phases
    rng = np.random.default_rng(18)
    times = np.linspace(0.0, 10.0, 11)
    for size in (1, 2, 3, 5, 8, 12):
        state = make_state(params, rng.normal(size=size) + 1j * rng.normal(size=size))
        for kind in ObservableKind:
            oracle = np.array(_mp_expectation(params, state.coeffs, kind, times))
            values = evolve_expectation(state, kind, params, times)
            scale = max(np.max(np.abs(oracle)), 1e-300)
            assert np.max(np.abs(values - oracle)) <= 1e-14 * scale, (size, kind)


def test_expectation_is_real_with_an_exact_zero_imaginary_part():
    p = pts.REGION_III_POINTS[1]
    state = make_state(p, [0.3, 1j, -0.5 + 0.2j, 0.1, 0.7j])
    for kind in ObservableKind:
        value = evolve_expectation(state, kind, p, 2.3)
        assert type(value) is complex and value.imag == 0.0
        series = evolve_expectation(state, kind, p, np.linspace(0.0, 10.0, 7).reshape(7, 1))
        assert series.dtype == complex and series.shape == (7, 1)
        assert np.all(series.imag == 0.0)


def test_many_modes_over_many_times_match_scalar_calls():
    p = pts.REGION_I_POINTS[2]
    rng = np.random.default_rng(116)
    state = make_state(p, rng.normal(size=116) + 1j * rng.normal(size=116))
    times = np.linspace(0.0, 10.0, 1001)
    for kind in ObservableKind:
        series = evolve_expectation(state, kind, p, times)
        picked = times[::97]
        scalar = np.array([evolve_expectation(state, kind, p, float(t)) for t in picked])
        assert np.max(np.abs(series[::97] - scalar)) <= 1e-13 * np.max(np.abs(series))


@pytest.mark.parametrize("params", [pts.REGION_I_POINTS[1], pts.REGION_III_POINTS[0]])
def test_matrix_element_is_the_band_entry(params):
    # O_{j+k,j} with q_X = b0/(sigma sqrt2), q_P = hbar sigma/(sqrt2 b0); the upper side is
    # its conjugate and every other entry an exact zero
    sigma = derive(params).sigma
    qx, qp = params.b0 / (sigma * SQRT2), params.hbar * sigma / (SQRT2 * params.b0)

    def lower(kind, j, k):
        one, two = math.sqrt(j + 1), math.sqrt((j + 1) * (j + 2))
        return {(ObservableKind.X, 1): qx * one, (ObservableKind.P, 1): 1j * qp * one,
                (ObservableKind.X2, 0): qx ** 2 * (2 * j + 1), (ObservableKind.X2, 2): qx ** 2 * two,
                (ObservableKind.P2, 0): qp ** 2 * (2 * j + 1),
                (ObservableKind.P2, 2): -qp ** 2 * two}.get((kind, k), 0.0)

    for kind in ObservableKind:
        for m in range(10):
            for n in range(10):
                entry = matrix_element(kind, m, n, params)
                band = lower(kind, n, m - n) if m >= n else np.conjugate(lower(kind, m, n - m))
                if band == 0.0:
                    assert entry == 0.0, (kind, m, n)
                else:
                    assert abs(entry - band) <= 4e-16 * abs(band), (kind, m, n)


def test_expectation_builds_no_square_matrix():
    # no (size, size) array at any point: at 1024 modes one would be 16 MB, the bands and
    # the phases of five times take a few tens of kB
    import swanson.dynamics as dynamics

    assert not hasattr(dynamics, "_ladder_matrix")
    p = pts.REGION_I_POINTS[0]
    size = 1024
    state = make_state(p, np.ones(size) + 0.5j)
    times = np.linspace(0.0, 1.0, 5)
    for kind in ObservableKind:
        evolve_expectation(state, kind, p, times)
        tracemalloc.start()
        try:
            evolve_expectation(state, kind, p, times)
            evolve_expectation(state, kind, p, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size * size * 16 // 64


@pytest.mark.parametrize("coeffs", [[1e200, 1e200], [1e-200, 1e-200], [5e-324],
                                    [1e308 + 1e308j, -1e308]])
def test_make_state_scales_before_squaring(coeffs):
    # [1e200, 1e200] gave all-zero coefficients, [1e-200, 1e-200] raised
    p = pts.REGION_I_POINTS[0]
    state = make_state(p, coeffs)
    c = np.asarray(state.coeffs)
    assert np.all(np.isfinite(c)) and np.all(c != 0)
    assert metric_norm(state, p) == pytest.approx(1.0, abs=1e-15)


def test_nonfinite_dynamics_inputs_are_rejected(grid_6b0):
    p, p2 = pts.REGION_I_POINTS[0], pts.REGION_II_POINT
    state = make_state(p, [1.0, 1.0])
    for bad in ([math.nan, 1.0], [1.0, math.inf], [complex(0.0, -math.inf)]):
        with pytest.raises(ValueError, match="finite"):
            make_state(p, bad)
        with pytest.raises(ValueError, match="finite"):
            evolve_sector(p2, [], bad, 0.5, grid_6b0)
    for t in (math.nan, math.inf, np.array([0.0, math.nan])):
        with pytest.raises(ValueError, match="finite"):
            evolve_expectation(state, ObservableKind.X, p, t)
    with pytest.raises(ValueError, match="finite"):
        evolve_sector(p2, [1.0], [], math.nan, grid_6b0)
    with pytest.raises(ValueError, match="non-positive"):
        make_state(p, [0.0, 0.0])


# ---------------------------------------------------------------------------
# resonant-sector evolution (Regions II/IV)
# ---------------------------------------------------------------------------

def test_sector_time_zero_reproduces_input(grid_6b0):
    p = pts.REGION_II_POINT
    from swanson import evaluate

    states = {(s.n, s.branch): s for s in discrete_states(p, 2)}
    vals = evolve_sector(p, [0.5, 0.0, 1.0], [1.0], 0.0, grid_6b0)
    direct = (0.5 * evaluate(states[(0, "-")].right_fn, grid_6b0, p)
              + 1.0 * evaluate(states[(2, "-")].right_fn, grid_6b0, p)
              + 1.0 * evaluate(states[(0, "+")].right_fn, grid_6b0, p))
    assert np.max(np.abs(vals - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_single_mode_decay_and_growth_rates(grid_6b0):
    p = pts.REGION_II_POINT
    omega = math.sqrt(3.0)
    base = evolve_sector(p, [], [1.0], 0.0, grid_6b0)
    later = evolve_sector(p, [], [1.0], 0.8, grid_6b0)
    assert np.max(np.abs(later / base)) == pytest.approx(math.exp(-omega * 0.4), rel=1e-10)

    base = evolve_sector(p, [1.0], [], 1.0, grid_6b0)
    later = evolve_sector(p, [1.0], [], 1.0 + 0.6, grid_6b0)
    assert np.max(np.abs(later / base)) == pytest.approx(math.exp(omega * 0.3), rel=1e-10)


def test_decay_rate_from_log_slope():
    p = pts.REGION_II_POINT
    omega = math.sqrt(3.0)
    x0 = np.array([0.7])
    times = np.linspace(0.0, 2.0, 21)
    mags = [abs(evolve_sector(p, [], [1.0], float(t), x0)[0]) for t in times]
    slope = np.polyfit(times, np.log(mags), 1)[0]
    assert slope == pytest.approx(-omega / 2.0, abs=1e-6)


def test_sector_overflow_flag():
    p = pts.REGION_II_POINT
    with pytest.raises(NonConvergentError, match="log magnitude"):
        evolve_sector(p, [1.0], [], 1e4, np.array([0.0]))


@pytest.mark.parametrize("minus,plus,name", [(1.0, [1.0], "minus"), ([1.0], 0.5, "plus"),
                                              (np.float64(2.0), [], "minus")])
def test_sector_scalar_coefficients_are_a_value_error_naming_the_argument(minus, plus, name):
    # a scalar has no len(): it raised a bare TypeError("len() of unsized object")
    with pytest.raises(ValueError, match=f"^{name}-sector coefficients must be a sequence"):
        evolve_sector(pts.REGION_II_POINT, minus, plus, 0.5, np.array([0.0]))


def test_sector_region_guard():
    with pytest.raises(RegionError):
        evolve_sector(pts.REGION_I_POINTS[0], [1.0], [], 0.0, np.array([0.0]))
    with pytest.raises(ValueError):
        evolve_sector(pts.REGION_II_POINT, [], [], 0.0, np.array([0.0]))
