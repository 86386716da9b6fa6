import cmath
import gc
import math
import pickle
import re
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swanson import ModelParams, RegionLabel, SurfaceRow, classify, cli, derive, surface_grid
from swanson import core
from swanson.core import DEFAULT_TOL

finite_coupling = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_hermitian_limit():
    d = derive(ModelParams(1.0, 0.0, 0.0))
    assert d.omega_cap == 1.0
    assert d.m_eff == 1.0
    assert d.k_stiff == 1.0
    assert d.sigma == 1.0
    assert d.upsilon_coeff == 0.0


def test_direct_evaluation():
    d = derive(ModelParams(1.0, 0.2, 0.1))
    assert d.omega_sq == pytest.approx(0.92, rel=1e-15)
    assert d.m_eff == pytest.approx(1.0 / 0.7, rel=1e-15)
    assert d.upsilon_coeff == pytest.approx(0.1 / 0.7, rel=1e-15)
    assert d.k_stiff == pytest.approx(d.m_eff * 0.92, rel=1e-15)


def test_region_ii_witness():
    d = derive(ModelParams(1.0, -2.0, -0.5))
    assert d.omega_sq == pytest.approx(-3.0, rel=1e-15)
    assert d.m_eff == pytest.approx(1.0 / 3.5, rel=1e-15)
    assert d.m_eff > 0
    assert d.omega_cap == pytest.approx(1j * math.sqrt(3.0))


def test_degenerate_flags_not_nan():
    d = derive(ModelParams(1.0, 0.6, 0.4))   # omega = alpha + beta
    assert d.m_eff is None
    assert d.k_stiff is None
    assert d.sigma is None
    assert d.upsilon_coeff is None
    assert d.tau_coeff == pytest.approx((0.6 + 0.4) / 0.2)

    d = derive(ModelParams(1.0, 0.5, 0.5))   # alpha = beta and Omega = 0
    assert d.tau_coeff is None
    assert d.sigma is None

    d = derive(ModelParams(1.0, -0.125, -2.0))  # Omega = 0 only
    assert d.sigma is None
    assert d.m_eff is not None


@given(w=st.floats(min_value=0.5, max_value=3.0), a=finite_coupling, b=finite_coupling)
@settings(max_examples=60, deadline=None)
@example(w=1.0, a=1.0, b=5e-324)
@example(w=1.0, a=1.0, b=2.2250738585e-313)
@example(w=1.0, a=1.0, b=1e-10)     # w - (a + b) misses this gap by 8e-8 relative
@example(w=1.0, a=1e-10, b=1.0)     # and (w - a) - b misses this one
def test_derived_invariants(w, a, b):
    d = derive(ModelParams(w, a, b))
    assert d.omega_cap ** 2 == pytest.approx(w * w - 4 * a * b, abs=1e-12)
    if d.m_eff is not None:
        gap = float(Fraction(w) - Fraction(a) - Fraction(b))    # exact, rounded once
        assert d.m_eff * gap == pytest.approx(1.0, rel=1e-12)
        assert d.k_stiff == pytest.approx(d.m_eff * d.omega_sq, rel=1e-12, abs=1e-12)


# Points on, within 2e-14..5e-13 relative of, and away from the two boundary
# families omega = alpha + beta and Omega = 0, including subnormal couplings.
_dyadic = st.integers(min_value=-96, max_value=128).map(lambda k: k / 64.0)
_offset = st.builds(lambda s, r: s * r, st.sampled_from((-1.0, 1.0)),
                    st.floats(min_value=2e-14, max_value=5e-13))
_subnormal = st.builds(lambda s, k: s * k * 5e-324, st.sampled_from((-1, 1)),
                       st.integers(min_value=1, max_value=2 ** 52 - 1))
_width = st.floats(min_value=0.5, max_value=3.0)
# beta = +-2^j keeps omega^2 / (4 beta) exact for dyadic omega
_power_of_two = st.builds(lambda s, j: s * 2.0 ** j, st.sampled_from((-1.0, 1.0)),
                          st.integers(min_value=-2, max_value=2))
_signed_width = st.builds(lambda s, x: s * x, st.sampled_from((-1.0, 1.0)),
                          st.floats(min_value=0.3, max_value=3.0))

stratum_points = st.one_of(
    # exactly on omega = alpha + beta (dyadic sums are exact), corner included
    st.builds(lambda a, b: ModelParams(a + b, a, b), _dyadic, _dyadic),
    st.builds(lambda b: ModelParams(2.0 * b, b, b), _width),
    # near omega = alpha + beta; a tiny alpha + beta would make the coupling scale
    # itself tiny, where hbar/gap still overflows (a case left undecided)
    st.builds(lambda a, b, e: ModelParams((a + b) * (1.0 + e), a, b),
              finite_coupling, finite_coupling, _offset).filter(lambda p: abs(p.omega) >= 0.05),
    # exactly on Omega = 0
    st.builds(lambda k, b: ModelParams(k / 8.0, (k / 8.0) ** 2 / (4.0 * b), b),
              st.integers(min_value=4, max_value=16), _power_of_two),
    # near Omega = 0
    st.builds(lambda w, b, e: ModelParams(w, w * w * (1.0 + e) / (4.0 * b), b),
              _width, _signed_width, _offset),
    # away from both
    st.builds(ModelParams, _width, finite_coupling, finite_coupling),
    # subnormal couplings
    st.builds(lambda w, b: ModelParams(w, w, b), _width, _subnormal),
    st.builds(lambda w, a: ModelParams(w, a, w), _width, _subnormal),
    st.builds(ModelParams, _width, _subnormal, _subnormal),
    st.builds(ModelParams, _width, _subnormal, finite_coupling),
)

_MASS_BOUNDARY = (RegionLabel.BOUNDARY_I_III, RegionLabel.CORNER_DEGENERATE)
_REGIONS = (RegionLabel.REGION_I, RegionLabel.REGION_II, RegionLabel.REGION_III,
            RegionLabel.REGION_IV)
_POSITIVE_MASS = (RegionLabel.REGION_I, RegionLabel.REGION_II, RegionLabel.BOUNDARY_I_II)


@given(p=stratum_points, tol=st.sampled_from((DEFAULT_TOL, 1e-14)))
@settings(max_examples=400, deadline=None)
@example(p=ModelParams(1.0, 1.0, 5e-324), tol=DEFAULT_TOL)
@example(p=ModelParams(1.0, 1.0, 5e-324), tol=1e-14)
@example(p=ModelParams(1.0, (1.0 + 1e-13) / 8.0, 2.0), tol=DEFAULT_TOL)
@example(p=ModelParams(1.0 + 5e-13, 0.6, 0.4), tol=1e-14)
def test_derive_agrees_with_classify(p, tol):
    d = derive(p, tol)
    label = classify(p, tol)
    for name in ("omega_cap", "omega_sq", "m_eff", "k_stiff", "sigma", "upsilon_coeff",
                 "tau_coeff"):
        v = getattr(d, name)
        assert v is None or cmath.isfinite(v), f"{name} = {v}"
    assert (d.m_eff is None) == (label in _MASS_BOUNDARY)
    assert (d.k_stiff is None) == (d.m_eff is None)
    assert (d.upsilon_coeff is None) == (d.m_eff is None)
    # sigma exists only inside the four open regions: None on I-III and every Omega = 0 stratum
    assert (d.sigma is None) == (label not in _REGIONS)
    if d.m_eff is not None:
        assert (d.m_eff > 0) == (label in _POSITIVE_MASS)


def test_derive_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        derive(ModelParams(1.0, 0.0, 0.0), tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-12], ids=["nan", "zero", "negative"])
@pytest.mark.parametrize("call", [
    lambda tol: classify(ModelParams(1.0, 0.2, 0.1), tol),
    lambda tol: derive(ModelParams(1.0, 0.2, 0.1), tol),
    lambda tol: surface_grid(2.0, 3, tol),
], ids=["classify", "derive", "surface_grid"])
def test_tol_that_is_not_positive_is_rejected(call, tol):
    # NaN fails every comparison, so a check written tol <= 0 let it through:
    # classify answered Region I while derive flagged the mass degenerate
    with pytest.raises(ValueError, match="tol must be positive"):
        call(tol)


def test_surface_grid_mass_follows_tol():
    # at tol = 0.3 the band |1 - a - b| <= 0.3 max(1, |a|, |b|) around the line is degenerate
    for tol in (DEFAULT_TOL, 0.3):
        for r in surface_grid(2.0, 9, tol):
            assert (r.mass is None) == (r.region in _MASS_BOUNDARY)


def _row_bits(a, b, omega_sq, mass, region):
    def bits(x):
        return None if x is None else struct.pack("<d", x)
    return bits(a), bits(b), bits(omega_sq), bits(mass), region


def _assert_grid_matches_scalar(half_range, n, tol):
    rows = surface_grid(half_range, n, tol)
    coords = [-half_range + 2.0 * half_range * i / (n - 1) for i in range(n)]
    expected = []
    for a in coords:
        for b in coords:
            p = ModelParams(1.0, a, b)
            d = derive(p, tol)
            expected.append(_row_bits(a, b, d.omega_sq, d.m_eff, classify(p, tol)))
    got = [_row_bits(r.alpha_over_omega, r.beta_over_omega, r.omega_sq, r.mass, r.region)
           for r in rows]
    assert got == expected
    return rows


@pytest.mark.parametrize("tol", [1e-12, 1e-14, 1e-2])
@pytest.mark.parametrize("n", [33, 201])
def test_surface_grid_bit_identical_to_scalar(n, tol):
    rows = _assert_grid_matches_scalar(2.0, n, tol)
    if n == 33:
        assert {r.region for r in rows} == set(RegionLabel)


_half_range = st.one_of(st.floats(min_value=-3.0, max_value=300.0).map(lambda e: 10.0 ** e),
                        st.floats(min_value=1e-3, max_value=1e300))


@given(half_range=_half_range, n=st.integers(min_value=2, max_value=40),
       tol=st.one_of(st.sampled_from((DEFAULT_TOL, 1e-14, 1e-2)),
                     st.floats(min_value=1e-16, max_value=0.5)))
@settings(max_examples=150, deadline=None)
@example(half_range=1e300, n=40, tol=DEFAULT_TOL)
@example(half_range=3e100, n=7, tol=DEFAULT_TOL)
@example(half_range=1e160, n=2, tol=1e-14)
@example(half_range=1e-3, n=40, tol=1e-2)
def test_surface_grid_matches_scalar_property(half_range, n, tol):
    # scales above 1e100 take the reduced-coupling branch of derive and classify
    _assert_grid_matches_scalar(half_range, n, tol)


def _rows_per_block(n):
    # surface_grid computes whole alpha rows in blocks of about 4,096 points
    return max(1, 4096 // n)


@pytest.mark.parametrize("half_range", [2.0, 1e300], ids=["direct", "reduced"])
@pytest.mark.parametrize("n", [64, 65, 103])
def test_surface_grid_bit_identical_across_blocks(half_range, n):
    # 64 fills one block; 65 and 103 end on a partial block; 1e300 takes the reduced couplings
    _assert_grid_matches_scalar(half_range, n, DEFAULT_TOL)


def test_surface_grid_rows_at_block_edges_of_the_top_side():
    n, k = 1001, _rows_per_block(1001)
    rows = surface_grid(2.0, n)
    coords = [-2.0 + 4.0 * i / (n - 1) for i in range(n)]
    for i in (k - 1, k, n - 2, n - 1):      # each side of the first edge and of the last
        got = [_row_bits(*r) for r in rows[i * n:(i + 1) * n]]
        expected = []
        for b in coords:
            p = ModelParams(1.0, coords[i], b)
            d = derive(p)
            expected.append(_row_bits(coords[i], b, d.omega_sq, d.m_eff, classify(p)))
        assert got == expected, f"alpha row {i}"


@pytest.mark.parametrize("n", [2, 64, 65, 201])
def test_surface_grid_makes_one_numpy_pass_per_block(n, monkeypatch):
    calls = []

    def spy(w, a, b):
        calls.append(a.shape)
        return gap(w, a, b)

    gap = core._gap
    monkeypatch.setattr(core, "_gap", spy)
    surface_grid(2.0, n)
    assert len(calls) == -(-n // _rows_per_block(n))
    assert all(shape[0] * shape[1] <= 4096 for shape in calls)


@pytest.fixture
def collector_state():
    # each test below switches the process-wide collector; put it back as it was
    was_on = gc.isenabled()
    yield
    if was_on:
        gc.enable()
    else:
        gc.disable()


def test_surface_grid_starts_no_collection(collector_state):
    # 40,401 tracked rows at n = 201 set off about 57 collections a call with the collector on
    starts = []

    def spy(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.callbacks.append(spy)
    try:
        rows = surface_grid(2.0, 201)
    finally:
        gc.callbacks.remove(spy)
    assert len(rows) == 201 * 201
    assert starts == []


class _BlockFault(Exception):
    pass


@pytest.mark.parametrize("was_on", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("case", ["rows", "block raises", "half_range inf", "n 1002"])
def test_surface_grid_leaves_the_collector_as_it_found_it(was_on, case, collector_state, monkeypatch):
    seen = []
    gap = core._gap

    def spy(w, a, b):
        seen.append(gc.isenabled())
        if case == "block raises":
            raise _BlockFault
        return gap(w, a, b)

    monkeypatch.setattr(core, "_gap", spy)
    args = {"half_range inf": (math.inf, 5), "n 1002": (2.0, 1002)}.get(case, (2.0, 65))
    if was_on:
        gc.enable()
    else:
        gc.disable()
    if case == "rows":
        assert len(surface_grid(*args)) == 65 * 65
    else:
        with pytest.raises(_BlockFault if case == "block raises" else ValueError):
            surface_grid(*args)
    assert gc.isenabled() is was_on
    if case in ("rows", "block raises"):
        assert seen and not any(seen)       # paused for every block
    else:
        assert seen == []                   # refused before any block


@pytest.mark.parametrize("n", [201, 1001])
def test_surface_grid_transient_memory_is_bounded(n):
    # peak minus retained: the numpy temporaries of one block, not of the whole grid
    surface_grid(2.0, 2)                    # the label table and numpy, loaded once
    tracemalloc.start()
    try:
        rows = surface_grid(2.0, n)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == n * n
    assert peak - retained <= 2 ** 20


@pytest.mark.parametrize("args", [
    (2.0, 1), (2.0, 0), (0.0, 5), (-1.0, 5), (math.inf, 5), (math.nan, 5), (1e308, 5),
    (2.0, 5, 0.0), (2.0, 5, -1e-12),
])
def test_surface_grid_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        surface_grid(*args)


@pytest.mark.parametrize("half_range", [
    np.array([2.0]), np.array(2.0), "2", None, 2.0 + 0j, np.complex128(2.0)],
    ids=["array", "0-d array", "str", "None", "complex", "numpy complex"])
def test_surface_grid_refuses_a_half_range_that_is_not_a_real_number(half_range):
    # an array gave rows of arrays and lists; a string, None or a complex a bare TypeError
    with pytest.raises(ValueError, match="^half_range must be a real number, got "):
        surface_grid(half_range, 5)


@pytest.mark.parametrize("half_range", [2, np.float64(2.0), np.float32(2.0), np.int64(2)])
def test_surface_grid_takes_every_real_scalar(half_range):
    assert surface_grid(half_range, 3)[0][:2] == (-half_range, -half_range)


@pytest.mark.parametrize("n,message", [
    ("3", "n must be an integer, got '3'"),
    (1, "n must be at least 2, got 1"),
], ids=["str", "one"])
def test_surface_grid_refuses_a_grid_size_outside_its_domain(n, message):
    # a non-integer n raised a bare TypeError from range; floats, negatives and the top
    # are rows of the index table in test_strata
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        surface_grid(2.0, n)


@pytest.mark.parametrize("call,message", [
    (lambda: core._require_index(-1, "k", low=2), "k must be non-negative, got -1"),
    (lambda: core._require_index(1, "k", 5, low=2), "k must be at least 2, got 1"),
    (lambda: core._require_index(6, "k", 5, " here", low=2), "k must be at most 5 here, got 6"),
    (lambda: core._finite([1.0, math.inf], "the points"), "the points must be finite"),
    (lambda: core._require_choice("c", "side", ("a", "b")), "side must be 'a' or 'b'"),
    (lambda: core._require_choice(1, "kind", ("a", "b", "c")), "kind must be one of 'a', 'b', 'c'"),
], ids=["negative-before-low", "low", "top", "finite", "two-choices", "three-choices"])
def test_the_core_guards_word_each_refusal_once(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_the_core_guards_pass_their_inputs():
    assert core._require_index(np.int64(3), "k", 3, low=3) == 3
    assert core._require_choice("b", "side", ("a", "b")) is None
    arr = core._finite([1, 2], "the points", float)
    assert arr.dtype == np.float64 and arr.tolist() == [1.0, 2.0]


def test_surface_rows_are_immutable_records(tmp_path):
    out = tmp_path / "surface.csv"
    assert cli.main(["surface", "--range", "2", "--n", "3", "--format", "csv", "-o", str(out)]) == 0
    assert SurfaceRow._fields == tuple(out.read_text().splitlines()[0].split(","))
    row = surface_grid(2.0, 3)[4]
    assert (row.alpha_over_omega, row.beta_over_omega, row.mass) == (0.0, 0.0, 1.0)
    with pytest.raises(AttributeError):
        row.mass = 2.0
    with pytest.raises(AttributeError):
        row.extra = 2.0
    copy = pickle.loads(pickle.dumps(row))
    assert type(copy) is SurfaceRow and copy == row


@pytest.mark.parametrize("params,label", [
    (ModelParams(1.0, 0.2, 0.1), RegionLabel.REGION_I),
    (ModelParams(1.0, -2.0, -0.5), RegionLabel.REGION_II),
    (ModelParams(1.0, 1.2, -0.1), RegionLabel.REGION_III),
    (ModelParams(1.0, 2.0, 0.5), RegionLabel.REGION_IV),
    (ModelParams(1.0, 0.6, 0.4), RegionLabel.BOUNDARY_I_III),
    (ModelParams(1.0, -0.125, -2.0), RegionLabel.BOUNDARY_I_II),
    (ModelParams(1.0, 2.0, 0.125), RegionLabel.BOUNDARY_III_IV),
    (ModelParams(1.0, 0.5, 0.5), RegionLabel.CORNER_DEGENERATE),
])
def test_classify_examples(params, label):
    assert classify(params) is label


@given(w=st.floats(min_value=0.5, max_value=3.0), a=finite_coupling, b=finite_coupling)
@settings(max_examples=60, deadline=None)
# (w - a) - b and (w - b) - a differed by an ulp here: Region III one way, Boundary I-III the other
@example(w=0.99999, a=0.99999, b=1e-12)
def test_classify_alpha_beta_symmetry(w, a, b):
    assert classify(ModelParams(w, a, b)) is classify(ModelParams(w, b, a))


@given(w=st.floats(min_value=0.5, max_value=3.0), a=finite_coupling, b=finite_coupling,
       s=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_classify_scale_invariance(w, a, b, s):
    scale = max(abs(w), abs(a), abs(b))
    # stay away from the boundary strata where rounding of s*x can flip the label
    if abs(w - a - b) < 1e-6 * scale or abs(w * w - 4 * a * b) < 1e-6 * scale ** 2:
        return
    assert classify(ModelParams(w, a, b)) is classify(ModelParams(s * w, s * a, s * b))


def test_surface_grid_small():
    rows = surface_grid(2.0, 3)
    assert len(rows) == 9
    center = next(r for r in rows if r.alpha_over_omega == 0.0 and r.beta_over_omega == 0.0)
    assert center.omega_sq == 1.0
    assert center.mass == 1.0
    for r in rows:
        if r.alpha_over_omega + r.beta_over_omega > 1.0 and r.mass is not None:
            assert r.mass < 0


def test_surface_hermitian_diagonal():
    rows = surface_grid(1.0, 5)
    for r in rows:
        if r.alpha_over_omega == r.beta_over_omega:
            d = derive(ModelParams(1.0, r.alpha_over_omega, r.beta_over_omega))
            if d.upsilon_coeff is not None:
                assert d.upsilon_coeff == 0.0


def test_surface_omega_sq_continuity():
    n, half = 21, 2.0
    rows = surface_grid(half, n)
    h = 2.0 * half / (n - 1)
    lipschitz = 4.0 * half  # |d(omega_sq)/d(alpha)| = 4 |beta| <= 4 half
    for i in range(n):
        for j in range(n - 1):
            a = rows[i * n + j].omega_sq
            b = rows[i * n + j + 1].omega_sq
            assert abs(b - a) <= lipschitz * h + 1e-12


def test_surface_mass_sign_flip_on_line_only():
    n, half = 21, 2.0
    rows = surface_grid(half, n)
    for i in range(n):
        for j in range(n - 1):
            r1, r2 = rows[i * n + j], rows[i * n + j + 1]
            if r1.mass is None or r2.mass is None:
                continue
            s1 = r1.alpha_over_omega + r1.beta_over_omega - 1.0
            s2 = r2.alpha_over_omega + r2.beta_over_omega - 1.0
            crosses = (s1 < 0) != (s2 < 0)
            flipped = (r1.mass < 0) != (r2.mass < 0)
            assert crosses == flipped


def test_validation_errors():
    with pytest.raises(ValueError):
        ModelParams(1.0, 0.0, 0.0, b0=-1.0)
    # outside [1e-100, 1e100] derive divided by zero (b0 = 1e-170: b0^2 underflows)
    for scales in ({"b0": 1e-170}, {"b0": 1e101}, {"hbar": 1e-101}, {"hbar": 1e150},
                   {"b0": 0.0}, {"hbar": -1.0}):
        with pytest.raises(ValueError, match="must lie in"):
            ModelParams(1.0, 0.2, 0.1, **scales)
    for edge in (1e-100, 1e100):
        derive(ModelParams(1.0, 0.2, 0.1, b0=edge, hbar=edge))
    with pytest.raises(ValueError):
        ModelParams(float("inf"), 0.0, 0.0)
    with pytest.raises(ValueError):
        surface_grid(2.0, 1)
    with pytest.raises(ValueError):
        classify(ModelParams(1.0, 0.0, 0.0), tol=0.0)


def test_hermitian_line_gives_identity_similarity():
    for a in (0.05, 0.2, -0.4):
        d = derive(ModelParams(1.0, a, a))
        assert d.upsilon_coeff == 0.0


def test_extreme_scales_reduce_to_the_unit_point():
    assert classify(ModelParams(1e200, 0.0, 0.0)) is RegionLabel.REGION_I
    for omega in (1e160, 1e-160, 1e200):
        p = ModelParams(omega, 0.0, 0.0)
        assert classify(p) is RegionLabel.REGION_I
        assert derive(p).sigma == pytest.approx(1.0, rel=1e-15)
        assert derive(p).upsilon_coeff == 0.0
    d = derive(ModelParams(1e160, 0.0, 0.0))
    assert d.m_eff == pytest.approx(1e-160, rel=1e-15)
    assert d.k_stiff == pytest.approx(1e160, rel=1e-15)
    assert d.omega_cap == pytest.approx(1e160, rel=1e-15)


resolved_coupling = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=3.0),
                              st.floats(min_value=-3.0, max_value=-1e-3))


@given(w=st.floats(min_value=0.5, max_value=3.0), a=resolved_coupling, b=resolved_coupling,
       k=st.integers(min_value=-1000, max_value=1000))
@settings(max_examples=200, deadline=None)
@example(w=1.0, a=0.2, b=0.1, k=1000)
@example(w=1.0, a=-2.0, b=-0.5, k=-1000)
@example(w=1.0, a=1.2, b=-0.1, k=-530)
@example(w=1.0, a=-3.0, b=-2.9999999999999996, k=331)
def test_binary_scaling_invariance(w, a, b, k):
    scale = max(abs(w), abs(a), abs(b))
    # away from the strata, where the rounding of w - a - b or w^2 - 4ab sets the answer
    if abs(w - a - b) < 1e-3 * scale or abs(w * w - 4 * a * b) < 1e-3 * scale ** 2:
        return
    p = ModelParams(w, a, b)
    q = ModelParams(math.ldexp(w, k), math.ldexp(a, k), math.ldexp(b, k))
    assert classify(q) is classify(p)
    dp, dq = derive(p), derive(q)
    for field in ("sigma", "upsilon_coeff"):
        vp, vq = getattr(dp, field), getattr(dq, field)
        assert (vp is None) == (vq is None)
        if vp is not None:
            # (a - b)/gap: a - b may cancel, so its rounding is relative to the scale
            assert vq == pytest.approx(vp, rel=1e-12, abs=1e-12)
