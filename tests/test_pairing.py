import dataclasses
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

import conftest as pts
from swanson import (
    DeltaDeriv,
    GaussPoly,
    ModelParams,
    NonConvergentError,
    PlaneWaveGauss,
    RegionError,
    discrete_states,
    evaluate,
    gauss_hermite,
    gram,
    metric_pair,
    pair,
    reconstruct,
)
from swanson.continuum import continuum_state, resonant_expansion, stripped_discrete_function
from swanson.dynamics import evolve_sector
from swanson.eigensystems import _terms
from swanson.pairing import _pair_block


def _pair_on(left, right, params, rule):
    """<left | right> on the contour rule (theta, order), through the kernel."""
    return _pair_block([left], [right], params, rule)[0, 0]


# ---------------------------------------------------------------------------
# bi-orthogonality
# ---------------------------------------------------------------------------

def test_region_i_biorthogonality():
    p = pts.REGION_I_POINTS[0]
    states = discrete_states(p, 10)
    for m in range(0, 11, 2):
        for n in range(0, 11, 3):
            value = pair(states[m].left_fn, states[n].right_fn, p)
            assert value == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)


def test_boundary_i_iii_distributional_exact():
    p = pts.BOUNDARY_I_III_POINT
    states = discrete_states(p, 10)
    by_key = {(s.n, s.branch): s for s in states}
    for m in range(11):
        for n in range(11):
            # monomial right against delta-derivative dual: the off-diagonal
            # entries vanish identically, the diagonal is 1 up to rounding in
            # the sqrt(n!) normalization arithmetic
            value = pair(by_key[(m, "+")].left_fn, by_key[(n, "+")].right_fn, p)
            if m != n:
                assert value == 0.0
            else:
                assert value == pytest.approx(1.0, abs=1e-12)
            value = pair(by_key[(m, "-")].left_fn, by_key[(n, "-")].right_fn, p)
            assert value == pytest.approx(1.0 if m == n else 0.0, abs=1e-12)


def test_region_ii_rotated_quarter_turn():
    p = pts.REGION_II_POINT
    states = {(s.n, s.branch): s for s in discrete_states(p, 8)}
    for m in range(0, 9, 2):
        for n in range(9):
            value = _pair_on(states[(m, "+")].left_fn, states[(n, "+")].right_fn, p,
                             (-math.pi / 4.0, 72))
            assert value == pytest.approx(1.0 if m == n else 0.0, abs=1e-6)


def test_rotated_contour_matches_exact_hermite_oracle():
    # at theta = -pi/4 the Region II pairing maps onto real Hermite
    # orthogonality, so delta_mn is exact, not just approximate
    p = pts.REGION_II_POINT
    states = {(s.n, s.branch): s for s in discrete_states(p, 5)}
    for m in range(6):
        for n in range(6):
            value = pair(states[(m, "+")].left_fn, states[(n, "+")].right_fn, p)
            assert value == pytest.approx(1.0 if m == n else 0.0, abs=1e-13)


# ---------------------------------------------------------------------------
# metric inner product
# ---------------------------------------------------------------------------

def test_metric_pair_examples():
    p = pts.REGION_I_POINTS[0]
    states = discrete_states(p, 2)
    assert metric_pair(states[0].right_fn, states[0].right_fn, p) == pytest.approx(1.0, abs=1e-12)
    assert metric_pair(states[0].right_fn, states[2].right_fn, p) == pytest.approx(0.0, abs=1e-10)


def test_metric_reduces_to_plain_inner_product_when_hermitian():
    p = ModelParams(1.0, 0.15, 0.15)
    states = discrete_states(p, 2)
    a, b = states[0].right_fn, states[2].right_fn
    assert metric_pair(a, b, p) == pytest.approx(pair(a, b, p), abs=1e-14)
    assert metric_pair(a, a, p) == pytest.approx(pair(a, a, p), rel=1e-13)


def test_metric_region_guard():
    with pytest.raises(RegionError):
        metric_pair(
            GaussPoly(gauss=-1.0, coeffs=(1.0,), norm=1.0),
            GaussPoly(gauss=-1.0, coeffs=(1.0,), norm=1.0),
            pts.BOUNDARY_I_III_POINT)


# ---------------------------------------------------------------------------
# gram reports
# ---------------------------------------------------------------------------

def test_gram_region_i_and_iii():
    for p in pts.REGION_I_POINTS + pts.REGION_III_POINTS:
        report = gram(p, 10)
        assert report.max_offdiag <= 1e-10
        assert report.max_diag_err <= 1e-10
        assert report.matrix.shape == (11, 11)


def test_gram_region_ii_branches():
    report = gram(pts.REGION_II_POINT, 8)
    assert report.matrix.shape == (18, 9)   # two stacked branch blocks
    assert report.max_offdiag <= 1e-6
    assert report.max_diag_err <= 1e-6


@pytest.mark.parametrize("p", [pts.REGION_I_POINTS[0], pts.REGION_III_POINTS[0],
                               pts.REGION_II_POINT, pts.REGION_IV_POINT,
                               pts.BOUNDARY_I_III_POINT])
def test_gram_blocks_match_elementwise_pairs(p):
    # reference: one pair() per entry, each at its own quadrature order
    states = discrete_states(p, 10)
    rows = []
    for br in sorted({s.branch for s in states}, key=lambda b: (b is None, b)):
        sub = sorted((s for s in states if s.branch == br), key=lambda s: s.n)
        rows += [[pair(sm.left_fn, sn.right_fn, p) for sn in sub] for sm in sub]
    assert np.max(np.abs(gram(p, 10).matrix - np.array(rows))) <= 1e-13


@pytest.mark.parametrize("which", ["right-left", "metric"])
def test_gram_refuses_an_index_past_its_reach_before_building_a_state(which):
    # each state's coefficient tuple has n + 1 entries, so building first costs O(n_max^2):
    # tens of MB at 3000 (an n_max of 10^6 would exhaust memory rather than fail)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^n_max must be at most 115 outside Boundary I-III, "
                                             "got 3000$"):
            gram(pts.REGION_I_POINTS[0], 3000, which)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gram_fetches_one_rule_per_block(monkeypatch):
    import swanson.pairing as pairing_module

    orders = []

    def counting(order):
        orders.append(order)
        return gauss_hermite(order)

    monkeypatch.setattr(pairing_module, "gauss_hermite", counting)
    gram(pts.REGION_I_POINTS[0], 12)
    assert orders == [4 * 12 + 40]
    orders.clear()
    gram(pts.REGION_II_POINT, 12)     # one block per branch
    assert orders == [4 * 12 + 40] * 2


def test_pair_block_rejects_mixed_exponents():
    p = pts.REGION_I_POINTS[0]
    mixed = [GaussPoly(gauss=-1.0, coeffs=(1.0,), norm=1.0),
             GaussPoly(gauss=-2.0, coeffs=(1.0,), norm=1.0)]
    with pytest.raises(ValueError):
        _pair_block(mixed, mixed[:1], p)
    with pytest.raises(ValueError):
        _pair_block(mixed[:1], mixed, p)


# ---------------------------------------------------------------------------
# the kernel's work, and its blocks against the reference algorithm: each left
# conjugated as a function, each side sampled in its own basis, and the term
# matrix read one function at a time
# ---------------------------------------------------------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the basis samplings (hermite_rows) and function conjugations the
    library makes, spied where they are defined and where they are called."""
    import swanson.eigensystems as eigensystems_module
    import swanson.specfun as specfun_module

    calls = {"hermite_rows": 0, "conjugate_function": 0}
    for name, modules in (("hermite_rows", (specfun_module, eigensystems_module)),
                          ("conjugate_function", (eigensystems_module,))):
        def counting(*args, _real=getattr(modules[0], name), _name=name):
            calls[_name] += 1
            return _real(*args)
        for module in modules:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("p, blocks", [(pts.REGION_I_POINTS[0], 1), (pts.REGION_III_POINTS[0], 1),
                                       (pts.REGION_II_POINT, 2), (pts.REGION_IV_POINT, 2)])
def test_a_right_left_block_samples_one_basis_and_conjugates_no_function(kernel_calls, p, blocks):
    gram(p, 12)
    assert kernel_calls == {"hermite_rows": blocks, "conjugate_function": 0}


@pytest.mark.parametrize("p", [pts.REGION_I_POINTS[0], pts.REGION_III_POINTS[0]])
def test_a_metric_block_samples_one_basis_and_conjugates_no_function(kernel_calls, p):
    gram(p, 12, "metric")
    assert kernel_calls == {"hermite_rows": 1, "conjugate_function": 0}


def test_reconstruct_samples_one_basis_for_its_block(kernel_calls):
    p = pts.REGION_I_POINTS[0]
    target = discrete_states(p, 3)[3].right_fn      # a right state: the duals' basis
    reconstruct(p, target, 12)
    # one for the block, two for the target and the reconstruction on the check grid
    assert kernel_calls == {"hermite_rows": 3, "conjugate_function": 0}


def test_a_delta_block_conjugates_no_function(kernel_calls):
    # both rules read the left side's term data conjugated as arrays
    gram(pts.BOUNDARY_I_III_POINT, 6)       # two branch blocks of 7 closed-form pairings
    assert kernel_calls == {"hermite_rows": 0, "conjugate_function": 0}


def test_a_delta_block_reads_the_term_data_of_its_smooth_side_once(monkeypatch):
    import swanson.pairing as pairing_module

    read = []

    def counting(fs):
        read.append(len(fs))
        return _terms(fs)

    monkeypatch.setattr(pairing_module, "_terms", counting)
    gram(ModelParams(1.0, 0.75, 0.25), 6)       # each branch block one smooth side of 7
    assert read == [7, 7]


def _reference_terms(fs):
    rows, drift, first = [], [], []
    for f in fs:
        first.append(len(rows))
        if isinstance(f, GaussPoly):
            rows.append(f.norm * np.asarray(f.coeffs, dtype=complex))
            drift.append(0.0)
        else:
            rows += [[f.amp_plus], [f.amp_minus]]
            drift += [1j * f.k_wave, -1j * f.k_wave]
    coeffs = np.zeros((len(rows), max(len(r) for r in rows)), dtype=complex)
    for out, row in zip(coeffs, rows):
        out[: len(row)] = row
    return coeffs, {getattr(f, "scale", None) for f in fs}.pop(), np.array(drift, dtype=complex), first


def _reference_stripped(fs, x, params):
    from swanson.eigensystems import _basis_rows

    coeffs, scale, drift, first = _reference_terms(fs)
    values = np.tensordot(coeffs, _basis_rows(scale, x, params, coeffs.shape[1] - 1), axes=1)
    if len(coeffs) == len(fs):
        return values
    return np.add.reduceat(values * np.exp(np.multiply.outer(drift, x)), first)


def _reference_rule(a_tot, degree):
    """(theta, order): theta = 0 where exp(a_tot x^2) decays along the real line with a
    slow phase, else the angle that turns a_tot onto the negative axis; 4 degree + 40 nodes."""
    if a_tot.real < 0.0 and abs(a_tot.imag) <= 0.5 * -a_tot.real:
        return 0.0, 4 * degree + 40
    angle = math.atan2(a_tot.imag, a_tot.real)
    return 0.5 * ((math.pi if angle >= 0.0 else -math.pi) - angle), 4 * degree + 40


def _reference_block(lefts, rights, params):
    from swanson.eigensystems import conjugate_function

    degree = max(len(f.coeffs) - 1 if isinstance(f, GaussPoly) else 0 for f in lefts + rights)
    a_tot = (complex(lefts[0].gauss).conjugate() + complex(rights[0].gauss)) / (2.0 * params.b0 ** 2)
    theta, order = _reference_rule(a_tot, degree)
    a_rot = a_tot * np.exp(2j * theta)
    s = math.sqrt(-a_rot.real)
    quadrature = gauss_hermite(order)
    t = quadrature.nodes
    x = np.exp(1j * theta) * t / s
    residual = np.exp(t * t * (1.0 + a_rot / (s * s)))
    left_rows = _reference_stripped([conjugate_function(f) for f in lefts], x, params)
    right_rows = _reference_stripped(rights, x, params)
    return (left_rows * (quadrature.weights * residual)) @ right_rows.T * (np.exp(1j * theta) / s)


def _ladder_blocks(p, n_max):
    from swanson.core import derive
    from swanson.pairing import _metric_dressed

    states = discrete_states(p, n_max)
    blocks = [([s.left_fn for s in states if s.branch == branch],
               [s.right_fn for s in states if s.branch == branch])
              for branch in dict.fromkeys(s.branch for s in states)]
    if p in pts.REGION_I_POINTS + pts.REGION_III_POINTS:
        rights = blocks[0][1]
        blocks.append((_metric_dressed(rights, derive(p).upsilon_coeff), rights))
    return blocks


_GAUSSIAN = GaussPoly(gauss=-2.0, coeffs=(1.0,), norm=1.0)
_WAVES = [PlaneWaveGauss(-1.0, 1.5, 0.5, 0.25j), PlaneWaveGauss(-1.0, 0.8j, complex(-0.0, -1.0), -0.0)]


@pytest.mark.parametrize("n_max", [8, 40])
@pytest.mark.parametrize("p", [pts.REGION_I_POINTS[0], pts.REGION_I_POINTS[1], pts.REGION_III_POINTS[0],
                               pts.REGION_II_POINT, pts.REGION_IV_POINT])
def test_kernel_blocks_equal_the_reference_byte_for_byte(p, n_max):
    for lefts, rights in _ladder_blocks(p, n_max):
        assert _pair_block(lefts, rights, p).tobytes() == _reference_block(lefts, rights, p).tobytes()


def test_kernel_blocks_of_two_bases_and_plane_waves_equal_the_reference_byte_for_byte():
    p = pts.REGION_I_POINTS[0]
    left = discrete_states(p, 3)[3].left_fn
    other = GaussPoly(gauss=-1.5, coeffs=(0.2, 0.0, -1.0j), norm=0.9, scale=1.3)
    for lefts, rights in [([left], [other]), ([left], [_GAUSSIAN]), ([other], [left]),
                          (_WAVES, [_GAUSSIAN]), ([_GAUSSIAN], _WAVES), (_WAVES[:1], _WAVES)]:
        assert _pair_block(lefts, rights, p).tobytes() == _reference_block(lefts, rights, p).tobytes()


@pytest.mark.parametrize("n_max", [8, 40, 66])
@pytest.mark.parametrize("p", [pts.REGION_I_POINTS[0], pts.REGION_I_POINTS[1], pts.REGION_III_POINTS[0],
                               pts.REGION_II_POINT, pts.REGION_IV_POINT])
def test_ladder_grams_equal_the_function_list_kernel(p, n_max):
    # gram pairs each ladder side as one Rungs record, its basis rows times its norm.  With
    # the real norm of Regions I/III that is the term matrix's product bit for bit; the
    # complex norm of Regions II/IV no longer goes through the zgemm of tensordot, whose
    # complex products round differently
    listed = [_pair_block(lefts, rights, p) for lefts, rights in _ladder_blocks(p, n_max)]
    real = p in pts.REGION_I_POINTS + pts.REGION_III_POINTS
    pairs = [(gram(p, n_max).matrix, np.vstack(listed[: len(listed) - real]))]
    if real:
        pairs.append((gram(p, n_max, "metric").matrix, listed[-1]))
    for record, expected in pairs:
        assert record.shape == expected.shape
        if real:
            assert record.tobytes() == expected.tobytes()
        else:
            assert np.max(np.abs(record - expected)) <= 1e-15


@pytest.fixture
def term_reads(monkeypatch):
    """The number of functions of every eigensystems._terms call and the number of rows of
    every np.tensordot term matrix, spied where _terms is defined and where it is called."""
    import swanson.dynamics as dynamics_module
    import swanson.eigensystems as eigensystems_module
    import swanson.pairing as pairing_module

    reads = {"_terms": [], "tensordot": []}
    real_terms, real_tensordot = eigensystems_module._terms, np.tensordot

    def terms(fs):
        reads["_terms"].append(len(fs))
        return real_terms(fs)

    def tensordot(a, b, *args, **kwargs):
        reads["tensordot"].append(len(a))
        return real_tensordot(a, b, *args, **kwargs)

    for module in (eigensystems_module, pairing_module, dynamics_module):
        monkeypatch.setattr(module, "_terms", terms)
    monkeypatch.setattr(np, "tensordot", tensordot)
    return reads


@pytest.mark.parametrize("p, which", [(pts.REGION_I_POINTS[0], "right-left"),
                                      (pts.REGION_III_POINTS[0], "right-left"),
                                      (pts.REGION_II_POINT, "right-left"),
                                      (pts.REGION_IV_POINT, "right-left"),
                                      (pts.REGION_I_POINTS[0], "metric"),
                                      (pts.REGION_III_POINTS[0], "metric")])
def test_a_ladder_gram_reads_no_term_matrix(term_reads, p, which):
    gram(p, 12, which)
    assert term_reads == {"_terms": [], "tensordot": []}


@pytest.mark.parametrize("call", [
    lambda: reconstruct(pts.REGION_I_POINTS[0], discrete_states(pts.REGION_I_POINTS[0], 3)[3].right_fn, 12),
    lambda: reconstruct(pts.REGION_I_POINTS[1], lambda x: np.exp(-x * x), 12),
    lambda: resonant_expansion(pts.REGION_II_POINT, stripped_discrete_function(pts.REGION_II_POINT, 2, "-"),
                               12, "minus"),
    lambda: resonant_expansion(pts.REGION_IV_POINT, stripped_discrete_function(pts.REGION_IV_POINT, 2, "+"),
                               12, "plus"),
    lambda: evolve_sector(pts.REGION_II_POINT, [1.0, 0.5], [0.3, 0.0, 1.0], 0.5, np.linspace(-3.0, 3.0, 7)),
], ids=["reconstruct", "reconstruct-callable", "resonant-minus", "resonant-plus", "evolve_sector"])
def test_expansions_read_one_function_at_a_time_as_term_data(term_reads, call):
    # the ladder sides are Rungs records: only the target and the superposition, one function
    # each, are read as term matrices, never the n_max + 1 rungs
    call()
    assert set(term_reads["_terms"]) == {1}
    assert set(term_reads["tensordot"]) <= {1}


@pytest.mark.parametrize("fs", [
    [GaussPoly(-1.0, (1.0, -0.0, 2.5j), 0.7, 1.3),
     GaussPoly(-1.0, (complex(-0.0, -1.0),), -0.3 + 0.2j, 1.3),
     GaussPoly(-1.0, (0, 1, -2, 0.5, complex(1e-300, -0.0)), np.complex128(0.4 - 0.0j), 1.3),
     GaussPoly(-1.0, (), -1.0, 1.3)],
    [GaussPoly(-1.0, (-0.5, 0.25), -0.7), *_WAVES, GaussPoly(-1.0, (2.0,), np.float64(-0.0))],
    [*_WAVES, GaussPoly(-1.0, (complex(-0.0, 2.0),), -0.3 + 0.2j)],
    _WAVES,
])
def test_terms_equal_the_reference_byte_for_byte(fs):
    from swanson.eigensystems import _terms

    (coeffs, scale, drift, first), (ref_coeffs, ref_scale, ref_drift, ref_first) = _terms(fs), _reference_terms(fs)
    assert coeffs.tobytes() == ref_coeffs.tobytes() and coeffs.shape == ref_coeffs.shape
    assert drift.tobytes() == ref_drift.tobytes()
    assert (scale, first) == (ref_scale, ref_first)


@pytest.mark.parametrize("p", pts.REGION_I_POINTS + pts.REGION_III_POINTS)
def test_metric_gram_is_identity(p):
    report = gram(p, 30, which="metric")
    assert np.max(np.abs(report.matrix - np.eye(31))) <= 1e-10


def test_gram_metric():
    report = gram(pts.REGION_I_POINTS[0], 6, which="metric")
    assert report.max_offdiag <= 1e-10
    assert report.max_diag_err <= 1e-10
    with pytest.raises(RegionError):
        gram(pts.REGION_II_POINT, 3, which="metric")
    with pytest.raises(ValueError):
        gram(pts.REGION_I_POINTS[0], 3, which="bogus")


# ---------------------------------------------------------------------------
# truncated completeness
# ---------------------------------------------------------------------------

def test_reconstruct_basis_element():
    p = pts.REGION_I_POINTS[0]
    states = discrete_states(p, 6)
    coeffs, sup_error = reconstruct(p, states[3].right_fn, 6)
    expect = np.zeros(7)
    expect[3] = 1.0
    assert np.max(np.abs(coeffs - expect)) <= 1e-10
    assert sup_error <= 1e-10


def test_reconstruct_displaced_gaussian():
    p = pts.REGION_I_POINTS[0]
    coeffs, sup_error = reconstruct(p, lambda x: np.exp(-(x - 0.5) ** 2), 40)
    assert sup_error <= 1e-6
    assert len(coeffs) == 41


def test_reconstruct_centered_gaussian():
    p = pts.REGION_I_POINTS[0]
    _, sup_error = reconstruct(p, lambda x: np.exp(-x ** 2), 40)
    assert sup_error <= 1e-6


def test_reconstruct_odd_target_parity():
    p = pts.REGION_I_POINTS[0]
    coeffs, _ = reconstruct(p, lambda x: x * np.exp(-x ** 2), 15)
    assert np.max(np.abs(coeffs[::2])) <= 1e-10


def test_reconstruct_region_guard():
    with pytest.raises(RegionError):
        reconstruct(pts.REGION_II_POINT, lambda x: np.exp(-x ** 2), 4)


# ---------------------------------------------------------------------------
# strategies and stability
# ---------------------------------------------------------------------------

def test_strategy_equivalence_direct_vs_rotated():
    p = pts.REGION_I_POINTS[0]
    states = discrete_states(p, 4)
    for m, n in ((0, 0), (1, 3), (4, 4), (2, 0)):
        direct = _pair_on(states[m].left_fn, states[n].right_fn, p, (0.0, 80))
        rotated = _pair_on(states[m].left_fn, states[n].right_fn, p, (0.35, 80))
        assert direct == pytest.approx(rotated, abs=1e-8)


def test_direct_rule_is_the_theta_zero_contour(monkeypatch):
    # the rule chosen for a block that decays on the real line is the theta = 0
    # contour, on 4 n + 40 nodes for its highest degree n
    import swanson.pairing as pairing_module

    p = pts.REGION_I_POINTS[0]
    states = discrete_states(p, 6)
    lefts, rights = [s.left_fn for s in states], [s.right_fn for s in states]
    orders = []

    def counting(order):
        orders.append(order)
        return gauss_hermite(order)

    monkeypatch.setattr(pairing_module, "gauss_hermite", counting)
    direct = _pair_block(lefts, rights, p)
    assert orders == [64]
    assert np.array_equal(direct, _pair_block(lefts, rights, p, (0.0, 64)))


@pytest.mark.parametrize("n", [83, 100])
@pytest.mark.parametrize("single", ["pair", "metric_pair"])
def test_single_pairings_past_the_finite_rules_are_typed_errors(single, n):
    # degree n pairs on 4 n + 40 nodes; hermgauss returns NaN weights from order 372
    p = pts.REGION_I_POINTS[0]
    state = discrete_states(p, n)[n]
    args = (state.left_fn, state.right_fn) if single == "pair" else (state.right_fn, state.right_fn)
    with pytest.raises(NonConvergentError, match=f"Gauss-Hermite pairing of order {4 * n + 40} "
                                                 "leaves the float range"):
        {"pair": pair, "metric_pair": metric_pair}[single](*args, p)


def test_rule_whose_weights_underflow_is_a_typed_error():
    # hermgauss gives order 371 weights that are all 0.0; the pairing, whose value
    # is 1, read 0j with no error because every entry of the block was finite
    p = pts.REGION_I_POINTS[0]
    with np.errstate(over="ignore"):
        assert not gauss_hermite(371).weights.any()
    state = discrete_states(p, 2)[2]
    assert _pair_on(state.left_fn, state.right_fn, p, (0.0, 370)) == pytest.approx(1.0)
    with pytest.raises(NonConvergentError,
                       match="Gauss-Hermite pairing of order 371 leaves the float range"):
        _pair_on(state.left_fn, state.right_fn, p, (0.0, 371))


def test_quadrature_order_doubling_stability():
    p = pts.REGION_I_POINTS[0]
    states = discrete_states(p, 5)
    base = _pair_on(states[2].left_fn, states[2].right_fn, p, (0.0, 60))
    doubled = _pair_on(states[2].left_fn, states[2].right_fn, p, (0.0, 120))
    assert abs(base - doubled) <= 1e-10

    p2 = pts.REGION_II_POINT
    s2 = {(s.n, s.branch): s for s in discrete_states(p2, 4)}
    base = _pair_on(s2[(3, "+")].left_fn, s2[(3, "+")].right_fn, p2, (-math.pi / 4, 56))
    doubled = _pair_on(s2[(3, "+")].left_fn, s2[(3, "+")].right_fn, p2, (-math.pi / 4, 112))
    assert abs(base - doubled) <= 1e-10


def test_pairing_bilinearity():
    p = pts.REGION_I_POINTS[0]
    states = discrete_states(p, 3)
    a = states[1].left_fn
    b = states[2].right_fn
    scaled = dataclasses.replace(b, norm=(0.7 - 0.2j) * b.norm)
    assert pair(a, scaled, p) == pytest.approx((0.7 - 0.2j) * pair(a, b, p), abs=1e-14)

    f1 = GaussPoly(gauss=-1.5, coeffs=(1.0, 0.5), norm=1.0)
    f2 = GaussPoly(gauss=-1.5, coeffs=(0.0, 0.0, 2.0), norm=1.0)
    fsum = GaussPoly(gauss=-1.5, coeffs=(1.0, 0.5, 2.0), norm=1.0)
    assert pair(a, fsum, p) == pytest.approx(pair(a, f1, p) + pair(a, f2, p), abs=1e-14)


def test_nonconvergent_doubled_growth():
    # two right-functions whose dressing growth adds: no admissible contour
    p = ModelParams(1.0, -0.5, -3.0)          # Region II with positive dressing
    states = discrete_states(p, 0)
    plus = next(s for s in states if s.branch == "+")
    with pytest.raises(NonConvergentError):
        pair(plus.right_fn, plus.right_fn, p)


def test_nonconvergent_zero_gauss():
    p = pts.REGION_I_POINTS[0]
    flat1 = GaussPoly(gauss=0.0, coeffs=(1.0,), norm=1.0)
    flat2 = GaussPoly(gauss=0.0, coeffs=(0.0, 1.0), norm=1.0)
    with pytest.raises(NonConvergentError):
        pair(flat1, flat2, p)


def test_cylinder_states_not_pairable():
    p = pts.REGION_II_POINT
    st = continuum_state(p, 0.3, "+", "phi")
    other = stripped_discrete_function(p, 0, "+")
    with pytest.raises(NonConvergentError):
        pair(st, other, p)


def test_two_delta_pairing_undefined():
    p = pts.BOUNDARY_I_III_POINT
    states = {(s.n, s.branch): s for s in discrete_states(p, 1)}
    with pytest.raises(NonConvergentError):
        pair(states[(0, "-")].right_fn, states[(1, "-")].right_fn, p)


NOT_CLOSED_FORMS = {
    # a callable of real x cannot be sampled on the rotated contour
    "callable": (lambda x: np.exp(-x ** 2), "got function"),
    "float": (1.0, "got 1.0"),
    "none": (None, "got None"),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("what", list(NOT_CLOSED_FORMS))
@pytest.mark.parametrize("single", [pair, metric_pair], ids=["pair", "metric_pair"])
def test_a_side_that_is_not_a_closed_form_is_refused_before_any_pairing(single, what, side, monkeypatch):
    # a callable leaked AttributeError: 'function' object has no attribute 'gauss'
    import swanson.pairing as pairing_module

    def no_pairing(*args, **kwargs):
        raise AssertionError("paired a side that is not a closed form")

    monkeypatch.setattr(pairing_module, "_pair_block", no_pairing)
    other, (given, named) = _GAUSSIAN, NOT_CLOSED_FORMS[what]
    args = (given, other) if side == "left" else (other, given)
    with pytest.raises(TypeError, match=f"^{single.__name__}: each side must be a closed form .*"
                                        + re.escape(named) + "$"):
        single(*args, pts.REGION_I_POINTS[0])


def test_distributional_against_displaced_gaussian():
    # <delta' with unit prefactor | exp(-(x-1)^2)> = d/dx exp(-(x-1)^2)|_0 = 2 e^{-1}
    p = ModelParams(1.0, 0.0, 0.0)
    delta = DeltaDeriv(gauss=0.0, n=1, norm=-1.0)   # (-1)^1/sqrt(1!) convention
    target = PlaneWaveGauss(gauss=-2.0, k_wave=-2.0j, amp_plus=math.exp(-1.0), amp_minus=0.0)
    value = pair(delta, target, p)
    assert value == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("m", [170, 171, 172, 300])
def test_delta_pairing_past_order_170_reads_the_closed_form(m):
    # <delta^(m) | exp(-x^2/2)> = (-1)^m d^m/dx^m exp(-x^2/2) at 0 = (-1)^(m/2) (m-1)!!
    # for even m and 0 for odd m; m! leaves the float range from m = 171
    p = ModelParams(1.0, 0.0, 0.0)
    gaussian = GaussPoly(gauss=-1.0, coeffs=(1.0,), norm=1.0)
    value = pair(DeltaDeriv(gauss=0.0, n=m, norm=1.0), gaussian, p)
    exact = 0 if m % 2 else (-1) ** (m // 2) * mpmath.fac2(m - 1)
    assert abs(value - complex(exact)) <= 1e-13 * max(abs(float(exact)), 1.0)


def test_boundary_i_iii_gram_past_order_170_is_the_identity():
    # the delta blocks are closed forms: each monomial is differentiated once
    report = gram(pts.BOUNDARY_I_III_POINT, 171)
    assert report.max_diag_err <= 1e-12 and report.max_offdiag <= 1e-12


def test_boundary_i_iii_gram_at_n_max_300_is_the_identity():
    report = gram(ModelParams(1.0, 0.6, 0.4), 300)
    assert report.max_diag_err <= 1e-12 and report.max_offdiag <= 1e-12


def test_delta_pairing_outside_the_float_range_is_a_typed_error():
    # the value 2^150 299!! of a steeper Gaussian and the norm sqrt(301!) of an
    # order-301 functional both leave the float range
    p = ModelParams(1.0, 0.0, 0.0)
    gaussian = GaussPoly(gauss=-1.0, coeffs=(1.0,), norm=1.0)
    with pytest.raises(NonConvergentError, match="float range"):
        pair(DeltaDeriv(gauss=0.0, n=300, norm=1.0), dataclasses.replace(gaussian, gauss=-2.0), p)
    with pytest.raises(NonConvergentError, match="float range"):
        pair(DeltaDeriv(gauss=0.0, n=301, norm=1.0), gaussian, p)


def test_right_states_combine_convergent_with_their_duals():
    # the combined Gaussian of a dual/right pair is -2 sigma^2 < 0 in the
    # real-spectrum regions: the dressing growth always cancels
    for p in pts.REGION_I_POINTS + pts.REGION_III_POINTS:
        for s in discrete_states(p, 4):
            combined = np.conjugate(s.left_fn.gauss) + s.right_fn.gauss
            assert complex(combined).real < 0


@pytest.mark.parametrize("target,got", [
    (lambda x: 1.0, "shape ()"),
    (lambda x: x[:3], "shape (3,)"),
    (lambda x: np.nan * x, "non-finite values"),
    (lambda x: np.where(x > 4.0, np.inf, 1.0), "non-finite values"),
], ids=["scalar", "short", "nan", "inf"])
def test_reconstruct_refuses_a_malformed_callable_before_any_pairing(target, got, monkeypatch):
    # these raised a bare IndexError, numpy's matmul ValueError, and a NonConvergentError
    # that blamed the Gauss-Hermite pairing
    import swanson.pairing as pairing_module

    def no_pairing(*args, **kwargs):
        raise AssertionError("paired a callable whose output on the grid is not usable")

    monkeypatch.setattr(pairing_module, "_pair_block", no_pairing)
    with pytest.raises(ValueError, match=r"^reconstruct: a callable target must give finite "
                                         r"values of shape \(201,\) on the grid, got "
                                         + re.escape(got) + "$"):
        reconstruct(pts.REGION_I_POINTS[0], target, 10)


def test_a_callable_of_another_shape_at_the_nodes_is_refused_before_the_product(monkeypatch):
    # np.ones(201) has the grid's shape, and met numpy's matmul ValueError at the 160 nodes
    import swanson.pairing as pairing_module

    products = []

    class Watched(np.ndarray):      # left rows that record each matrix product they enter
        def __matmul__(self, other):
            products.append(np.shape(other))
            return np.asarray(self) @ other

    real = pairing_module._stripped
    monkeypatch.setattr(pairing_module, "_stripped", lambda *args: real(*args).view(Watched))
    p = pts.REGION_I_POINTS[0]
    reconstruct(p, lambda x: np.exp(-x * x), 10)
    assert products == [(160, 1)]       # the spy sees a well-formed callable's product
    products.clear()
    with pytest.raises(ValueError, match=r"^a callable target must give values of the nodes' "
                                         r"shape \(160,\), got shape \(201,\)$"):
        reconstruct(p, lambda x: np.ones(201), 10)
    assert products == []


def test_reconstruct_slow_target_nonconvergent():
    p = pts.REGION_I_POINTS[0]
    growing = GaussPoly(gauss=2.0, coeffs=(1.0,), norm=1.0)
    with pytest.raises(NonConvergentError):
        reconstruct(p, growing, 4)
