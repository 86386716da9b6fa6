"""Bilinear pairings <left | right> = integral conj(left) * right dx.

The pair decides how it is paired.  A block with a delta-derivative
functional (the Boundary I-III left states) is a functional evaluation in
closed form: exact derivatives at the origin, the Gaussian prefactors
combined analytically (never sampled), each function in its own basis; it
takes no rule.  Every other block is an integral on one rule type,
RotatedContour(theta, order): x -> e^{i theta} y turns the combined Gaussian
onto a decaying direction, theta = 0 being the real line and theta = -+ pi/4
the Region II/IV products.  The integrands are entire and Gaussian-bounded in
the swept wedge whenever Re(combined exponent) <= 0, which the auto-selector
requires, so the rotation is exact.

The exponent bookkeeping is symbolic throughout: Gaussian coefficients add,
they are never multiplied pointwise, so growing similarity factors cancel
before any number is evaluated.

Pairings are computed a family at a time by one kernel: every pair of a Gram
block, a reconstruction or a resonant-expansion column shares one combined
exponent, so the block takes one contour angle, one rule and one weighted
matrix product; a single pairing is the 1 x 1 case.  A side of
smooth closed forms with one basis is its term matrix times the basis rows
(normalized Hermite polynomials or monomials) sampled at the nodes, so no
state re-runs a recurrence.  The left side is read once and conjugated as
term data, and when conj of its basis scale is the right side's, as in every
Regions I-IV right-left and metric block, one set of basis rows serves both.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import REAL_SPECTRUM, ModelParams, RegionLabel, _require_index, _require_stratum, derive
from .errors import NonConvergentError, RegionError
from .eigensystems import (
    _LADDER_MAX,
    CylinderState,
    DeltaDeriv,
    GaussPoly,
    GeneralizedFunction,
    _basis_rows,
    _inverse_sqrt_factorial,
    _ladder,
    _ladder_stratum,
    _stripped,
    _superpose,
    _taylor_rows,
    _terms,
    conjugate_function,
    evaluate,
)
from .specfun import _GAUSS_HERMITE_MAX, SQRT_PI, gauss_hermite

__all__ = [
    "RotatedContour",
    "GramReport",
    "pair",
    "metric_pair",
    "gram",
    "reconstruct",
]


_NODES_PER_DEGREE, _NODES_EXTRA = 4, 40    # a degree-n state is paired on 4 n + 40 nodes
_PAIRED_DEGREE_MAX = (_GAUSS_HERMITE_MAX - _NODES_EXTRA) // _NODES_PER_DEGREE     # 115


@dataclass(frozen=True)
class RotatedContour:
    theta: float
    order: int

    def __post_init__(self):
        if not -math.pi / 2 < self.theta < math.pi / 2:
            raise ValueError("rotation angle must lie in (-pi/2, pi/2)")


def _shared_gauss(side: list[GeneralizedFunction]) -> complex:
    gauss = complex(side[0].gauss)
    if any(complex(f.gauss) != gauss for f in side[1:]):
        raise ValueError("every function on one side of a pairing block must share its Gaussian")
    return gauss


def _combined_exponent(lefts: list[GeneralizedFunction], rights, params: ModelParams) -> complex:
    """The one exponent a in exp(a x^2) of every conj(lefts[i]) * rights[j] of a block."""
    right_gauss = 0.0 if callable(rights) else _shared_gauss(rights)
    return (_shared_gauss(lefts).conjugate() + right_gauss) / (2.0 * params.b0 ** 2)


def _default_strategy(lefts: list[GeneralizedFunction], rights,
                      params: ModelParams) -> RotatedContour | None:
    """None for a block with delta functionals (paired in closed form), else the contour
    its combined exponent admits, on 4 n + 40 nodes for its highest degree n;
    NonConvergentError if none."""
    functions = lefts if callable(rights) else [*lefts, *rights]
    if any(isinstance(f, DeltaDeriv) for f in functions):
        return None
    degree = max((len(f.coeffs) - 1 for f in functions if isinstance(f, GaussPoly)), default=0)
    order = _NODES_PER_DEGREE * degree + _NODES_EXTRA
    a_tot = _combined_exponent(lefts, rights, params)
    mag = abs(a_tot)
    if mag == 0.0:
        raise NonConvergentError("combined Gaussian exponent vanishes; integrand has no decay")
    re, im = a_tot.real, a_tot.imag
    if re > 1e-13 * mag:
        raise NonConvergentError("combined Gaussian exponent grows; no admissible contour")
    if re < 0.0 and abs(im) <= 0.5 * (-re):
        return RotatedContour(0.0, order)
    angle = math.atan2(im, re)
    target = math.pi if angle >= 0.0 else -math.pi
    return RotatedContour(0.5 * (target - angle), order)


def _delta_block(deltas: list[GeneralizedFunction], smooth: list[GeneralizedFunction],
                 params: ModelParams) -> np.ndarray:
    """Integrals of smooth[i] * deltas[j] (conjugation already applied), in closed form.

    <norm e^{g x^2/(2 b0^2)} delta^(m) | s> = norm (-1)^m (e^{g x^2/(2 b0^2)} s)^(m)(0):
    each smooth function is differentiated once, to the block's highest order,
    as f^(m)(0)/sqrt(m!), times norm (-1)^m sqrt(m!) from the exact 1/sqrt(m!).
    """
    if not all(isinstance(f, DeltaDeriv) for f in deltas) \
            or any(isinstance(f, DeltaDeriv) for f in smooth):
        raise NonConvergentError("a delta-derivative block pairs delta-derivative "
                                 "functionals with smooth closed forms only")
    orders = [f.n for f in deltas]
    rows = _taylor_rows(smooth, _shared_gauss(deltas) + _shared_gauss(smooth), params, max(orders))
    return rows[:, orders] * [f.norm * (-1) ** f.n / _inverse_sqrt_factorial(f.n) for f in deltas]


@np.errstate(all="ignore")
def _pair_block(lefts: list[GeneralizedFunction], rights, params: ModelParams,
                strategy: RotatedContour | None = None) -> np.ndarray:
    """Matrix of <lefts[i] | rights[j]>, the one quadrature kernel.

    A block with delta-derivative functionals is paired in closed form, on
    conjugated functions, and takes no strategy.  Every other block has one
    combined exponent, as each side shares one Gaussian: one contour angle, one
    Gauss-Hermite rule (order 4 * highest degree + 40 unless strategy names
    one) and one weighted product of the stripped closed forms at the shared
    nodes; a side is its term matrix (eigensystems._terms) times its basis
    rows.  The left side's term data are conjugated as arrays (the basis
    polynomials have real coefficients), and where the two sides then share a
    basis scale its rows are sampled once, to the higher degree.  rights may
    instead be a callable of real x with no Gaussian factor, sampled at the
    real nodes of a theta = 0 rule.
    Every block is checked here: NonConvergentError names the rule of a non-finite one.
    """
    sampled = callable(rights)
    functions = lefts if sampled else [*lefts, *rights]
    if any(isinstance(f, CylinderState) for f in functions):
        raise NonConvergentError(
            "continuum states are delta-normalized distributions; use "
            "continuum.delta_normalization_probe for their pairings")
    rule_sound = True
    if any(isinstance(f, DeltaDeriv) for f in functions):
        if strategy is not None:
            raise NonConvergentError("a delta-derivative pairing is a functional evaluation "
                                     f"in closed form and takes no quadrature rule, got {strategy}")
        lefts_conj = [conjugate_function(f) for f in lefts]
        if all(isinstance(f, DeltaDeriv) for f in lefts_conj):
            block = _delta_block(lefts_conj, rights, params).T
        else:
            block = _delta_block(rights, lefts_conj, params)
        kind, order = "delta-derivative", max(f.n for f in functions if isinstance(f, DeltaDeriv))
    else:
        if strategy is None:
            strategy = _default_strategy(lefts, rights, params)
        theta = strategy.theta
        a_rot = _combined_exponent(lefts, rights, params) * np.exp(2j * theta)
        if a_rot.real >= 0.0:
            raise NonConvergentError(f"exponent does not decay at theta = {theta:g}; contour inadmissible")
        s = math.sqrt(-a_rot.real)
        quadrature = gauss_hermite(strategy.order)
        t = quadrature.nodes
        x = np.exp(1j * theta) * t / s
        # residual oscillation left after absorbing exp(-t^2): exp(i t^2 Im(a_rot)/s^2)
        residual = np.exp(t * t * (1.0 + a_rot / (s * s)))
        # conj p_k(x) is p_k at the conjugate scale
        coeffs, scale, drift, first = _terms(lefts)
        left = (coeffs.conj(), None if scale is None else scale.conjugate(), drift.conj(), first)
        if sampled:
            left_rows = _stripped(left, x, params)
            right_rows = np.asarray(rights(t / s), dtype=complex)[None, :]
        else:
            right = _terms(rights)
            rows = None
            if left[1] == right[1]:     # one basis: sampled once, to the higher degree
                degree = max(coeffs.shape[1], right[0].shape[1]) - 1
                rows = _basis_rows(right[1], x, params, degree)
            left_rows, right_rows = _stripped(left, x, params, rows), _stripped(right, x, params, rows)
        block = (left_rows * (quadrature.weights * residual)) @ right_rows.T * (np.exp(1j * theta) / s)
        kind, order = "Gauss-Hermite", strategy.order
        # the weights sum to sqrt(pi); numpy's hermgauss gives all 0.0 at order 371, NaN from 372
        rule_sound = abs(quadrature.weights.sum() - SQRT_PI) <= 1e-13 * SQRT_PI
    if not (rule_sound and np.isfinite(block).all()):
        raise NonConvergentError(f"{kind} pairing of order {order} leaves the float range")
    return block


def pair(left: GeneralizedFunction, right: GeneralizedFunction, params: ModelParams,
         strategy: RotatedContour | None = None) -> complex:
    """<left | right> = integral conj(left(x)) right(x) dx.

    A pair with a delta-derivative functional is evaluated in closed form and
    takes no strategy.  Otherwise, with strategy None, an admissible contour is
    selected from the combined Gaussian exponent; NonConvergentError is raised
    when none exists.
    """
    return complex(_pair_block([left], [right], params, strategy)[0, 0])


def _metric_dressed(fs: list[GeneralizedFunction], c: float | None) -> list[GeneralizedFunction]:
    """fs with the metric U = Upsilon^2, of similarity coefficient c, in their Gaussian exponents."""
    if c is None:
        raise RegionError("metric undefined on the boundary omega = alpha + beta")
    return [dataclasses.replace(f, gauss=complex(f.gauss) - 2.0 * c) for f in fs]


def metric_pair(a: GeneralizedFunction, b: GeneralizedFunction, params: ModelParams,
                strategy: RotatedContour | None = None) -> complex:
    """<a | b>_U with U = Upsilon^2, applied by exponent arithmetic.

    For dressed right-states this reduces to the bilinear pairing of the
    corresponding left partner with b; at alpha = beta it is the ordinary
    inner product.
    """
    return pair(_metric_dressed([a], derive(params).upsilon_coeff)[0], b, params, strategy)


@dataclass(frozen=True)
class GramReport:
    """Pairing matrix against the bi-orthogonality target (identity blocks).

    For branched regions the matrix stacks one (n_max+1)-square block per
    branch; max_offdiag and max_diag_err are sup-norm deviations from the
    identity across all blocks.
    """

    n_max: int
    which: str
    matrix: np.ndarray
    max_offdiag: float
    max_diag_err: float


def gram(params: ModelParams, n_max: int, which: str = "right-left") -> GramReport:
    """Gram matrix of the discrete states.

    which = 'right-left' pairs each left partner against every right state
    (the bi-orthogonality contract); 'metric' pairs right states under the
    metric inner product (Regions I/III only, where U is positive).  Raises
    NonConvergentError when an entry is not finite; n_max <= 115 (300 on Boundary I-III).
    """
    n_max = _require_index(n_max, "n_max")
    if which not in ("right-left", "metric"):
        raise ValueError("which must be 'right-left' or 'metric'")
    label, d, ns, branches = _ladder_stratum(params, n_max)
    if which == "metric":
        _require_stratum(label, REAL_SPECTRUM, "gram(which='metric')")
    closed = label is RegionLabel.BOUNDARY_I_III    # delta blocks in closed form, the rest by quadrature
    _require_index(n_max, "n_max", _LADDER_MAX if closed else _PAIRED_DEGREE_MAX,
                   "" if closed else " outside Boundary I-III")     # before any state is built
    ladders = [_ladder(label, d, params, branch, ns) for branch in branches]
    if which == "metric":
        rights = [s.right_fn for s in ladders[0]]
        blocks = [_pair_block(_metric_dressed(rights, d.upsilon_coeff), rights, params)]
    else:
        blocks = [_pair_block([s.left_fn for s in ladder], [s.right_fn for s in ladder], params)
                  for ladder in ladders]

    stack = np.stack(blocks)
    max_off = float(np.max(np.abs(stack * (1.0 - np.eye(n_max + 1)))))
    max_diag = float(np.max(np.abs(np.diagonal(stack, axis1=1, axis2=2) - 1.0)))
    return GramReport(n_max, which, np.vstack(blocks), max_off, max_diag)


def _expand(duals: list[GaussPoly], basis: list[GaussPoly], pieces, strategy_of,
            grid: np.ndarray, params: ModelParams, what: str,
            target: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Expand the target sum_p c_p f_p over basis, duals[n] the dual of basis[n]: the
    coefficients sum_p c_p <duals[n] | f_p>, one kernel block per piece (c_p, f_p) on the
    strategy strategy_of(f_p), chosen as the block is formed, and the sup-norm deviation
    on grid of their superposition from the target.  f_p may be a callable of real x, as
    _pair_block takes it.  target holds the target on grid where the caller formed it
    before any pairing; otherwise it is evaluated after the blocks.  NonConvergentError
    naming what where the deviation is not finite."""
    coeffs = sum(c * _pair_block(duals, f if callable(f) else [f], params, strategy_of(f))[:, 0]
                 for c, f in pieces)
    if target is None:
        target = sum(c * evaluate(f, grid, params) for c, f in pieces)
    recon = evaluate(_superpose(coeffs, basis), grid, params)
    sup_error = float(np.max(np.abs(recon - target)))
    if not math.isfinite(sup_error):
        raise NonConvergentError(f"{what} at n_max = {len(basis) - 1} has a non-finite sup-error")
    return coeffs, sup_error


def reconstruct(params: ModelParams, target, n_max: int) -> tuple[np.ndarray, float]:
    """Expand a decaying target over the Region I/III right-state basis.

    target is a GeneralizedFunction or a callable of x.  Coefficients are
    c_n = <left_n | target>, paired on a Gauss-Hermite rule of order
    max(4 n_max + 40, 160); returns (coefficients, sup-norm deviation of the
    truncated reconstruction from the target on 201 points over +-5 b0).
    Raises NonConvergentError when a coefficient or the deviation is not
    finite; n_max is at most 115.
    """
    n_max = _require_index(n_max, "n_max", _PAIRED_DEGREE_MAX)
    label = _require_stratum(params, REAL_SPECTRUM, "reconstruct")
    states = _ladder(label, derive(params), params, None, range(n_max + 1))
    grid = np.linspace(-5.0 * params.b0, 5.0 * params.b0, 201)
    values = (np.asarray(target(grid), dtype=complex) if callable(target)
              else evaluate(target, grid, params))
    rule = RotatedContour(0.0, max(_NODES_PER_DEGREE * n_max + _NODES_EXTRA, 160))
    return _expand([s.left_fn for s in states], [s.right_fn for s in states], [(1.0, target)],
                   lambda _: rule, grid, params, "reconstruction", values)
