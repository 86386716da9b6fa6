"""Bilinear pairings <left | right> = integral conj(left) * right dx.

The block decides how it is paired; no caller names a rule.  A block with
delta-derivative functionals (the Boundary I-III left states) is a functional
evaluation in closed form: exact derivatives at the origin, the Gaussian
prefactors combined analytically (never sampled), each function in its own
basis.  Every other block is an integral on a rotated contour (theta, order):
x -> e^{i theta} y turns the combined Gaussian onto a decaying direction,
theta = 0 being the real line and theta = -+ pi/4 the Region II/IV products.
The integrands are entire and Gaussian-bounded in the swept wedge whenever
Re(combined exponent) <= 0, which the kernel requires, so the rotation is
exact.

The exponent bookkeeping is symbolic throughout: Gaussian coefficients add,
they are never multiplied pointwise, so growing similarity factors cancel
before any number is evaluated.

Pairings are computed a family at a time by one kernel: every pair of a Gram
block, a reconstruction or a resonant-expansion column shares one combined
exponent, so the block takes one rule, and on a contour one weighted matrix
product; a single pairing is the 1 x 1 case.  Each side is read once, for its
Gaussian, its degree, its delta functionals and its term data, and both rules
read the left side's term data conjugated as arrays.  A side of smooth closed
forms with one basis is its term matrix times the basis rows (normalized
Hermite polynomials or monomials) sampled at the nodes, so no state re-runs a
recurrence; a Regions I-IV ladder side, one Rungs record (Gaussian, norm,
scale, top), is the basis rows up to its top times its norm.  When conj of
the left basis scale is the right side's, as in every Regions I-IV right-left
and metric block, one set of basis rows serves both.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import (REAL_SPECTRUM, ModelParams, RegionLabel, _require_choice, _require_index,
                   _require_stratum, derive)
from .errors import NonConvergentError, RegionError
from .eigensystems import (
    _LADDER_MAX,
    CylinderState,
    DeltaDeriv,
    GeneralizedFunction,
    Rungs,
    _basis_rows,
    _inverse_sqrt_factorial,
    _ladder,
    _ladder_stratum,
    _rungs,
    _stripped,
    _taylor_rows,
    _terms,
    evaluate,
)
from .specfun import _GAUSS_HERMITE_MAX, SQRT_PI, gauss_hermite

__all__ = [
    "GramReport",
    "pair",
    "metric_pair",
    "gram",
    "reconstruct",
]


_NODES_PER_DEGREE, _NODES_EXTRA = 4, 40    # a degree-n state is paired on 4 n + 40 nodes
_PAIRED_DEGREE_MAX = (_GAUSS_HERMITE_MAX - _NODES_EXTRA) // _NODES_PER_DEGREE     # 115
_DELTAS_WITH_SMOOTH = ("a delta-derivative block pairs delta-derivative functionals "
                       "with smooth closed forms only")


def _side(side, left: bool) -> tuple[complex, tuple | None, tuple | None]:
    """One side of a block, read once: (its shared Gaussian, its term data as
    eigensystems._terms gives them, or None; the orders n and weights
    norm (-1)^n sqrt(n!) of its delta-derivative functionals, or None), conjugated for
    the left side: the term data as arrays (conj p_k(x) is p_k at the conjugate scale,
    the basis polynomials having real coefficients), a delta's norm before its weight."""
    if isinstance(side, Rungs):
        gauss, terms, deltas = complex(side.gauss), side.terms(), None
    else:
        kinds = {type(f) for f in side}
        if CylinderState in kinds:
            raise NonConvergentError(
                "continuum states are delta-normalized distributions; use "
                "continuum.delta_normalization_probe for their pairings")
        if DeltaDeriv in kinds and len(kinds) > 1:
            raise NonConvergentError(_DELTAS_WITH_SMOOTH)
        gauss = complex(side[0].gauss)
        if any(complex(f.gauss) != gauss for f in side[1:]):
            raise ValueError("every function on one side of a pairing block must share its Gaussian")
        if DeltaDeriv in kinds:
            orders, norms = [f.n for f in side], [np.conjugate(f.norm) if left else f.norm for f in side]
            terms, deltas = None, (orders, [z * (-1) ** n / _inverse_sqrt_factorial(n)
                                            for z, n in zip(norms, orders)])
        else:
            terms, deltas = _terms(side), None
    if left:
        gauss = gauss.conjugate()
        if terms is not None:
            coeffs, scale, drift, first = terms
            terms = (coeffs.conj(), None if scale is None else scale.conjugate(), drift.conj(), first)
    return gauss, terms, deltas


@np.errstate(all="ignore")
def _pair_block(lefts, rights, params: ModelParams, rule: tuple[float, int] | None = None,
                refusal=NonConvergentError) -> np.ndarray:
    """Matrix of <lefts[i] | rights[j]>, the one quadrature kernel and the one place a
    pairing rule is chosen.

    Each side is a list of closed forms that share one Gaussian or a Rungs record (a
    Regions I-IV ladder side), read once by _side; rights may instead be a callable of
    real x with no Gaussian factor, sampled at the real nodes of a theta = 0 rule (output
    not of the nodes' shape raises ValueError naming both shapes, before any product).  A
    block with delta-derivative functionals on one side is paired in closed form: the
    other side's Taylor rows at 0 (eigensystems._taylor_rows on its term data) at the
    deltas' orders, times their weights.  Every other block has one combined exponent
    a, and is paired on the contour (theta, order) it admits, theta = 0 where a decays on
    the real line, on 4 * highest degree + 40 nodes, unless rule names one;
    refusal(reason) is the error raised where no contour admits a.  The block is then
    one weighted product of the two sides stripped at the shared nodes, each its term
    matrix times its basis rows (a Rungs side its basis rows times its norm); where the
    left side's conjugated scale is the right side's, its rows are sampled once, to the
    higher degree.  Every block is checked here: NonConvergentError names the rule of a
    non-finite one.
    """
    sampled = callable(rights)
    left_gauss, left, left_deltas = _side(lefts, left=True)
    right_gauss, right, right_deltas = (0.0, None, None) if sampled else _side(rights, left=False)
    gauss = left_gauss + right_gauss       # the Gaussian of every conj(lefts[i]) * rights[j]
    rule_sound = True
    if left_deltas or right_deltas:
        (orders, weights), smooth = (left_deltas, right) if left_deltas else (right_deltas, left)
        if smooth is None:
            raise NonConvergentError(_DELTAS_WITH_SMOOTH)
        block = _taylor_rows(smooth, gauss, params, max(orders))[:, orders] * weights
        block = block.T if left_deltas else block
        kind, order = "delta-derivative", max(orders)
    else:
        a_tot = gauss / (2.0 * params.b0 ** 2)
        degree = max(terms[0].shape[-1] for terms in (left, right) if terms is not None) - 1
        if rule is None:
            mag, re, im = abs(a_tot), a_tot.real, a_tot.imag
            if mag == 0.0:
                raise refusal("combined Gaussian exponent vanishes; integrand has no decay")
            if re > 1e-13 * mag:
                raise refusal("combined Gaussian exponent grows; no admissible contour")
            angle = math.atan2(im, re)
            rule = (0.0 if re < 0.0 and abs(im) <= 0.5 * (-re)
                    else 0.5 * ((math.pi if angle >= 0.0 else -math.pi) - angle),
                    _NODES_PER_DEGREE * degree + _NODES_EXTRA)
        theta, order = rule
        a_rot = a_tot * np.exp(2j * theta)
        if a_rot.real >= 0.0:
            raise NonConvergentError(f"exponent does not decay at theta = {theta:g}; contour inadmissible")
        s = math.sqrt(-a_rot.real)
        quadrature = gauss_hermite(order)
        t = quadrature.nodes
        x = np.exp(1j * theta) * t / s
        # residual oscillation left after absorbing exp(-t^2): exp(i t^2 Im(a_rot)/s^2)
        residual = np.exp(t * t * (1.0 + a_rot / (s * s)))
        if sampled:
            left_rows = _stripped(left, x, params)
            right_rows = np.asarray(rights(t / s), dtype=complex)
            if right_rows.shape != t.shape:     # before any product: matmul would name neither
                raise ValueError(f"a callable target must give values of the nodes' shape {t.shape}, "
                                 f"got shape {right_rows.shape}")
            right_rows = right_rows[None, :]
        else:
            # one basis: sampled once, to the higher degree
            rows = _basis_rows(right[1], x, params, degree) if left[1] == right[1] else None
            left_rows, right_rows = _stripped(left, x, params, rows), _stripped(right, x, params, rows)
        block = (left_rows * (quadrature.weights * residual)) @ right_rows.T * (np.exp(1j * theta) / s)
        kind = "Gauss-Hermite"
        # the weights sum to sqrt(pi); numpy's hermgauss gives all 0.0 at order 371, NaN from 372
        rule_sound = abs(quadrature.weights.sum() - SQRT_PI) <= 1e-13 * SQRT_PI
    if not (rule_sound and np.isfinite(block).all()):
        raise NonConvergentError(f"{kind} pairing of order {order} leaves the float range")
    return block


def _require_closed_forms(what: str, *fs) -> None:
    """TypeError naming the first of fs that is not a closed form, before any pairing."""
    for f in fs:
        if not isinstance(f, GeneralizedFunction):
            given = type(f).__name__ if callable(f) else repr(f)
            raise TypeError(f"{what}: each side must be a closed form (GaussPoly, PlaneWaveGauss, "
                            f"DeltaDeriv or CylinderState), got {given}")


def pair(left: GeneralizedFunction, right: GeneralizedFunction, params: ModelParams) -> complex:
    """<left | right> = integral conj(left(x)) right(x) dx.

    The pair decides how it is paired: a pair with a delta-derivative functional
    is evaluated in closed form, any other on the contour its combined Gaussian
    exponent admits; NonConvergentError is raised when none exists.  A side that
    is not a closed form raises TypeError.
    """
    _require_closed_forms("pair", left, right)
    return complex(_pair_block([left], [right], params)[0, 0])


def _metric_dressed(fs: list[GeneralizedFunction], c: float | None) -> list[GeneralizedFunction]:
    """fs with the metric U = Upsilon^2, of similarity coefficient c, in their Gaussian exponents."""
    if c is None:
        raise RegionError("metric undefined on the boundary omega = alpha + beta")
    return [dataclasses.replace(f, gauss=complex(f.gauss) - 2.0 * c) for f in fs]


def metric_pair(a: GeneralizedFunction, b: GeneralizedFunction, params: ModelParams) -> complex:
    """<a | b>_U with U = Upsilon^2, applied by exponent arithmetic.

    For dressed right-states this reduces to the bilinear pairing of the
    corresponding left partner with b; at alpha = beta it is the ordinary
    inner product.  A side that is not a closed form raises TypeError.
    """
    _require_closed_forms("metric_pair", a, b)
    return pair(_metric_dressed([a], derive(params).upsilon_coeff)[0], b, params)


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
    _require_choice(which, "which", ("right-left", "metric"))
    label, d, ns, branches = _ladder_stratum(params, n_max)
    if which == "metric":
        _require_stratum(label, REAL_SPECTRUM, "gram(which='metric')")
    closed = label is RegionLabel.BOUNDARY_I_III    # delta blocks in closed form, the rest by quadrature
    _require_index(n_max, "n_max", _LADDER_MAX if closed else _PAIRED_DEGREE_MAX,
                   "" if closed else " outside Boundary I-III")     # before any state is built
    if closed:
        sides = [([s.left_fn for s in ladder], [s.right_fn for s in ladder])
                 for ladder in (_ladder(label, d, params, branch, ns) for branch in branches)]
    else:   # a Regions I-IV side is one Rungs record
        sides = [_rungs(label, d, params, branch, n_max)[::-1] for branch in branches]
    if which == "metric":   # the one branch of Regions I/III, its rights dressed on the left
        sides = [(_metric_dressed([rights], d.upsilon_coeff)[0], rights) for _, rights in sides]
    blocks = [_pair_block(lefts, rights, params) for lefts, rights in sides]

    stack = np.stack(blocks)
    max_off = float(np.max(np.abs(stack * (1.0 - np.eye(n_max + 1)))))
    max_diag = float(np.max(np.abs(np.diagonal(stack, axis1=1, axis2=2) - 1.0)))
    return GramReport(n_max, which, np.vstack(blocks), max_off, max_diag)


def _expand(duals: Rungs, basis: Rungs, pieces, grid: np.ndarray, params: ModelParams,
            what: str, target: np.ndarray | None = None, rule: tuple[float, int] | None = None,
            refusal=NonConvergentError) -> tuple[np.ndarray, float]:
    """Expand the target sum_p c_p f_p over the Rungs basis, its rung n dual to rung n of duals:
    the coefficients sum_p c_p <duals_n | f_p>, one kernel block per piece (c_p, f_p), with
    the kernel's rule and refusal, and the sup-norm deviation on grid of their
    superposition from the target.  f_p may be a callable of real x, as _pair_block takes
    it.  target holds the target on grid where the caller formed it before any pairing;
    otherwise it is evaluated after the blocks.  NonConvergentError naming what where the
    deviation is not finite."""
    coeffs = sum(c * _pair_block(duals, f if callable(f) else [f], params, rule, refusal)[:, 0]
                 for c, f in pieces)
    if target is None:
        target = sum(c * evaluate(f, grid, params) for c, f in pieces)
    recon = evaluate(basis.superpose(coeffs), grid, params)
    sup_error = float(np.max(np.abs(recon - target)))
    if not math.isfinite(sup_error):
        raise NonConvergentError(f"{what} at n_max = {basis.top} has a non-finite sup-error")
    return coeffs, sup_error


def reconstruct(params: ModelParams, target, n_max: int) -> tuple[np.ndarray, float]:
    """Expand a decaying target over the Region I/III right-state basis.

    target is a GeneralizedFunction or a callable of x.  Coefficients are
    c_n = <left_n | target>, paired on a Gauss-Hermite rule of order
    max(4 n_max + 40, 160); returns (coefficients, sup-norm deviation of the
    truncated reconstruction from the target on 201 points over +-5 b0).
    A callable is sampled on that grid before any pairing: output that is not
    finite values of the grid's shape raises ValueError.  Raises
    NonConvergentError when a coefficient or the deviation is not finite (so
    for a callable finite on the grid but not at the nodes); n_max <= 115.
    """
    n_max = _require_index(n_max, "n_max", _PAIRED_DEGREE_MAX)
    label = _require_stratum(params, REAL_SPECTRUM, "reconstruct")
    basis, duals = _rungs(label, derive(params), params, None, n_max)
    grid = np.linspace(-5.0 * params.b0, 5.0 * params.b0, 201)
    values = (np.asarray(target(grid), dtype=complex) if callable(target)
              else evaluate(target, grid, params))
    if values.shape != grid.shape or not np.isfinite(values).all():     # a callable's output
        got = f"shape {values.shape}" if values.shape != grid.shape else "non-finite values"
        raise ValueError(f"reconstruct: a callable target must give finite values of shape "
                         f"{grid.shape} on the grid, got {got}")
    rule = (0.0, max(_NODES_PER_DEGREE * n_max + _NODES_EXTRA, 160))
    return _expand(duals, basis, [(1.0, target)], grid, params, "reconstruction", values, rule)
