"""Bilinear pairings <left | right> = integral conj(left) * right dx.

Three integration strategies realize the formal integrals:

* DirectGaussHermite: the combined Gaussian exponent already decays on the
  real line; Gauss-Hermite nodes are scaled to it.
* RotatedContour: purely oscillatory (or oscillation-dominated) combined
  Gaussians are rotated x -> e^{i theta} y onto a decaying direction.  The
  integrands are entire and Gaussian-bounded in the swept wedge whenever
  Re(combined exponent) <= 0, which the auto-selector requires, so the
  rotation is exact; theta = -+ pi/4 for the Region II/IV products.
* DistributionalExact: delta-derivative functionals against smooth closed
  forms, evaluated as exact Taylor derivatives at the origin with the
  Gaussian prefactors combined analytically (never sampled).

The exponent bookkeeping is symbolic throughout: Gaussian coefficients add,
they are never multiplied pointwise, so growing similarity factors cancel
before any number is evaluated.

Pairings are computed a family at a time by one kernel: every pair of a Gram
block, a reconstruction or a resonant-expansion column shares one combined
exponent, so the block takes one strategy, one contour angle, one rule and
one weighted matrix product; a single pairing is the 1 x 1 case.  A side of
GaussPoly states with one basis is its coefficient matrix times the basis
rows (normalized Hermite polynomials or monomials) sampled once at the
nodes, so no state re-runs a recurrence.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, RegionLabel, classify, derive
from .errors import NonConvergentError, RegionError
from .eigensystems import (
    CylinderState,
    DeltaDeriv,
    GaussPoly,
    GeneralizedFunction,
    _stripped,
    _superpose,
    conjugate_function,
    discrete_states,
    evaluate,
    taylor_coefficients,
)
from .specfun import _GAUSS_HERMITE_MAX, gauss_hermite

__all__ = [
    "DirectGaussHermite",
    "RotatedContour",
    "DistributionalExact",
    "GramReport",
    "pair",
    "metric_pair",
    "gram",
    "reconstruct",
]


_NODES_PER_DEGREE, _NODES_EXTRA = 4, 40    # a degree-n state is paired on 4 n + 40 nodes
_PAIRED_DEGREE_MAX = (_GAUSS_HERMITE_MAX - _NODES_EXTRA) // _NODES_PER_DEGREE     # 115


def _require_paired_degree(n: int, name: str, where: str = "") -> None:
    """ValueError naming the caller's parameter where gauss_hermite has no rule for it."""
    if n > _PAIRED_DEGREE_MAX:
        raise ValueError(f"{name} must be at most {_PAIRED_DEGREE_MAX}{where}, got {n}")


@dataclass(frozen=True)
class DirectGaussHermite:
    order: int


@dataclass(frozen=True)
class RotatedContour:
    theta: float
    order: int

    def __post_init__(self):
        if not -math.pi / 2 < self.theta < math.pi / 2:
            raise ValueError("rotation angle must lie in (-pi/2, pi/2)")


@dataclass(frozen=True)
class DistributionalExact:
    pass


PairingStrategy = DirectGaussHermite | RotatedContour | DistributionalExact


def _shared_gauss(side: list[GeneralizedFunction]) -> complex:
    gauss = complex(side[0].gauss)
    if any(complex(f.gauss) != gauss for f in side[1:]):
        raise ValueError("every function on one side of a pairing block must share its Gaussian")
    return gauss


def _auto_strategy(a_tot: complex, order: int) -> PairingStrategy:
    mag = abs(a_tot)
    if mag == 0.0:
        raise NonConvergentError("combined Gaussian exponent vanishes; integrand has no decay")
    re, im = a_tot.real, a_tot.imag
    if re > 1e-13 * mag:
        raise NonConvergentError("combined Gaussian exponent grows; no admissible contour")
    if re < 0.0 and abs(im) <= 0.5 * (-re):
        return DirectGaussHermite(order)
    angle = math.atan2(im, re)
    target = math.pi if angle >= 0.0 else -math.pi
    return RotatedContour(0.5 * (target - angle), order)


def _distributional_value(left_conj: GeneralizedFunction, right: GeneralizedFunction,
                          params: ModelParams) -> complex:
    if isinstance(left_conj, DeltaDeriv) and isinstance(right, DeltaDeriv):
        raise NonConvergentError("pairing of two delta-derivative functionals is undefined")
    if isinstance(left_conj, DeltaDeriv):
        delta, smooth = left_conj, right
    else:
        delta, smooth = right, left_conj
    m = delta.n
    if m > 170:
        raise NonConvergentError(
            f"delta-derivative pairing of order {m}: the factorials of its Taylor "
            "coefficients leave the float range from order 171")
    # fold the delta's Gaussian prefactor into the smooth side symbolically
    shifted = dataclasses.replace(smooth, gauss=complex(smooth.gauss) + complex(delta.gauss))
    coeff = taylor_coefficients(shifted, params, m)[m]
    return complex(delta.norm) * (-1.0) ** m * math.factorial(m) * coeff


def _pair_block(lefts: list[GeneralizedFunction], rights, params: ModelParams,
                strategy: PairingStrategy | None = None) -> np.ndarray:
    """Matrix of <lefts[i] | rights[j]>, the one quadrature kernel.

    Each side shares one Gaussian exponent, so the whole block has one
    combined exponent: one strategy, one contour angle and one Gauss-Hermite
    rule (order 4 * highest degree + 40 unless the strategy names one), and
    one weighted product of the stripped closed forms sampled at the shared
    nodes; a side of GaussPoly functions with one basis is its coefficient
    matrix times one set of basis rows.  rights may instead be a callable of
    real x with no Gaussian factor, sampled at the real nodes; it needs a
    DirectGaussHermite strategy.
    Blocks with a delta-derivative functional are paired element by element.
    """
    sampled = callable(rights)
    functions = lefts if sampled else [*lefts, *rights]
    if any(isinstance(f, CylinderState) for f in functions):
        raise NonConvergentError(
            "continuum states are delta-normalized distributions; use "
            "continuum.delta_normalization_probe for their pairings")
    lefts_conj = [conjugate_function(f) for f in lefts]
    has_delta = any(isinstance(f, DeltaDeriv) for f in functions)
    if isinstance(strategy, DistributionalExact) or (strategy is None and has_delta):
        return np.array([[_distributional_value(lc, r, params) for r in rights]
                         for lc in lefts_conj])
    if has_delta:
        raise NonConvergentError("delta-derivative pairings require the DistributionalExact strategy")

    right_gauss = 0.0 if sampled else _shared_gauss(rights)
    a_tot = (_shared_gauss(lefts_conj) + right_gauss) / (2.0 * params.b0 ** 2)
    if strategy is None:
        degree = max((len(f.coeffs) - 1 for f in functions if isinstance(f, GaussPoly)),
                     default=0)
        strategy = _auto_strategy(a_tot, _NODES_PER_DEGREE * degree + _NODES_EXTRA)
    if isinstance(strategy, DirectGaussHermite):
        if a_tot.real >= 0.0:
            raise NonConvergentError("combined Gaussian exponent does not decay on the real line")
        theta = 0.0
    elif isinstance(strategy, RotatedContour):
        theta = strategy.theta
    else:
        raise TypeError(f"unknown strategy {strategy!r}")

    a_rot = a_tot * np.exp(2j * theta)
    if a_rot.real >= 0.0:
        raise NonConvergentError("rotated exponent does not decay; contour inadmissible")
    s = math.sqrt(-a_rot.real)
    rule = gauss_hermite(strategy.order)
    t = rule.nodes
    x = np.exp(1j * theta) * t / s
    # residual oscillation left after absorbing exp(-t^2): exp(i t^2 Im(a_rot)/s^2)
    residual = np.exp(t * t * (1.0 + a_rot / (s * s)))
    left_rows = _stripped(lefts_conj, x, params)
    if sampled:
        right_rows = np.asarray(rights(t / s), dtype=complex)[None, :]
    else:
        right_rows = _stripped(rights, x, params)
    return (left_rows * (rule.weights * residual)) @ right_rows.T * (np.exp(1j * theta) / s)


def pair(left: GeneralizedFunction, right: GeneralizedFunction, params: ModelParams,
         strategy: PairingStrategy | None = None) -> complex:
    """<left | right> = integral conj(left(x)) right(x) dx.

    With strategy None an admissible strategy is selected from the combined
    Gaussian exponent; NonConvergentError is raised when none exists.
    """
    return complex(_pair_block([left], [right], params, strategy)[0, 0])


def _metric_dressed(a: GeneralizedFunction, params: ModelParams) -> GeneralizedFunction:
    """a with the metric U = Upsilon^2 folded into its Gaussian exponent."""
    d = derive(params)
    if d.upsilon_coeff is None:
        raise RegionError("metric undefined on the boundary omega = alpha + beta")
    return dataclasses.replace(a, gauss=complex(a.gauss) - 2.0 * d.upsilon_coeff)


def metric_pair(a: GeneralizedFunction, b: GeneralizedFunction, params: ModelParams,
                strategy: PairingStrategy | None = None) -> complex:
    """<a | b>_U with U = Upsilon^2, applied by exponent arithmetic.

    For dressed right-states this reduces to the bilinear pairing of the
    corresponding left partner with b; at alpha = beta it is the ordinary
    inner product.
    """
    return pair(_metric_dressed(a, params), b, params, strategy)


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
    NonConvergentError when an entry is not finite.
    """
    states = discrete_states(params, n_max)
    if states[0].region is not RegionLabel.BOUNDARY_I_III:     # paired by quadrature
        _require_paired_degree(n_max, "n_max", " outside Boundary I-III")
    if which == "metric":
        if classify(params) not in (RegionLabel.REGION_I, RegionLabel.REGION_III):
            raise RegionError("metric gram requires Region I or III")
        rights = [s.right_fn for s in states]
        blocks = [_pair_block([_metric_dressed(r, params) for r in rights], rights, params)]
    elif which == "right-left":
        blocks = []
        for br in sorted({s.branch for s in states}, key=lambda b: (b is None, b)):
            sub = sorted((s for s in states if s.branch == br), key=lambda s: s.n)
            blocks.append(_pair_block([s.left_fn for s in sub], [s.right_fn for s in sub], params))
    else:
        raise ValueError("which must be 'right-left' or 'metric'")

    stack = np.stack(blocks)
    if not np.all(np.isfinite(stack)):
        raise NonConvergentError(f"gram matrix at n_max = {n_max} has non-finite entries")
    max_off = float(np.max(np.abs(stack * (1.0 - np.eye(n_max + 1)))))
    max_diag = float(np.max(np.abs(np.diagonal(stack, axis1=1, axis2=2) - 1.0)))
    return GramReport(n_max, which, np.vstack(blocks), max_off, max_diag)


def reconstruct(params: ModelParams, target, n_max: int) -> tuple[np.ndarray, float]:
    """Expand a decaying target over the Region I/III right-state basis.

    target is a GeneralizedFunction or a callable of x.  Coefficients are
    c_n = <left_n | target>, paired on a Gauss-Hermite rule of order
    max(4 n_max + 40, 160); returns (coefficients, sup-norm deviation of the
    truncated reconstruction from the target on 201 points over +-5 b0).
    Raises NonConvergentError when a coefficient or the deviation is not
    finite.
    """
    label = classify(params)
    if label not in (RegionLabel.REGION_I, RegionLabel.REGION_III):
        raise RegionError("reconstruction over the discrete basis requires Region I or III")
    _require_paired_degree(n_max, "n_max")
    states = discrete_states(params, n_max)
    grid = np.linspace(-5.0 * params.b0, 5.0 * params.b0, 201)

    if callable(target):
        right, target_vals = target, np.asarray(target(grid), dtype=complex)
    else:
        right, target_vals = [target], evaluate(target, grid, params)
    order = max(_NODES_PER_DEGREE * n_max + _NODES_EXTRA, 160)
    coeffs = _pair_block([s.left_fn for s in states], right, params, DirectGaussHermite(order))[:, 0]
    what = f"reconstruction at n_max = {n_max}"
    _require_finite(coeffs, what)

    recon = evaluate(_superpose(coeffs, [s.right_fn for s in states]), grid, params)
    sup_error = float(np.max(np.abs(recon - target_vals)))
    _require_finite(sup_error, what)
    return coeffs, sup_error


def _require_finite(values, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NonConvergentError(f"{what} has non-finite coefficients or sup-error")
