"""Generalized eigenfunctions and spectra of the oscillator pair (H, H_c).

Every discrete state is a Gaussian times a polynomial (GaussPoly), a Gaussian
plane wave or a delta-derivative functional.  Right-states diagonalize H^x
and carry the inverse similarity weight exp(+c x^2/(2 b0^2)); their left
partners diagonalize the adjoint H_c^x = H(omega, beta, alpha) and carry the
direct weight.  Conventions:

* Regions I/III use the real Gaussian width sigma, the normalized Hermite
  polynomial h_n = H_n / sqrt(2^n n!) of sigma x / b0 and the prefactor
  sqrt(sigma/(b0 sqrt(pi))) for every n, which makes the bilinear pairing of
  left and right states exactly delta_mn (quadrature-checked in the test
  suite).
* Regions II/IV rotate the Hermite argument by exp(i pi/4) (branch of sqrt(i)
  fixed globally) and multiply the prefactor by sqrt(e^{i pi/4}); the '+'
  branch is the family whose stripped part carries the Gaussian
  exp(-i sigma^2 x^2/(2 b0^2)) and it has eigenvalue +i hbar |Omega| (n + 1/2)
  in Region II, the sign-swapped value in Region IV.
* The boundary I-III states are monomial ('+' branch) and delta-derivative
  ('-' branch) functionals dressed by the tau similarity weight.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOL, OMEGA_ZERO, REAL_SPECTRUM, ModelParams, RegionLabel,
                   _finite, _gap, _require_index, _require_stratum, classify, derive)
from .errors import (DeltaDerivNotEvaluableError, NonConvergentError, RegionError,
                     SingularParameterError)
from .specfun import SQRT_PI, hermite_rows, log_gamma, parabolic_cylinder_d

ROOT_I = cmath.exp(1j * math.pi / 4.0)  # branch of sqrt(i), fixed globally
_NO_VALUES = "delta-derivative functionals have no pointwise values; use the pairing module"


# ---------------------------------------------------------------------------
# Generalized-function variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussPoly:
    """norm * exp(gauss x^2/(2 b0^2)) * sum_k coeffs[k] p_k(x).

    With scale None the basis is the monomials p_k = x^k (Boundary I-III
    states, exceptional-point pairs c0 + c1 x); with a number it is the
    normalized Hermite polynomials p_k = h_k(scale x / b0) = H_k / sqrt(2^k k!)
    (Region I-IV states and their superpositions).
    """

    gauss: complex
    coeffs: tuple
    norm: complex
    scale: complex | None = None


@dataclass(frozen=True)
class DeltaDeriv:
    """norm * exp(gauss x^2/(2 b0^2)) * delta^(n)(x); pairing-only functional."""

    gauss: complex
    n: int
    norm: complex


@dataclass(frozen=True)
class PlaneWaveGauss:
    """(amp_plus e^{i k x} + amp_minus e^{-i k x}) * exp(gauss x^2/(2 b0^2)).

    k_wave is real for propagating solutions; an imaginary value marks the
    evanescent case E (omega - alpha - beta) < 0.
    """

    gauss: complex
    k_wave: complex
    amp_plus: complex
    amp_minus: complex

    @property
    def evanescent(self) -> bool:
        return abs(complex(self.k_wave).imag) > 0.0


@dataclass(frozen=True)
class CylinderState:
    """norm * exp(gauss x^2/(2 b0^2)) * Gamma(nu+1) D_{-nu-1}(sign(side) arg_scale x).

    side '+' selects the argument -arg_scale*x, side '-' the argument
    +arg_scale*x.  conjugated=True evaluates the complex conjugate family
    (all parameters conjugated).
    """

    gauss: complex
    nu: complex
    arg_scale: complex
    side: str
    conjugated: bool
    norm: complex


GeneralizedFunction = GaussPoly | DeltaDeriv | PlaneWaveGauss | CylinderState


def conjugate_function(f: GeneralizedFunction) -> GeneralizedFunction:
    """The functional x -> conj(f(x)) as a closed form of the same family."""
    c = np.conjugate
    if isinstance(f, GaussPoly):
        # the basis polynomials have real coefficients: conj p_k(x) is p_k at conj(scale)
        return GaussPoly(c(f.gauss), tuple(c(np.asarray(f.coeffs, dtype=complex)).tolist()),
                         c(f.norm), None if f.scale is None else c(f.scale))
    if isinstance(f, DeltaDeriv):
        return DeltaDeriv(c(f.gauss), f.n, c(f.norm))
    if isinstance(f, PlaneWaveGauss):
        return PlaneWaveGauss(c(f.gauss), -c(f.k_wave), c(f.amp_plus), c(f.amp_minus))
    if isinstance(f, CylinderState):
        # fields stay as stored; _cyl_fields conjugates them when the flag is set
        return CylinderState(f.gauss, f.nu, f.arg_scale, f.side, not f.conjugated, f.norm)
    raise TypeError(f"unsupported function variant {type(f)!r}")


def _cyl_fields(f: CylinderState) -> tuple[complex, complex, complex, complex]:
    """Effective (gauss, order mu, argument slope, prefactor) after conjugation."""
    g, nu, a, norm = f.gauss, f.nu, f.arg_scale, f.norm
    if f.conjugated:
        g, nu, a, norm = np.conjugate(g), np.conjugate(nu), np.conjugate(a), np.conjugate(norm)
    slope = -a if f.side == "+" else a
    prefactor = norm * cmath.exp(log_gamma(nu + 1.0))
    return g, -nu - 1.0, slope, prefactor


def _terms(fs: list[GeneralizedFunction]) -> tuple[np.ndarray, complex | None, np.ndarray, list[int]]:
    """Each f in fs as terms exp(drift_r x) sum_k coeffs[r, k] p_k(x) times its Gaussian:
    (coeffs with the norm folded in, the basis scale as in GaussPoly, the drifts, the
    first row of each f).  A GaussPoly is one term with drift 0, a PlaneWaveGauss two
    constant monomial terms with drifts +-i k_wave; TypeError for other variants or bases.
    The coefficients of all terms are read as one array, each polynomial's times its norm."""
    rows, norms, drift, first, waves = [], [], [], [], []
    for f in fs:
        first.append(len(rows))
        if isinstance(f, GaussPoly):
            rows.append(f.coeffs)
            norms.append(f.norm)
            drift.append(0.0)
        elif isinstance(f, PlaneWaveGauss):
            waves += [len(rows), len(rows) + 1]
            rows += [(f.amp_plus,), (f.amp_minus,)]
            norms += [1.0, 1.0]
            drift += [1j * f.k_wave, -1j * f.k_wave]
        else:
            raise TypeError(f"{type(f).__name__} is not a Gaussian times a polynomial or plane wave")
    scales = {getattr(f, "scale", None) for f in fs}     # a plane wave's basis is the monomials
    if len(scales) > 1:
        raise TypeError("functions of one term matrix must share their polynomial basis")
    lengths, norms = [len(row) for row in rows], np.array(norms, dtype=complex)
    values = np.fromiter(itertools.chain.from_iterable(rows), dtype=complex, count=sum(lengths))
    width = max(lengths)
    if len(values) == len(rows) * width:    # rows of one length: the values are the matrix
        coeffs = values.reshape(len(rows), width) * norms[:, None]
    else:       # row r takes its lengths[r] values, each times its norm, zeros after them
        coeffs = np.zeros((len(rows), width), dtype=complex)
        coeffs[np.arange(width) < np.array(lengths)[:, None]] = values * np.repeat(norms, lengths)
    if waves:       # each amplitude as given: a product with 1 can flip a signed zero or make a NaN
        coeffs[waves, 0] = [rows[r][0] for r in waves]
    return coeffs, scales.pop(), np.array(drift, dtype=complex), first


def _basis_rows(scale, x: np.ndarray, params: ModelParams, degree: int) -> np.ndarray:
    """p_0(x) ... p_degree(x) of the GaussPoly basis with this scale, one row per degree."""
    if scale is None:
        return x ** np.arange(degree + 1).reshape((-1,) + (1,) * x.ndim)
    return hermite_rows(degree, scale * x / params.b0)


def _times_x(coeffs: np.ndarray, scale, params: ModelParams) -> np.ndarray:
    """Coefficients of x sum_k coeffs[..., k] p_k(x), one degree higher, in the same basis.

    x x^k = x^(k+1); x h_k(lam x) = (sqrt((k+1)/2) h_(k+1) + sqrt(k/2) h_(k-1)) / lam.
    """
    out = np.zeros(coeffs.shape[:-1] + (coeffs.shape[-1] + 1,), dtype=complex)
    if scale is None:
        out[..., 1:] = coeffs
        return out
    root_half_k = np.sqrt(np.arange(coeffs.shape[-1] + 1.0) / 2.0)
    out[..., 1:] = coeffs * root_half_k[1:]
    out[..., :-2] += coeffs[..., 1:] * root_half_k[1:-1]
    return out * (params.b0 / scale)


def _gauss_derivative(coeffs: np.ndarray, scale, gauss, drift, params: ModelParams) -> np.ndarray:
    """Coefficients of u' + (gauss x / b0^2 + drift) u, one degree higher, for
    u = sum_k coeffs[..., k] p_k(x): exp(gauss x^2/(2 b0^2) + drift x) u differentiated,
    that factor removed; drift is a number or one per row.  x^k' = k x^(k-1) and
    h_k(lam x)' = lam sqrt(2k) h_(k-1)(lam x), a row shift.
    """
    k = np.arange(1.0, coeffs.shape[-1])
    out = gauss / params.b0 ** 2 * _times_x(coeffs, scale, params)
    out[..., :-1] += np.asarray(drift)[..., None] * coeffs
    out[..., :-2] += coeffs[..., 1:] * (k if scale is None else np.sqrt(2.0 * k) * (scale / params.b0))
    return out


@dataclass(frozen=True)
class Rungs:
    """Rungs 0 ... top of one side of a Regions I-IV ladder, one record of their term data:
    rung n is norm exp(gauss x^2/(2 b0^2)) h_n(scale x/b0)."""

    gauss: complex
    norm: complex
    scale: complex
    top: int

    def rung(self, n: int) -> GaussPoly:
        return GaussPoly(self.gauss, _unit(n), self.norm, self.scale)

    def terms(self) -> tuple:
        """Term data as _terms gives it, the term matrix norm times the identity as its diagonal."""
        size = self.top + 1
        return np.full(size, self.norm, dtype=complex), self.scale, np.zeros(size), range(size)

    def superpose(self, weights) -> GaussPoly:
        """sum_n weights[n] times rung n as one GaussPoly: the weights times the norm."""
        return GaussPoly(self.gauss, tuple((np.asarray(weights) * self.norm).tolist()), 1.0, self.scale)


def _stripped(terms: tuple, x: np.ndarray, params: ModelParams,
              rows: np.ndarray | None = None) -> np.ndarray:
    """f(x) with its Gaussian factor exp(gauss x^2/(2 b0^2)) removed, one row per f of the
    term data terms (as _terms returns it): the term matrix times the basis rows at x,
    each term times exp(drift x), the terms of each f summed.  rows may hold the basis
    rows of the terms' scale at x to at least their degree; otherwise they are sampled
    here.  The pairing kernel samples a whole side this way."""
    coeffs, scale, drift, first = terms
    if rows is None:
        rows = _basis_rows(scale, x, params, coeffs.shape[-1] - 1)
    if coeffs.ndim == 1:    # a diagonal term matrix (Rungs.terms): each basis row times its entry
        return rows[: len(coeffs)] * coeffs[:, None]
    values = np.tensordot(coeffs, rows[: coeffs.shape[1]], axes=1)
    if len(coeffs) == len(first):   # one term each, all of drift 0: the rows are the values
        return values
    return np.add.reduceat(values * np.exp(np.multiply.outer(drift, x)), first)


_RESCALE = 2.0 ** 500                       # row size at which _log_stripped rescales
_LOG_TINY = math.log(sys.float_info.min)    # exponents below this underflow the Gaussian


def _log_stripped(coeffs: np.ndarray, scale, x: np.ndarray,
                  params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(log|s|, s/|s|) of s = sum_k coeffs[k] p_k(x) at points where s overflows: the
    basis recurrence is summed against the coefficients as it climbs, and the rows and
    the sum are divided by 2^500 wherever a row passes it, so s is never formed."""
    z = x if scale is None else scale * x / params.b0
    prev, cur = np.zeros_like(z), np.ones_like(z)
    total, rescales = coeffs[0] * cur, np.zeros(z.shape)
    for k in range(1, len(coeffs)):     # p_(k+1) = x p_k, or the normalized Hermite step
        a, b = (1.0, 0.0) if scale is None else (math.sqrt(2.0 / k), math.sqrt((k - 1) / k))
        prev, cur = cur, a * z * cur - b * prev
        total = total + coeffs[k] * cur
        big = np.abs(cur) > _RESCALE
        for arr in (prev, cur, total):
            arr[big] /= _RESCALE
        rescales[big] += 1.0
    mag = np.abs(total)
    return np.log(mag) + rescales * math.log(_RESCALE), total / mag


@np.errstate(all="ignore")
def _smooth_values(f: GeneralizedFunction, x: np.ndarray, params: ModelParams,
                   derivatives: int = 0) -> np.ndarray:
    """f, f', ... f^(derivatives) of a smooth form f (see _terms) at the points x, one row
    each, as evaluate documents; each term's drift joins its exponent
    q = gauss x^2/(2 b0^2) + drift x, and derivatives are _gauss_derivative with that q."""
    coeffs, scale, drift, _ = _terms([f])
    stack = np.zeros((derivatives + 1, len(coeffs), coeffs.shape[1] + derivatives), dtype=complex)
    stack[0, :, : coeffs.shape[1]] = coeffs
    for j in range(derivatives):        # each derivative raises the degree by one
        stack[j + 1] = _gauss_derivative(stack[j], scale, f.gauss, drift, params)[:, :-1]
    stack = stack.reshape(-1, stack.shape[-1])      # a row per term of f, f', ...
    shape, x = np.shape(x), np.ravel(x)
    expo = f.gauss * x[None] ** 2 / (2.0 * params.b0 * params.b0)
    if drift.any():     # exp(0 x) = 1: a Gauss x polynomial keeps one exponent row
        expo = expo + np.multiply.outer(np.tile(drift, derivatives + 1), x)
    stripped = np.dot(stack, _basis_rows(scale, x, params, stack.shape[-1] - 1))
    val = stripped * np.exp(expo)
    finite = np.isfinite(val).all()     # None once a redo or a sum changes val: tested again
    if not finite or expo.real.min(initial=0.0) < _LOG_TINY:
        expo = np.broadcast_to(expo, val.shape)
        redo = ~np.isfinite(val) | ((expo.real < _LOG_TINY) & (stripped != 0))
        val[redo] = np.exp(np.log(stripped[redo]) + expo[redo])
        huge = ~np.isfinite(stripped)   # the polynomial part itself overflowed
        for r in np.flatnonzero(huge.any(axis=1)):
            log_mag, phase = _log_stripped(stack[r], scale, x[huge[r]], params)
            val[r, huge[r]] = phase * np.exp(log_mag + expo[r, huge[r]])
        finite = None
    if len(coeffs) > 1:     # sum each function's terms; one term is its own sum
        val = val.reshape(derivatives + 1, len(coeffs), -1).sum(axis=1)
        finite = None
    if not (finite or np.isfinite(val).all()):
        where = np.broadcast_to(x, val.shape)[~np.isfinite(val)][0]
        raise NonConvergentError(f"{type(f).__name__} value outside the float range at x = {where}")
    return val.reshape((derivatives + 1,) + shape)


def _values(f: GeneralizedFunction, x: np.ndarray, params: ModelParams,
            derivatives: int = 0) -> np.ndarray:
    """f, f', ... f^(derivatives) at the complex points x, one row each: the one reader of a
    closed form's values, by exact differentiation (never the defining equation, so residual
    tests stay honest).  A delta has none and a NaN or infinite point raises ValueError, both
    before any arithmetic; a cylinder state exp(q(x)) u(x), q = g x^2/(2 b0^2), is read for
    derivatives 0 or 2 from one Weber ladder call, D_mu' = -(zeta/2) D_mu + mu D_(mu-1)."""
    if isinstance(f, DeltaDeriv):
        raise DeltaDerivNotEvaluableError(_NO_VALUES)
    _finite(x, "every point x")
    if not isinstance(f, CylinderState):
        return _smooth_values(f, x, params, derivatives)
    g, mu, slope, pref = _cyl_fields(f)
    zeta = slope * x
    d = parabolic_cylinder_d(mu - np.arange(derivatives + 1.0).reshape((-1,) + (1,) * x.ndim), zeta)
    e = np.exp(g * x ** 2 / (2.0 * params.b0 * params.b0))
    if derivatives == 0:
        return pref * e * d
    (d_mu, d_m1, d_m2), u = d, pref * d[0]
    u1 = pref * slope * (-(0.5 * zeta) * d_mu + mu * d_m1)
    u2 = pref * slope ** 2 * ((0.25 * zeta ** 2 - 0.5) * d_mu - zeta * mu * d_m1
                              + mu * (mu - 1.0) * d_m2)
    q1, q2 = g * x / (params.b0 * params.b0), g / (params.b0 * params.b0)     # q', q''
    return np.stack([e * u, e * (u1 + q1 * u), e * (u2 + 2.0 * q1 * u1 + (q2 + q1 ** 2) * u)])


def evaluate(f: GeneralizedFunction, x, params: ModelParams):
    """Pointwise value of a generalized function; x may be scalar or array, real or complex
    (closed forms are entire, so complex x means analytic continuation, which the
    contour-rotated pairings rely on).  A delta-derivative functional raises
    DeltaDerivNotEvaluableError and a NaN or infinite point ValueError.

    Each term of a Gaussian-polynomial or plane-wave form adds its drift to the Gaussian
    exponent; where a term under- or overflows (far out, or at high degree), its exponents
    are added before exponentiating, the polynomial part in log form if it overflowed by
    itself.  A value outside the float range even then raises NonConvergentError."""
    val = _values(f, np.atleast_1d(np.asarray(x, dtype=complex)), params)[0]
    return complex(val[0]) if np.ndim(x) == 0 else val


# ---------------------------------------------------------------------------
# Taylor data at x = 0, from the derivative algebra in each function's own basis
# ---------------------------------------------------------------------------

@np.errstate(all="ignore")
def _taylor_rows(terms: tuple, gauss, params: ModelParams, order: int) -> np.ndarray:
    """f^(m)(0)/sqrt(m!), m = 0 ... order, for each f of the term data terms (as _terms
    returns them) with its Gaussian replaced by exp(gauss x^2/(2 b0^2)).

    Each step differentiates every term and divides by sqrt(m), so no factorial
    is formed; values past the float range come out non-finite, silently.
    """
    coeffs, scale, drift, first = terms
    at_zero = _basis_rows(scale, np.zeros(1), params, coeffs.shape[1] + order)[:, 0]
    out = np.empty((len(coeffs), order + 1), dtype=complex)
    for m in range(order + 1):
        if m:
            coeffs = _gauss_derivative(coeffs, scale, gauss, drift, params) / math.sqrt(m)
        if scale is None:       # x^k with k > order - m cannot reach x = 0 in the steps left
            coeffs = coeffs[:, : order - m + 1]
        out[:, m] = coeffs @ at_zero[: coeffs.shape[1]]
    return np.add.reduceat(out, first)


def taylor_coefficients(f: GeneralizedFunction, params: ModelParams, order: int) -> np.ndarray:
    """Taylor coefficients of f about x = 0 up to the given order (inclusive); one
    reads 0 only where it is itself below the float range."""
    mantissas, exponents = zip(*(_inverse_sqrt_factorial_parts(m) for m in range(order + 1)))
    rows = _taylor_rows(_terms([f]), f.gauss, params, order)[0] * np.array(mantissas)   # 2^-e comes
    return np.ldexp(rows.view(float), np.repeat(exponents, 2)).view(complex)    # last, on (re, im) pairs


def polynomial_pieces(f: GeneralizedFunction, params: ModelParams):
    """Decompose f into exp(a x^2 + b x) * P(x) pieces: a list of (a, b, coeffs)
    with coeffs the ascending monomial coefficients (a Hermite series' Taylor
    data), one piece per term of _terms; delta and cylinder variants are not
    polynomial and raise TypeError."""
    coeffs, scale, drift, _ = _terms([f])
    return [(f.gauss / (2.0 * params.b0 ** 2), complex(b),
             taylor_coefficients(GaussPoly(0.0, tuple(row.tolist()), 1.0, scale), params, len(row) - 1))
            for b, row in zip(drift, coeffs)]


# ---------------------------------------------------------------------------
# Hamiltonian application (exact closed-form differentiation)
# ---------------------------------------------------------------------------

def apply_hamiltonian(params: ModelParams, f: GeneralizedFunction, grid) -> np.ndarray:
    """(H^x f)(x) = -c2 f'' + c0 x^2 f + c1 (2 x f' + f) on the grid, from the exact derivatives
    of _values (refusals as for evaluate).  The adjoint H_c^x is H(omega, beta, alpha): pass
    params.swapped()."""
    x = np.asarray(grid, dtype=complex)
    val, d1, d2 = _values(f, x, params, 2)
    w, a, b = params.omega, params.alpha, params.beta
    c2 = 0.5 * params.hbar * _gap(w, a, b) * params.b0 ** 2
    c0 = 0.5 * params.hbar * (w + (a + b)) / params.b0 ** 2
    c1 = 0.5 * params.hbar * (a - b)
    return -c2 * d2 + c0 * x ** 2 * val + c1 * (2.0 * x * d1 + val)


def apply_oscillator(params: ModelParams, f: GeneralizedFunction, grid) -> np.ndarray:
    """(h^x f)(x) = -hbar^2/(2m) f'' + (k/2) x^2 f on the grid (stripped form); refusals
    as for evaluate, then SingularParameterError at omega = alpha + beta."""
    x = np.asarray(grid, dtype=complex)
    val, _, d2 = _values(f, x, params, 2)
    d = derive(params)
    if d.m_eff is None:
        raise SingularParameterError("oscillator form undefined at omega = alpha + beta")
    return -params.hbar ** 2 / (2.0 * d.m_eff) * d2 + 0.5 * d.k_stiff * x ** 2 * val


# ---------------------------------------------------------------------------
# Discrete states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenstateSpec:
    """A right-eigenfunction of H^x with its bi-orthogonal left partner.

    energy is the H^x eigenvalue of right_fn; the H_c^x eigenvalue of left_fn
    is its complex conjugate.
    """

    region: RegionLabel
    n: int
    branch: str | None
    energy: complex
    right_fn: GeneralizedFunction
    left_fn: GeneralizedFunction

    @property
    def left_energy(self) -> complex:
        return complex(np.conjugate(self.energy))

    def to_dict(self) -> dict:
        # variant names the right state's family: its class, or a GaussPoly's basis
        f, variant = self.right_fn, type(self.right_fn).__name__
        if isinstance(f, GaussPoly) and f.scale is not None:
            variant = "GaussHermite"
        elif isinstance(f, GaussPoly) and self.region is RegionLabel.BOUNDARY_I_III:
            variant = "GaussMonomial"
        return {
            "region": self.region.value,
            "n": self.n,
            "branch": self.branch,
            "energy_re": complex(self.energy).real,
            "energy_im": complex(self.energy).imag,
            "variant": variant,
        }


@functools.lru_cache(maxsize=1024)
def _inverse_sqrt_factorial_parts(n: int) -> tuple[float, int]:
    """(r, -e) with 1/sqrt(n!) = r 2^-e: n! = m 4^e with m its top 64 bits rounded to a
    float, so the value keeps its digits past n = 170, where n! leaves the float range."""
    big = math.factorial(n)
    e = max(big.bit_length() - 64, 0) // 2
    return 1.0 / math.sqrt(float(big >> 2 * e)), -e


def _inverse_sqrt_factorial(n: int) -> float:
    """1/sqrt(n!), the Boundary I-III norm and the scale of delta pairings (the float
    formula below n = 171); NonConvergentError if subnormal."""
    norm = math.ldexp(*_inverse_sqrt_factorial_parts(n))
    if norm < sys.float_info.min:
        raise NonConvergentError(
            f"1/sqrt(n!) at n = {n}, the Boundary I-III norm, is outside the float range")
    return norm


_LADDER_MAX = 300   # the last n whose 1/sqrt(n!) is a normal float: every ladder's reach


def _unit(n: int) -> tuple:
    """Coefficients of the single basis polynomial p_n."""
    return (0.0,) * n + (1.0,)


def _level_spacing(label: RegionLabel, d, hbar: float):
    """E_(n+1) - E_n of Regions I-IV ('+' branch in II/IV), so E_n = spacing (n + 1/2)."""
    sign = 1.0 if label in (RegionLabel.REGION_I, RegionLabel.REGION_II) else -1.0
    if label in REAL_SPECTRUM:
        return sign * hbar * d.omega_cap.real
    return sign * 1j * hbar * abs(d.omega_cap)


def _ladder_stratum(params: ModelParams, n_max: int) -> tuple:
    """(label, derive, indices 0 ... n_max, branches) at a point with a ladder; the caller guards n_max."""
    label, d = classify(params), derive(params)
    if label in OMEGA_ZERO:
        raise RegionError(
            f"{label.pretty()} carries only the E = 0 coalescent pair and the free-particle "
            "continuum; use ep_states or free_particle_states")
    if label is RegionLabel.CORNER_DEGENERATE:
        raise RegionError("corner-degenerate point (Omega = 0 and omega = alpha + beta) is unsupported")
    return label, d, range(n_max + 1), (None,) if label in REAL_SPECTRUM else ("+", "-")


def _rungs(label: RegionLabel, d, params: ModelParams, branch, top: int) -> tuple[Rungs, Rungs]:
    """(right, left) Rungs of one Regions I-IV branch at label from the caller's derive d, the
    left the conjugate family (in II/IV): the data _ladder builds its states from."""
    sigma, cu = d.sigma, d.upsilon_coeff    # stripped states, similarity-dressed
    g, norm, scale = -sigma ** 2, math.sqrt(sigma / (params.b0 * SQRT_PI)), sigma
    if label not in REAL_SPECTRUM:  # '+': exp(-i sigma^2 x^2/(2 b0^2)) h_n(e^{i pi/4} sigma x/b0)
        g, norm, scale = -1j * sigma ** 2, cmath.sqrt(ROOT_I) * norm, ROOT_I * sigma
        if branch == "-":   # its conjugate
            g, norm, scale = g.conjugate(), norm.conjugate(), scale.conjugate()
    return (Rungs(cu + g, norm, scale, top),
            Rungs(-cu + g.conjugate(), norm.conjugate(), scale.conjugate(), top))


def _ladder(label: RegionLabel, d, params: ModelParams, branch: str | None,
            ns) -> list[EigenstateSpec]:
    """States n in ns of one branch (None in Regions I/III, '+' or '-' in II/IV and on
    Boundary I-III) at label, from the caller's derive d: the one place they are built,
    in Regions I-IV from the sides of _rungs.  With d.upsilon_coeff = 0 the '+' ladder
    is the similarity-stripped resonant family: phi_n^+ as each right_fn, phi_n^- as
    each left_fn."""
    states = []
    if label is RegionLabel.BOUNDARY_I_III:     # the monomial carries g, the delta -g
        g = d.tau_coeff if branch == "-" else -d.tau_coeff
        spacing = params.hbar * (params.alpha - params.beta)
        for n in ns:
            rt_fact, energy = _inverse_sqrt_factorial(n), spacing * (n + 0.5)
            mono, delta = GaussPoly(g, _unit(n), rt_fact), DeltaDeriv(-g, n, (-1.0) ** n * rt_fact)
            states.append(EigenstateSpec(label, n, branch, energy, mono, delta) if branch == "+"
                          else EigenstateSpec(label, n, branch, -energy, delta, mono))
        return states
    right, left = _rungs(label, d, params, branch, max(ns))
    spacing = _level_spacing(label, d, params.hbar)
    for n in ns:
        e_n = spacing * (n + 0.5)
        states.append(EigenstateSpec(label, n, branch, -e_n if branch == "-" else e_n,
                                     right.rung(n), left.rung(n)))
    return states


def discrete_states(params: ModelParams, n_max: int) -> list[EigenstateSpec]:
    """All discrete generalized eigenstates with index n <= n_max.

    Regions I and III return one state per n; Regions II/IV and boundary
    I-III return the two branches per n (2 (n_max+1) states).  The free-
    particle boundaries I-II / III-IV have no discrete family beyond the
    E = 0 pair; use ep_states / free_particle_states there.  n_max is at most 300.
    """
    label, d, ns, branches = _ladder_stratum(params, _require_index(n_max, "n_max", _LADDER_MAX))
    ladders = [_ladder(label, d, params, branch, ns) for branch in branches]
    return [s for rung in zip(*ladders) for s in rung]


def _ep_exponent(params: ModelParams) -> float:
    w, b = params.omega, params.beta
    scale = max(abs(w), abs(params.alpha), abs(b))
    if abs(w - 2.0 * b) <= DEFAULT_TOL * scale:
        raise SingularParameterError("exceptional-point closed form is singular at omega = 2 beta")
    return -(w + 2.0 * b) / (w - 2.0 * b)


def ep_states(params: ModelParams, c0: complex, c1: complex,
              d0: complex, d1: complex) -> EigenstateSpec:
    """The E = 0 coalescent state pair on the Omega = 0 boundary.

    right_fn = (c1 x + c0) exp(-(omega+2 beta)/(omega-2 beta) x^2/(2 b0^2)),
    left_fn the same polynomial in (d0, d1) with the opposite exponent sign.
    """
    for name, value in (("c0", c0), ("c1", c1), ("d0", d0), ("d1", d1)):
        _finite(value, name)
    label = _require_stratum(params, OMEGA_ZERO, "ep_states")
    g = _ep_exponent(params)
    right = GaussPoly(gauss=g, coeffs=(complex(c0), complex(c1)), norm=1.0)
    left = GaussPoly(gauss=-g, coeffs=(complex(d0), complex(d1)), norm=1.0)
    return EigenstateSpec(label, 0, None, 0.0 + 0.0j, right, left)


def free_particle_states(params: ModelParams, energy: float, amp_plus: complex,
                         amp_minus: complex) -> EigenstateSpec:
    """Free-particle generalized eigenfunctions on the Omega = 0 boundary.

    The wavenumber is k = sqrt(2 E / (hbar (omega-alpha-beta) b0^2)); when
    E (omega-alpha-beta) < 0 the state is evanescent and k comes out
    imaginary (flagged on the returned PlaneWaveGauss).
    """
    for name, value in (("energy", energy), ("amp_plus", amp_plus), ("amp_minus", amp_minus)):
        _finite(value, name)
    label = _require_stratum(params, OMEGA_ZERO, "free_particle_states")
    g = _ep_exponent(params)
    gap = _gap(params.omega, params.alpha, params.beta)
    k = cmath.sqrt(complex(2.0 * energy / (params.hbar * gap * params.b0 ** 2)))
    right = PlaneWaveGauss(gauss=g, k_wave=k, amp_plus=complex(amp_plus), amp_minus=complex(amp_minus))
    left = PlaneWaveGauss(gauss=-g, k_wave=k, amp_plus=complex(amp_plus), amp_minus=complex(amp_minus))
    return EigenstateSpec(label, 0, None, complex(energy), right, left)
