"""Generalized eigenfunctions and spectra of the oscillator pair (H, H_c).

Every discrete state is a closed form of Gaussian x (Hermite / monomial /
polynomial / plane-wave / delta-derivative) type.  Right-states diagonalize
H^x and carry the inverse similarity weight exp(+c x^2/(2 b0^2)); their left
partners diagonalize the adjoint H_c^x = H(omega, beta, alpha) and carry the
direct weight.  Conventions:

* Regions I/III use the real Gaussian width sigma with normalization
  sqrt(sigma/(b0 sqrt(pi) 2^n n!)), which makes the bilinear pairing of left
  and right states exactly delta_mn (quadrature-checked in the test suite).
* Regions II/IV rotate the Hermite argument by exp(i pi/4) (branch of sqrt(i)
  fixed globally); the '+' branch is the family whose stripped part carries
  the Gaussian exp(-i sigma^2 x^2/(2 b0^2)) and it has eigenvalue
  +i hbar |Omega| (n + 1/2) in Region II, the sign-swapped value in Region IV.
* The boundary I-III states are monomial ('+' branch) and delta-derivative
  ('-' branch) functionals dressed by the tau similarity weight.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, ModelParams, RegionLabel, classify, derive
from .errors import (DeltaDerivNotEvaluableError, NonConvergentError, RegionError,
                     SingularParameterError)
from .specfun import SQRT_PI, hermite, hermite_coefficients, log_gamma, parabolic_cylinder_d

ROOT_I = cmath.exp(1j * math.pi / 4.0)  # branch of sqrt(i), fixed globally
_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max


# ---------------------------------------------------------------------------
# Generalized-function variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussHermite:
    """norm * exp(gauss x^2/(2 b0^2)) * H_n(scale x / b0)."""

    gauss: complex
    scale: complex
    n: int
    norm: complex


@dataclass(frozen=True)
class GaussMonomial:
    """norm * exp(gauss x^2/(2 b0^2)) * x^n."""

    gauss: complex
    n: int
    norm: complex


@dataclass(frozen=True)
class GaussPoly:
    """norm * exp(gauss x^2/(2 b0^2)) * sum_k coeffs[k] x^k.

    Covers the two-term exceptional-point eigenfunctions (c0 + c1 x) that the
    single-monomial variant cannot represent.
    """

    gauss: complex
    coeffs: tuple
    norm: complex


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


GeneralizedFunction = (
    GaussHermite | GaussMonomial | GaussPoly | DeltaDeriv | PlaneWaveGauss | CylinderState
)


def conjugate_function(f: GeneralizedFunction) -> GeneralizedFunction:
    """The functional x -> conj(f(x)) as a closed form of the same family."""
    c = np.conjugate
    if isinstance(f, GaussHermite):
        return GaussHermite(c(f.gauss), c(f.scale), f.n, c(f.norm))
    if isinstance(f, GaussMonomial):
        return GaussMonomial(c(f.gauss), f.n, c(f.norm))
    if isinstance(f, GaussPoly):
        return GaussPoly(c(f.gauss), tuple(complex(c(v)) for v in f.coeffs), c(f.norm))
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


def _stripped(f: GeneralizedFunction, x: np.ndarray, params: ModelParams) -> np.ndarray:
    """f(x) with its Gaussian factor exp(gauss x^2/(2 b0^2)) removed.

    Defined for the polynomial and plane-wave variants; the pairing kernel
    samples it at shared nodes and evaluate multiplies it by the Gaussian.
    """
    if isinstance(f, GaussHermite):
        return f.norm * hermite(f.n, f.scale * x / params.b0)
    if isinstance(f, GaussMonomial):
        return f.norm * x ** f.n
    if isinstance(f, GaussPoly):
        out = np.zeros_like(x)
        for k in range(len(f.coeffs) - 1, -1, -1):
            out = out * x + f.coeffs[k]
        return f.norm * out
    if isinstance(f, PlaneWaveGauss):
        return f.amp_plus * np.exp(1j * f.k_wave * x) + f.amp_minus * np.exp(-1j * f.k_wave * x)
    raise TypeError(f"{type(f).__name__} has no stripped closed form")


def evaluate(f: GeneralizedFunction, x, params: ModelParams):
    """Pointwise value of a generalized function; x may be scalar or array,
    real or complex (closed forms are entire, so complex x means analytic
    continuation, which the contour-rotated pairings rely on)."""
    if isinstance(f, DeltaDeriv):
        raise DeltaDerivNotEvaluableError(
            "delta-derivative functionals have no pointwise values; use the pairing module")
    x_arr = np.asarray(x, dtype=complex)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    b0 = params.b0
    if isinstance(f, CylinderState):
        g, mu, slope, pref = _cyl_fields(f)
        val = pref * np.exp(g * x_arr ** 2 / (2.0 * b0 * b0)) \
            * parabolic_cylinder_d(mu, slope * x_arr)
    else:
        val = _stripped(f, x_arr, params) * np.exp(f.gauss * x_arr ** 2 / (2.0 * b0 * b0))
    return complex(val[0]) if scalar else val


# ---------------------------------------------------------------------------
# Polynomial piece representation (exact differentiation / Taylor data)
# ---------------------------------------------------------------------------

def polynomial_pieces(f: GeneralizedFunction, params: ModelParams):
    """Decompose f into exp(a x^2 + b x) * P(x) pieces.

    Returns a list of (a, b, coeffs) with coeffs ascending; delta and
    cylinder variants are not polynomial and raise TypeError.
    """
    b0sq2 = 2.0 * params.b0 ** 2
    if isinstance(f, GaussHermite):
        h = hermite_coefficients(f.n).astype(complex)
        coeffs = f.norm * h * (f.scale / params.b0) ** np.arange(f.n + 1)
        return [(f.gauss / b0sq2, 0.0 + 0.0j, coeffs)]
    if isinstance(f, GaussMonomial):
        coeffs = np.zeros(f.n + 1, dtype=complex)
        coeffs[f.n] = f.norm
        return [(f.gauss / b0sq2, 0.0 + 0.0j, coeffs)]
    if isinstance(f, GaussPoly):
        return [(f.gauss / b0sq2, 0.0 + 0.0j, f.norm * np.asarray(f.coeffs, dtype=complex))]
    if isinstance(f, PlaneWaveGauss):
        a = f.gauss / b0sq2
        return [
            (a, 1j * f.k_wave, np.array([f.amp_plus], dtype=complex)),
            (a, -1j * f.k_wave, np.array([f.amp_minus], dtype=complex)),
        ]
    raise TypeError(f"{type(f).__name__} has no polynomial representation")


def _poly_diff(c: np.ndarray) -> np.ndarray:
    if len(c) <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, len(c))


def taylor_coefficients(f: GeneralizedFunction, params: ModelParams, order: int) -> np.ndarray:
    """Taylor coefficients of f about x = 0 up to the given order (inclusive)."""
    out = np.zeros(order + 1, dtype=complex)
    for a, b, coeffs in polynomial_pieces(f, params):
        expo = np.zeros(order + 1, dtype=complex)
        for j in range(order // 2 + 1):
            for k in range(order - 2 * j + 1):
                expo[2 * j + k] += a ** j * b ** k / (math.factorial(j) * math.factorial(k))
        piece = np.convolve(expo, coeffs)[: order + 1]
        out[: len(piece)] += piece
    return out


# ---------------------------------------------------------------------------
# Hamiltonian application (exact closed-form differentiation)
# ---------------------------------------------------------------------------

def _h_coefficients(params: ModelParams) -> tuple[float, float, float]:
    """H^x f = -c2 f'' + c0 x^2 f + c1 (2 x f' + f)."""
    w, a, b = params.omega, params.alpha, params.beta
    c2 = 0.5 * params.hbar * (w - a - b) * params.b0 ** 2
    c0 = 0.5 * params.hbar * (w + a + b) / params.b0 ** 2
    c1 = 0.5 * params.hbar * (a - b)
    return c2, c0, c1


def _derivatives_on_grid(f: GeneralizedFunction, x: np.ndarray, params: ModelParams):
    """(f, f', f'') on the grid, by exact differentiation of the closed form."""
    b0 = params.b0
    if isinstance(f, GaussHermite):
        lam = f.scale / b0
        q1 = f.gauss * x / (b0 * b0)          # q'(x) for q = gauss x^2/(2 b0^2)
        q2 = f.gauss / (b0 * b0)
        e = f.norm * np.exp(f.gauss * x ** 2 / (2.0 * b0 * b0))
        h0 = hermite(f.n, lam * x)
        h1 = 2.0 * f.n * lam * (hermite(f.n - 1, lam * x) if f.n >= 1 else 0.0)
        h2 = 4.0 * f.n * (f.n - 1) * lam ** 2 * (hermite(f.n - 2, lam * x) if f.n >= 2 else 0.0)
        val = e * h0
        d1 = e * (h1 + q1 * h0)
        d2 = e * (h2 + 2.0 * q1 * h1 + (q2 + q1 ** 2) * h0)
        return val, d1, d2
    if isinstance(f, CylinderState):
        g, mu, slope, pref = _cyl_fields(f)
        q1 = g * x / (b0 * b0)
        q2 = g / (b0 * b0)
        e = pref * np.exp(g * x ** 2 / (2.0 * b0 * b0))
        zeta = slope * x
        ladder = mu - np.arange(3.0).reshape((3,) + (1,) * zeta.ndim)
        d_mu, d_m1, d_m2 = parabolic_cylinder_d(ladder, zeta)
        # D_mu' = -(zeta/2) D_mu + mu D_{mu-1}; second derivative via the same
        # ladder (never the defining equation, so residual tests stay honest)
        dp = -(0.5 * zeta) * d_mu + mu * d_m1
        dpp = (0.25 * zeta ** 2 - 0.5) * d_mu - zeta * mu * d_m1 + mu * (mu - 1.0) * d_m2
        val = e * d_mu
        d1 = e * (q1 * d_mu + slope * dp)
        d2 = e * ((q2 + q1 ** 2) * d_mu + 2.0 * q1 * slope * dp + slope ** 2 * dpp)
        return val, d1, d2
    # polynomial-representable variants
    pieces = polynomial_pieces(f, params)
    val = np.zeros_like(x, dtype=complex)
    d1 = np.zeros_like(x, dtype=complex)
    d2 = np.zeros_like(x, dtype=complex)
    for a, b, coeffs in pieces:
        e = np.exp(a * x ** 2 + b * x)
        q1 = 2.0 * a * x + b
        p0 = np.polyval(coeffs[::-1], x)
        pc1 = _poly_diff(coeffs)
        pc2 = _poly_diff(pc1)
        p1 = np.polyval(pc1[::-1], x)
        p2 = np.polyval(pc2[::-1], x)
        val += e * p0
        d1 += e * (p1 + q1 * p0)
        d2 += e * (p2 + 2.0 * q1 * p1 + (2.0 * a + q1 ** 2) * p0)
    return val, d1, d2


def apply_hamiltonian(params: ModelParams, f: GeneralizedFunction, grid) -> np.ndarray:
    """(H^x f)(x) on the grid, via exact differentiation of the closed form.

    The adjoint H_c^x is H(omega, beta, alpha); apply it by passing
    params.swapped().
    """
    if isinstance(f, DeltaDeriv):
        raise DeltaDerivNotEvaluableError(
            "apply H to delta-derivative functionals weakly, through pairings")
    x = np.asarray(grid, dtype=complex)
    c2, c0, c1 = _h_coefficients(params)
    val, d1, d2 = _derivatives_on_grid(f, x, params)
    return -c2 * d2 + c0 * x ** 2 * val + c1 * (2.0 * x * d1 + val)


def apply_oscillator(params: ModelParams, f: GeneralizedFunction, grid) -> np.ndarray:
    """(h^x f)(x) = -hbar^2/(2m) f'' + (k/2) x^2 f on the grid (stripped form)."""
    d = derive(params)
    if d.m_eff is None:
        raise SingularParameterError("oscillator form undefined at omega = alpha + beta")
    x = np.asarray(grid, dtype=complex)
    val, _, d2 = _derivatives_on_grid(f, x, params)
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
        return {
            "region": self.region.value,
            "n": self.n,
            "branch": self.branch,
            "energy_re": complex(self.energy).real,
            "energy_im": complex(self.energy).imag,
            "variant": type(self.right_fn).__name__,
        }


@functools.lru_cache(maxsize=1024)
def _factorial_split(n: int, shift: int) -> tuple[float, int]:
    """2^shift n! as (m, e) with 2^shift n! = m 4^e, m its top 64 bits rounded to a float.

    2^n n! leaves the float range at n = 151 and n! at n = 171.  Below that,
    m 4^e equals the float of 2^shift n! (checked to n = 600 for both shifts),
    so the norms keep the digits of their float formulas.
    """
    big = math.factorial(n) << shift
    e = max(big.bit_length() - 64, 0) // 2
    return float(big >> 2 * e), e


def _oscillator_norm(sigma: float, b0: float, n: int) -> float:
    """sqrt(sigma / (b0 sqrt(pi) 2^n n!)); NonConvergentError outside the
    normal float range."""
    m, e = _factorial_split(n, n)
    norm = math.ldexp(math.sqrt(sigma / (b0 * SQRT_PI * m)), -e)
    if not _FLOAT_MIN <= norm <= _FLOAT_MAX:
        raise NonConvergentError(
            f"normalization of the n = {n} oscillator state is outside the float range")
    return norm


def _inverse_sqrt_factorial(n: int) -> float:
    """1/sqrt(n!), the Boundary I-III norm; NonConvergentError if subnormal."""
    m, e = _factorial_split(n, 0)
    norm = math.ldexp(1.0 / math.sqrt(m), -e)
    if norm < _FLOAT_MIN:
        raise NonConvergentError(
            f"normalization of the n = {n} Boundary I-III state is outside the float range")
    return norm


def _stripped_barrier_pair(sigma: float, b0: float, n: int) -> tuple[GaussHermite, GaussHermite]:
    """The similarity-stripped Region II/IV states (phi_n^+, phi_n^-).

    The '+' state carries exp(-i sigma^2 x^2/(2 b0^2)) and the norm
    sqrt(e^{i pi/4} sigma / (b0 sqrt(pi) 2^n n!)); the '-' state is its
    complex conjugate.
    """
    norm_plus = cmath.sqrt(ROOT_I) * _oscillator_norm(sigma, b0, n)
    plus = GaussHermite(gauss=-1j * sigma ** 2, scale=ROOT_I * sigma, n=n, norm=norm_plus)
    minus = GaussHermite(gauss=1j * sigma ** 2, scale=ROOT_I.conjugate() * sigma, n=n,
                         norm=norm_plus.conjugate())
    return plus, minus


def discrete_states(params: ModelParams, n_max: int,
                    tol: float = DEFAULT_TOL) -> list[EigenstateSpec]:
    """All discrete generalized eigenstates with index n <= n_max.

    Regions I and III return one state per n; Regions II/IV and boundary
    I-III return the two branches per n (2 (n_max+1) states).  The free-
    particle boundaries I-II / III-IV have no discrete family beyond the
    E = 0 pair; use ep_states / free_particle_states there.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    label = classify(params, tol)
    d = derive(params, tol)
    hbar, b0 = params.hbar, params.b0

    if label in (RegionLabel.BOUNDARY_I_II, RegionLabel.BOUNDARY_III_IV):
        raise RegionError(
            f"{label.pretty()} carries only the E = 0 coalescent pair and the free-particle "
            "continuum; use ep_states or free_particle_states")
    if label is RegionLabel.CORNER_DEGENERATE:
        raise RegionError("corner-degenerate point (Omega = 0 and omega = alpha + beta) is unsupported")

    states: list[EigenstateSpec] = []

    if label in (RegionLabel.REGION_I, RegionLabel.REGION_III):
        sigma, cu = d.sigma, d.upsilon_coeff
        omega_cap = d.omega_cap.real
        sign = 1.0 if label is RegionLabel.REGION_I else -1.0
        for n in range(n_max + 1):
            norm = _oscillator_norm(sigma, b0, n)
            right = GaussHermite(gauss=cu - sigma ** 2, scale=sigma, n=n, norm=norm)
            left = GaussHermite(gauss=-cu - sigma ** 2, scale=sigma, n=n, norm=norm)
            energy = sign * hbar * omega_cap * (n + 0.5)
            states.append(EigenstateSpec(label, n, None, energy, right, left))
        return states

    if label in (RegionLabel.REGION_II, RegionLabel.REGION_IV):
        sigma, cu = d.sigma, d.upsilon_coeff
        abs_omega = abs(d.omega_cap)
        sign = 1.0 if label is RegionLabel.REGION_II else -1.0
        for n in range(n_max + 1):
            plus_strip, minus_strip = _stripped_barrier_pair(sigma, b0, n)
            e_plus = sign * 1j * hbar * abs_omega * (n + 0.5)
            states.append(EigenstateSpec(
                label, n, "+", e_plus,
                right_fn=GaussHermite(cu + plus_strip.gauss, plus_strip.scale, n, plus_strip.norm),
                left_fn=GaussHermite(-cu + minus_strip.gauss, minus_strip.scale, n, minus_strip.norm)))
            states.append(EigenstateSpec(
                label, n, "-", -e_plus,
                right_fn=GaussHermite(cu + minus_strip.gauss, minus_strip.scale, n, minus_strip.norm),
                left_fn=GaussHermite(-cu + plus_strip.gauss, plus_strip.scale, n, plus_strip.norm)))
        return states

    # boundary I-III: monomial / delta-derivative pair under the tau weight
    ct = d.tau_coeff
    for n in range(n_max + 1):
        rt_fact = _inverse_sqrt_factorial(n)
        energy = hbar * (params.alpha - params.beta) * (n + 0.5)
        mono_minus = GaussMonomial(gauss=-ct, n=n, norm=rt_fact)
        mono_plus = GaussMonomial(gauss=ct, n=n, norm=rt_fact)
        delta_minus = DeltaDeriv(gauss=-ct, n=n, norm=(-1.0) ** n * rt_fact)
        delta_plus = DeltaDeriv(gauss=ct, n=n, norm=(-1.0) ** n * rt_fact)
        states.append(EigenstateSpec(label, n, "+", energy,
                                     right_fn=mono_minus, left_fn=delta_plus))
        states.append(EigenstateSpec(label, n, "-", -energy,
                                     right_fn=delta_minus, left_fn=mono_plus))
    return states


def _ep_exponent(params: ModelParams, tol: float) -> float:
    w, b = params.omega, params.beta
    scale = max(abs(w), abs(params.alpha), abs(b))
    if abs(w - 2.0 * b) <= tol * scale:
        raise SingularParameterError("exceptional-point closed form is singular at omega = 2 beta")
    return -(w + 2.0 * b) / (w - 2.0 * b)


def ep_states(params: ModelParams, c0: complex, c1: complex,
              d0: complex, d1: complex, tol: float = DEFAULT_TOL) -> EigenstateSpec:
    """The E = 0 coalescent state pair on the Omega = 0 boundary.

    right_fn = (c1 x + c0) exp(-(omega+2 beta)/(omega-2 beta) x^2/(2 b0^2)),
    left_fn the same polynomial in (d0, d1) with the opposite exponent sign.
    """
    label = classify(params, tol)
    if label not in (RegionLabel.BOUNDARY_I_II, RegionLabel.BOUNDARY_III_IV):
        raise RegionError(f"ep_states requires the Omega = 0 boundary, got {label.pretty()}")
    g = _ep_exponent(params, tol)
    right = GaussPoly(gauss=g, coeffs=(complex(c0), complex(c1)), norm=1.0)
    left = GaussPoly(gauss=-g, coeffs=(complex(d0), complex(d1)), norm=1.0)
    return EigenstateSpec(label, 0, None, 0.0 + 0.0j, right, left)


def free_particle_states(params: ModelParams, energy: float, amp_plus: complex,
                         amp_minus: complex, tol: float = DEFAULT_TOL) -> EigenstateSpec:
    """Free-particle generalized eigenfunctions on the Omega = 0 boundary.

    The wavenumber is k = sqrt(2 E / (hbar (omega-alpha-beta) b0^2)); when
    E (omega-alpha-beta) < 0 the state is evanescent and k comes out
    imaginary (flagged on the returned PlaneWaveGauss).
    """
    label = classify(params, tol)
    if label not in (RegionLabel.BOUNDARY_I_II, RegionLabel.BOUNDARY_III_IV):
        raise RegionError(f"free_particle_states requires the Omega = 0 boundary, got {label.pretty()}")
    g = _ep_exponent(params, tol)
    gap = params.omega - params.alpha - params.beta
    k = cmath.sqrt(complex(2.0 * energy / (params.hbar * gap * params.b0 ** 2)))
    right = PlaneWaveGauss(gauss=g, k_wave=k, amp_plus=complex(amp_plus), amp_minus=complex(amp_minus))
    left = PlaneWaveGauss(gauss=-g, k_wave=k, amp_plus=complex(amp_plus), amp_minus=complex(amp_minus))
    return EigenstateSpec(label, 0, None, complex(energy), right, left)
