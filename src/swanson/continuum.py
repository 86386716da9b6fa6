"""Continuous spectrum of the parabolic-barrier regions (II and IV).

The scattering-type states are Weber-function closed forms

    phi_(+-)^E(x) = C Gamma(nu+1) D_{-nu-1}(-+ sqrt(2) e^{-i pi/4} sigma x / b0),

with nu = -i E/(hbar |Omega|) - 1/2 in Region II (E -> -E in Region IV, which
mirrors the whole construction).  The rotation branch is fixed so that the
stripped states satisfy the oscillator equation h^x phi = E phi with the
printed order/prefactor pair Gamma(nu+1) D_{-nu-1}; the gamma prefactor then
has its poles at the resonant (decaying) discrete energies, where the Weber
function collapses onto the matching discrete family.

The continuum is delta-normalized, never pointwise-normalized: the
calibration constant is frozen from the tail asymptotics of the pairing
density at E = 0 and verified numerically by the windowed probe below.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import BARRIER, ModelParams, RegionLabel, _require_index, _require_stratum, derive
from .errors import NonConvergentError
from .eigensystems import (_LADDER_MAX, CylinderState, GaussPoly,
                           GeneralizedFunction, _finite, _ladder, _rungs)
from .pairing import _PAIRED_DEGREE_MAX, _default_strategy, _expand
from .specfun import _gauss_legendre, _log_gamma_lanczos, log_gamma, parabolic_cylinder_d

__all__ = [
    "PoleScanReport",
    "continuum_state",
    "continuum_norm_constant",
    "pole_scan",
    "resonant_expansion",
    "delta_normalization_probe",
    "stripped_discrete_function",
]

ROT = cmath.exp(-1j * math.pi / 4.0)          # argument rotation of the Weber states
DELTA_DENSITY_AT_ZERO = 2.0 * math.sqrt(2.0) * math.pi ** 2
# reduced delta-normalization density n(eps) = pi |Gamma(1/2 - i eps)|^2 *
# [e^{pi eps/2} + e^{-3 pi eps/2}] / sqrt(2) + sqrt(2) pi^2 e^{-pi eps/2};
# at eps = 0 it equals 2 sqrt(2) pi^2, the frozen calibration value.


def _reduced_energy(energy: float, scale: float, label: RegionLabel) -> float:
    """E/(hbar |Omega|), scale = hbar |Omega|, mirrored in Region IV."""
    eps = energy / scale
    return eps if label is RegionLabel.REGION_II else -eps


def _norm_constant(params: ModelParams, d) -> float:
    """continuum_norm_constant from the caller's derive(params)."""
    return math.sqrt(d.sigma / (params.b0 * params.hbar * abs(d.omega_cap) * DELTA_DENSITY_AT_ZERO))


def continuum_norm_constant(params: ModelParams) -> float:
    """Calibration constant C making <psi_bar^E | phi_tilde^E'> = delta(E - E')."""
    _require_stratum(params, BARRIER, "continuum_norm_constant")
    return _norm_constant(params, derive(params))


_KINDS = ("phi", "eta", "phi_tilde", "psi_bar")


def continuum_state(params: ModelParams, energy: float, side: str = "+",
                    kind: str = "phi") -> CylinderState:
    """Generalized continuum eigenfunction at real energy E.

    kind selects the family: 'phi' (stripped), 'eta' (its complex conjugate,
    the anti-resonant family), 'phi_tilde' (Upsilon^-1-dressed right state of
    H^x), or 'psi_bar' (Upsilon-dressed dual whose pairing against phi_tilde
    is delta-normalized).
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    _finite(energy, "energy")
    label = _require_stratum(params, BARRIER, "continuum_state")
    d = derive(params)
    if kind not in _KINDS:
        raise ValueError("kind must be one of 'phi', 'eta', 'phi_tilde', 'psi_bar'")
    eps = _reduced_energy(energy, params.hbar * abs(d.omega_cap), label)
    # one family, told apart by its Gaussian; eta is phi conjugated
    gauss = (0.0, 0.0, d.upsilon_coeff, -d.upsilon_coeff)[_KINDS.index(kind)]
    return CylinderState(gauss=complex(gauss), nu=-1j * eps - 0.5,
                         arg_scale=math.sqrt(2.0) * ROT * d.sigma / params.b0, side=side,
                         conjugated=kind == "eta", norm=_norm_constant(params, d))


# ---------------------------------------------------------------------------
# Gamma-pole (resonance) scan
# ---------------------------------------------------------------------------

# the most samples pole_scan takes in all: each costs about 264 bytes at peak (tracemalloc)
_POLE_SCAN_SAMPLES_MAX = 1_000_000


@dataclass(frozen=True)
class PoleScanReport:
    """|Gamma(nu+1)| magnitude along the resonant half-line.

    energies_imag holds |Im E|/(hbar |Omega|) samples (the scan runs along
    E = -i y hbar |Omega| in Region II and its mirror +i y in Region IV);
    log_gamma_magnitude is log10 |Gamma(nu+1)| there; detected_poles are the
    local-maximum positions, which sit at y = n + 1/2.
    """

    energies_imag: np.ndarray
    log_gamma_magnitude: np.ndarray
    detected_poles: np.ndarray


def pole_scan(params: ModelParams, n_scan: int, samples_per_unit: int = 200) -> PoleScanReport:
    """Scan the gamma-prefactor magnitude over |Im E|/(hbar |Omega|) in (0, n_scan+1],
    on at most 10^6 samples in all.

    The samples are y = (k + 1/2)/s for an even count s per unit, and
    y = (k + 3/4)/s for an odd one: 4k + 3 = 2s(2n + 1) has no solution, so no
    sample lands on a pole y = n + 1/2.

    On this half-line nu + 1 = 1/2 - y in either region, and the reflection
    formula (DLMF 5.5.3) gives the magnitude in real arithmetic,

        log|Gamma(1/2 - y)| = log pi - log|sin pi d| - log Gamma(1/2 + y),

    since |cos pi y| = |sin pi d| with d = y - rint(y - 1/2) - 1/2 the distance
    to the nearest pole.  d is exact (Sterbenz) wherever |d| < 1/4, so the sine
    is never formed from a rounded argument near its zero.
    """
    n_scan = _require_index(n_scan, "n_scan")
    if _require_index(samples_per_unit, "samples_per_unit") < 2:
        raise ValueError(f"samples_per_unit must be at least 2, got {samples_per_unit}")
    count = samples_per_unit * (n_scan + 1)
    if count > _POLE_SCAN_SAMPLES_MAX:
        raise ValueError(f"samples_per_unit * (n_scan + 1) must be at most {_POLE_SCAN_SAMPLES_MAX}, "
                         f"got {samples_per_unit} * {n_scan + 1} = {count}")
    _require_stratum(params, BARRIER, "pole_scan")
    y = (np.arange(count) + 0.5 + 0.25 * (samples_per_unit % 2)) / samples_per_unit
    d = y - np.rint(y - 0.5) - 0.5
    logmag = (math.log(math.pi) - np.log(np.abs(np.sin(math.pi * d)))
              - _log_gamma_lanczos(0.5 + y)) / math.log(10.0)
    interior = (logmag[1:-1] > logmag[:-2]) & (logmag[1:-1] > logmag[2:])
    return PoleScanReport(energies_imag=y, log_gamma_magnitude=logmag,
                          detected_poles=y[1:-1][interior])


# ---------------------------------------------------------------------------
# Resonant (Gamow-type) expansions
# ---------------------------------------------------------------------------

def stripped_discrete_function(params: ModelParams, n: int, branch: str) -> GaussPoly:
    """The similarity-stripped discrete state phi_n^(+-) of the barrier regions, n <= 300."""
    n = _require_index(n, "n", _LADDER_MAX)
    label = _require_stratum(params, BARRIER, "stripped_discrete_function")
    state, = _ladder(label, dataclasses.replace(derive(params), upsilon_coeff=0.0), params, "+", [n])
    if branch == "+":
        return state.right_fn
    if branch == "-":
        return state.left_fn
    raise ValueError("branch must be '+' or '-'")


def resonant_expansion(params: ModelParams, target, n_max: int,
                       sector: str = "minus") -> tuple[np.ndarray, float]:
    """Expand a barrier-sector function over the resonant discrete family.

    sector 'minus' expands over phi_n^- with coefficients <phi_n^+ | target>
    (rotated-contour pairings against the opposite branch); 'plus' is the
    mirror.  target is a stripped GeneralizedFunction or a non-empty list of
    (coefficient, function) pairs, else TypeError before any pairing.  Returns
    (coefficients, sup-norm residual of the truncated reconstruction on 201
    points over +-6 b0).  Targets outside the sector's decay class make the
    coefficient integrals divergent, which raises NonConvergentError; n_max is
    at most 115.
    """
    n_max = _require_index(n_max, "n_max", _PAIRED_DEGREE_MAX)
    label = _require_stratum(params, BARRIER, "resonant_expansion")
    if sector not in ("minus", "plus"):
        raise ValueError("sector must be 'minus' or 'plus'")
    try:
        pieces = ([(complex(c), f) for c, f in target] if isinstance(target, (list, tuple))
                  else [(1.0 + 0.0j, target)])
    except (TypeError, ValueError):     # an entry that is not a (coefficient, function) pair
        pieces = []
    if not pieces or not all(isinstance(f, GeneralizedFunction) for _, f in pieces):
        given = type(target).__name__ if callable(target) else repr(target)
        raise TypeError("resonant_expansion: target must be a closed form or a non-empty list of "
                        "(coefficient, closed form) pairs; a callable of real x cannot be sampled "
                        f"on the rotated contour, got {given}")
    plus, minus = _rungs(label, dataclasses.replace(derive(params), upsilon_coeff=0.0),  # phi^+, phi^-
                         params, "+", n_max)
    duals, basis = (plus, minus) if sector == "minus" else (minus, plus)
    dual_branch = "+" if sector == "minus" else "-"

    def strategy_of(f):
        try:
            return _default_strategy(duals, [f], params)
        except NonConvergentError as exc:
            raise NonConvergentError(
                f"sector mismatch: coefficients <phi_n^{dual_branch}|target> diverge "
                f"({exc})") from exc

    grid = np.linspace(-6.0 * params.b0, 6.0 * params.b0, 201)
    return _expand(duals, basis, pieces, strategy_of, grid, params, "resonant expansion")


# ---------------------------------------------------------------------------
# Windowed delta-normalization probe
# ---------------------------------------------------------------------------

def _weber_reduced(eps: np.ndarray, gamma: np.ndarray,
                   u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, f') for f_eps(u) = Gamma(nu+1) D_mu(c u), c = -sqrt(2) e^{-i pi/4},
    mu = -nu-1 = i eps - 1/2: the side-+ family in reduced coordinates
    u = sigma x / b0, one row per reduced energy in eps, gamma = Gamma(nu+1) per row.

    f_eps solves f'' + (u^2 + 2 eps) f = 0; f' = c Gamma(nu+1) (mu D_{mu-1} -
    (c u/2) D_mu), with both orders of the ladder in one Weber call.
    """
    mu = (1j * eps - 0.5)[:, None]
    pref = gamma[:, None]
    c = -math.sqrt(2.0) * ROT
    z = c * u
    d_mu, d_m1 = parabolic_cylinder_d(mu - np.arange(2.0)[:, None, None], z)
    return pref * d_mu, c * pref * (mu * d_m1 - 0.5 * z * d_mu)


def _interior_integrals(eps_p: np.ndarray, eps0: float, box: float,
                        gamma: np.ndarray) -> np.ndarray:
    """The integrals of conj(f_eps') f_eps0 over |u| <= box, one per eps' in eps_p;
    gamma is Gamma(nu+1) = Gamma(1/2 - i eps) of eps_p with eps0 appended.

    The Weber equation has real coefficients, so conj(f_eps') solves it at
    eps' and the integrand is a Wronskian derivative (DLMF 12.2):
    [f_eps0' conj(f_eps') - f_eps0 conj(f_eps')']_{-box}^{box} / (2 (eps' - eps0)).
    """
    f, df = _weber_reduced(np.append(eps_p, eps0), gamma, np.array([-box, box]))
    wronskian = df[-1] * np.conjugate(f[:-1]) - f[-1] * np.conjugate(df[:-1])
    return (wronskian[:, 1] - wronskian[:, 0]) / (2.0 * (eps_p - eps0))


def _tail_coefficient_data(eps_p: np.ndarray, eps0: float, gamma: np.ndarray):
    """Asymptotic tail data of conj(f_eps_p) f_eps0, for an array of energies eps_p;
    gamma is Gamma(1/2 - i eps) of eps_p with eps0 appended.

    Each tail piece behaves like C * u^(-1 + s i Delta) * (1 + g / u^2) for
    u -> +infinity (after folding the left tail onto positive u); returns a
    list of (C, s, g) with Delta = eps_p - eps0, C and g arrays shaped like eps_p.
    """
    delta = eps_p - eps0
    mu_p_bar = -1j * eps_p - 0.5          # conj of the order i eps' - 1/2
    mu0 = 1j * eps0 - 0.5
    gbar, g0 = np.conjugate(gamma[:-1]), gamma[-1]     # conj Gamma(nu'+1), real energies
    two_minus = 2.0 ** (0.5 * (-1.0 - 1j * delta))
    two_plus = 2.0 ** (0.5 * (-1.0 + 1j * delta))
    quarter = math.pi * (eps_p + eps0) / 4.0

    c_left = gbar * g0 * np.exp(quarter) * two_minus
    c_r1 = gbar * g0 * np.exp(-3.0 * quarter) * two_minus
    c_r2 = 2.0 * math.pi * np.exp(-quarter) * two_plus
    g_osc = 0.25j * (mu_p_bar * (mu_p_bar - 1.0) - mu0 * (mu0 - 1.0))
    g_r2 = 0.25j * ((mu0 + 1.0) * (mu0 + 2.0) - (mu_p_bar + 1.0) * (mu_p_bar + 2.0))
    return [(c_left, -1.0, g_osc), (c_r1, -1.0, g_osc), (c_r2, +1.0, g_r2)]


_PROBE_BOX = 10.0          # interior |u| <= box by its Wronskians, the tails beyond by their kernels
_PROBE_ENERGIES = 48       # Gauss-Legendre nodes over the window center +- 6 widths


def delta_normalization_probe(params: ModelParams, e0: float, width: float,
                              center: float | None = None) -> complex:
    """Windowed test of the continuum delta-normalization.

    Smears the dual pairings <psi_bar^{E'} | phi_tilde^{E0}> against a
    peak-normalized Gaussian bump of width `width` centered at `center`
    (default E0).  With the calibrated normalization the value tends to
    bump(E0 - center): 1 when centered on the reference energy, 0 when
    centered off its support, with deviations shrinking as the window
    narrows.

    The energy window is center +- 6 widths on 48 Gauss-Legendre nodes.  The
    x-integral is split at |u| = 10 (reduced units): the interior in closed
    form, as a difference of Weber-equation Wronskians at the two ends, the
    tails by their closed-form Mellin kernels (principal value plus delta
    part), exact in the smeared limit.  ValueError for a non-finite e0, width
    or center, for E0 on an edge of the window, where the value diverges, and
    for E0 within 1e-6 widths of an energy node, where the principal-value
    quotients lose their digits.
    """
    for name, value in (("e0", e0), ("width", width), ("center", center)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"delta_normalization_probe: {name} must be finite, got {value!r}")
    label = _require_stratum(params, BARRIER, "delta_normalization_probe")
    scale = params.hbar * abs(derive(params).omega_cap)
    eps0 = _reduced_energy(e0, scale, label)
    w = width / scale
    if w <= 0:
        raise ValueError("width must be positive")
    cen = eps0 if center is None else _reduced_energy(center, scale, label)
    return _probe_value(eps0, w, cen, _PROBE_BOX)


def _probe_value(eps0: float, w: float, cen: float, box: float) -> complex:
    """The probe in reduced energies, with the interior |u| <= box in closed form."""
    # energy window nodes (Gauss-Legendre over +-6 bump widths)
    lo, hi = cen - 6.0 * w, cen + 6.0 * w
    if eps0 in (lo, hi):
        raise ValueError("delta_normalization_probe: e0 on an edge of the window center +- 6 width")
    en_nodes, en_weights = _gauss_legendre(_PROBE_ENERGIES)
    eps_p = 0.5 * (hi - lo) * en_nodes + 0.5 * (hi + lo)
    ew = 0.5 * (hi - lo) * en_weights
    delta = eps_p - eps0
    if np.min(np.abs(delta)) <= 1e-6 * w:
        raise ValueError("delta_normalization_probe: e0 within 1e-6 width of an energy node "
                         "of the window; move e0 or the center")
    bump = np.exp(-((eps_p - cen) / w) ** 2 / 2.0)
    bump0 = math.exp(-((eps0 - cen) / w) ** 2 / 2.0)

    # Gamma(nu+1) = Gamma(1/2 - i eps) once for all; Gamma(1/2 + i eps) is its conjugate
    gamma = np.exp(log_gamma(0.5 - 1j * np.append(eps_p, eps0)))
    inner = _interior_integrals(eps_p, eps0, box, gamma)
    tails = _tail_coefficient_data(eps_p, eps0, gamma)
    tails0 = [c[0] for c, _, _ in _tail_coefficient_data(np.array([eps0]), eps0, gamma[[-1, -1]])]

    # delta part: integral bump * C_p(eps') * pi * delta(eps' - eps0)
    value = math.pi * sum(c.real for c in tails0) * bump0 if abs(eps0 - cen) <= 6.0 * w else 0.0

    # smooth part: the interior plus the tails' 1/u^2 terms beyond the box
    corr = sum(c * g * box ** (-2.0 + s * 1j * delta) / (2.0 - s * 1j * delta)
               for c, s, g in tails)
    value += np.sum(ew * bump * (inner + corr))

    # principal-value kernels: integral bump * F_k(eps') / (eps' - eps0), with
    # F_k(eps0) subtracted and its log integral added back, exact on either side
    for (c, s, _), c0 in zip(tails, tails0):
        f_at = bump0 * c0 * 1j / s
        value += np.sum(ew * (bump * c * box ** (s * 1j * delta) * 1j / s - f_at) / delta)
        value += f_at * math.log(abs((hi - eps0) / (eps0 - lo)))

    return complex(value / DELTA_DENSITY_AT_ZERO)
