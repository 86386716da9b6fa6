"""Limit procedures onto the boundary strata.

Two families of sweeps exhibit the coalescence structure:

* sweep_to_boundary_i_iii drives omega -> alpha + beta along the root
  epsilon(G) of r(eps)^2 = G^2 eps^2 with r(eps)^2 = (alpha-beta)^2
  + 2 eps (alpha+beta) + eps^2, building only the swept state n of the ladder.
  The root of the sign of alpha - beta (eps > 0 for alpha > beta, Region I)
  carries the oscillator states onto the monomial eigenfunctions
  tau^-1 x^n / sqrt(n!); the other root carries them onto the
  delta-derivative family, which is only a distributional limit and is
  therefore measured weakly against a fixed battery of displaced Gaussians.

* sweep_to_ep drives Omega^2 = +-eps^2 -> 0 at fixed (omega, beta) with
  alpha = (omega^2 -+ eps^2)/(4 beta); the Region I and Region II states both
  collapse onto the same E = 0 function (c0 + c1 x) exp(-(omega+2 beta)
  x^2 / (2 (omega-2 beta) b0^2)) while every eigenvalue goes to zero linearly
  in eps: an exceptional point of infinite order.

Distances between swept and limit functions are weighted-L2 with weight
exp(-x^2/b0^2) on |x| <= 8 b0, between unit-normalized, phase-aligned
functions, so unknown overall constants drop out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BARRIER, REAL_SPECTRUM, ModelParams, RegionLabel, _finite, _require_choice,
                   _require_index, _require_stratum, derive)
from .errors import NonConvergentError, RegionError, SingularParameterError
from .eigensystems import (
    _LADDER_MAX,
    PlaneWaveGauss,
    _ep_exponent,
    _ladder,
    _ladder_stratum,
    _level_spacing,
    ep_states,
    evaluate,
)
from .pairing import _PAIRED_DEGREE_MAX, _pair_block
from .specfun import _gauss_legendre

__all__ = [
    "LimitSweepReport",
    "sweep_to_boundary_i_iii",
    "sweep_to_ep",
    "ep_spectrum_flow",
    "FlowEntry",
]


@dataclass(frozen=True)
class LimitSweepReport:
    """Distances of swept eigenfunctions to their limit, with energies."""

    parameter_values: np.ndarray
    distances: np.ndarray
    energies: np.ndarray


# ---------------------------------------------------------------------------
# weighted-L2 distance between normalized, phase-aligned functions
# ---------------------------------------------------------------------------

_QUAD_N = 400


def _weighted_grid(b0: float) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = _gauss_legendre(_QUAD_N)
    x = 8.0 * b0 * nodes
    w = 8.0 * b0 * weights * np.exp(-(x / b0) ** 2)
    return x, w


def _unit(v: np.ndarray, w: np.ndarray | float) -> np.ndarray:
    """v over its weighted norm, scaled by its largest modulus before squaring,
    so a finite v always has a finite norm and the overlap of two is at most 1."""
    top = np.abs(v).max()
    if not math.isfinite(top):
        raise NonConvergentError("sweep distance: a value or pairing is not finite")
    if top == 0.0:
        raise ValueError("cannot normalize a vanishing function")
    v = v / top
    return v / math.sqrt((w * np.abs(v) ** 2).sum())


def _normalized_distance(fv: np.ndarray, unit_g: np.ndarray, w: np.ndarray | float) -> float:
    """Distance from fv, normalized and phase-aligned, to the unit vector unit_g."""
    overlap = (w * _unit(fv, w).conj() * unit_g).sum()
    return math.sqrt(max(0.0, 2.0 - 2.0 * abs(overlap)))


# ---------------------------------------------------------------------------
# sweep onto the boundary omega = alpha + beta
# ---------------------------------------------------------------------------

def _gaussian_battery(b0: float) -> list[PlaneWaveGauss]:
    """Displaced Gaussians exp(-(x - a)^2/b0^2), a in {0, +-0.5, +-1} b0.

    exp(-(x-a)^2/b0^2) = e^{-a^2/b0^2} e^{2 a x / b0^2} e^{-x^2/b0^2}; the
    linear drift rides in an imaginary wavenumber.
    """
    battery = []
    for a in (0.0, 0.5 * b0, -0.5 * b0, 1.0 * b0, -1.0 * b0):
        battery.append(PlaneWaveGauss(
            gauss=-2.0,
            k_wave=-2j * a / b0 ** 2,
            amp_plus=math.exp(-(a / b0) ** 2),
            amp_minus=0.0,
        ))
    return battery


def _distance_to(limit, params: ModelParams, battery: bool):
    """distance(f, p) of a swept function f at p to the limit function at params.

    Weighted-L2, or with battery the same distance between the vectors of
    pairings with the battery.
    """
    if battery:
        tests = _gaussian_battery(params.b0)
        limit_vec = _unit(_pair_block(tests, [limit], params)[:, 0], 1.0)
        return lambda f, p: _normalized_distance(_pair_block(tests, [f], p)[:, 0], limit_vec, 1.0)
    x, w = _weighted_grid(params.b0)
    limit_vals = _unit(evaluate(limit, x, params), w)
    return lambda f, p: _normalized_distance(evaluate(f, x, p), limit_vals, w)


def _sweep(values, what: str, swept_params, expected: RegionLabel, n: int,
           branch: str | None, distance) -> LimitSweepReport:
    """Distance to the limit and energy of state n at each swept point; what names
    the sweep and its parameter, as in "sweep_to_ep at eps"; only state n is built."""
    distances = np.zeros(len(values))
    energies = np.zeros(len(values), dtype=complex)
    for i, value in enumerate(values):
        p = swept_params(value)
        label = _require_stratum(p, (expected,), f"{what}={value:g}")
        state, = _ladder(label, derive(p), p, branch, [n])
        distances[i] = distance(state.right_fn, p)
        energies[i] = complex(state.energy)
    return LimitSweepReport(values, distances, energies)


def sweep_to_boundary_i_iii(alpha: float, beta: float, n: int, branch_target: str,
                            g_values, b0: float = 1.0, hbar: float = 1.0) -> LimitSweepReport:
    """Sweep eigenfunctions onto the boundary omega = alpha + beta.

    The swept state is the n-th eigenstate of discrete_states at
    omega = alpha + beta + eps(G), and energies are its eigenvalues
    hbar (n+1/2) G eps.  The limit is the n-th Boundary I-III state of
    discrete_states.  branch_target 'plus': weighted-L2 distance of the
    swept function to the monomial limit tau^-1 x^n / sqrt(n!), energies tending
    to hbar (alpha-beta)(n+1/2).  branch_target 'minus': distributional
    convergence onto the delta-derivative family, measured as the euclidean
    distance between normalized battery-pairing vectors (five displaced
    Gaussians).  n is at most 300, or 115 on the minus branch.
    """
    for name, value in (("alpha", alpha), ("beta", beta)):     # either reaches ModelParams as omega
        _finite(value, name, float)
    if alpha == beta:       # after the finite check: inf == inf
        raise SingularParameterError("boundary sweep requires alpha != beta")
    _require_choice(branch_target, "branch_target", ("plus", "minus"))
    g_values = _finite(g_values, "g_values", float)
    if np.any(g_values <= 1.0):
        raise ValueError("G values must exceed 1 (epsilon(G) leaves its validity range)")
    if np.any(np.diff(g_values) <= 0.0):
        raise ValueError("G values must be increasing")

    minus = branch_target == "minus"
    top, where = (_PAIRED_DEGREE_MAX, " on the minus branch") if minus else (_LADDER_MAX, "")
    n = _require_index(n, "n", top, where)      # before any work: the minus battery pairs by quadrature
    params_boundary = ModelParams(alpha + beta, alpha, beta, b0, hbar)
    label, d, _, _ = _ladder_stratum(params_boundary, n)
    limit = _ladder(label, d, params_boundary, "-" if minus else "+", [n])[0].right_fn
    distance = _distance_to(limit, params_boundary, battery=minus)

    # Region I (eps > 0) energies tend to hbar |alpha - beta| (n + 1/2), Region III
    # (eps < 0) ones to the negative; the monomial limit has hbar (alpha - beta)(n + 1/2)
    eps_sign = 1.0 if (branch_target == "plus") == (alpha > beta) else -1.0
    expected = RegionLabel.REGION_I if eps_sign > 0 else RegionLabel.REGION_III

    def swept_params(g_val):
        disc = math.sqrt(4.0 * alpha * beta + g_val ** 2 * (alpha - beta) ** 2)
        eps = (alpha + beta + eps_sign * disc) / (g_val ** 2 - 1.0)
        return ModelParams(alpha + beta + eps, alpha, beta, b0, hbar)

    return _sweep(g_values, "sweep_to_boundary_i_iii at G", swept_params, expected, n, None, distance)


# ---------------------------------------------------------------------------
# sweep onto the Omega = 0 exceptional points
# ---------------------------------------------------------------------------

def _ep_swept_params(omega: float, beta: float, eps: float, side: str,
                     b0: float, hbar: float) -> ModelParams:
    if beta == 0.0:
        raise RegionError("no exceptional point at beta = 0: alpha cannot move Omega^2 = omega^2")
    for name, value in (("omega", omega), ("beta", beta)):     # beta reaches ModelParams as alpha
        _finite(value, name, float)
    if side == "I":
        alpha = (omega ** 2 - eps ** 2) / (4.0 * beta)
    else:
        alpha = (omega ** 2 + eps ** 2) / (4.0 * beta)
    return ModelParams(omega, alpha, beta, b0, hbar)


def sweep_to_ep(omega: float, beta: float, n: int, region_side: str, eps_values,
                branch: str = "+", b0: float = 1.0, hbar: float = 1.0) -> LimitSweepReport:
    """Sweep Omega^2 = +-eps^2 -> 0 at fixed (omega, beta).

    region_side 'I' approaches the boundary through the oscillator region
    (E = hbar eps (n+1/2)); side 'II' through the barrier region on the given
    branch (E = +-i hbar eps (n+1/2)).  Both converge to the same
    (even: Gaussian, odd: x Gaussian) E = 0 limit function of ep_states.  n is at most 300.
    """
    _require_choice(region_side, "region_side", ("I", "II"))
    _require_choice(branch, "branch", ("+", "-"))
    eps_values = _finite(eps_values, "eps_values", float)
    if np.any(eps_values <= 0.0) or np.any(np.diff(eps_values) >= 0.0):
        raise ValueError("eps values must be positive and decreasing")
    n = _require_index(n, "n", _LADDER_MAX)
    p_ref = _ep_swept_params(omega, beta, 0.0, "I", b0, hbar)
    # omega = 2 beta is singular; checked first, as ep_states sees the corner there
    _ep_exponent(p_ref)
    limit = ep_states(p_ref, 1 - n % 2, n % 2, 0, 0).right_fn

    expected = RegionLabel.REGION_I if region_side == "I" else RegionLabel.REGION_II
    return _sweep(eps_values, "sweep_to_ep at eps",
                  lambda eps: _ep_swept_params(omega, beta, eps, region_side, b0, hbar),
                  expected, n, None if region_side == "I" else branch,
                  _distance_to(limit, p_ref, battery=False))


@dataclass(frozen=True)
class FlowEntry:
    eps: float
    n: int
    energy_side1: float
    energy_side2_plus: complex
    energy_side2_minus: complex


def ep_spectrum_flow(omega: float, beta: float, n_max: int, eps_values,
                     b0: float = 1.0, hbar: float = 1.0) -> list[FlowEntry]:
    """Eigenvalue table along the coalescence sweep from both sides.

    Side I energies hbar eps (n+1/2) and side II energies +-i hbar eps (n+1/2)
    collapse to 0 simultaneously for every n: the coalescence is of infinite
    order.  The energies are the closed-form ladder eigenvalues; no state is
    built.  n_max is at most 300.
    """
    n_max = _require_index(n_max, "n_max", _LADDER_MAX)
    eps_values = _finite(eps_values, "eps_values", float)
    # the closed forms are singular at omega = 2 beta, where _ep_exponent raises
    _ep_exponent(_ep_swept_params(omega, beta, 0.0, "I", b0, hbar))
    rows = []
    for eps in eps_values:
        spacings = []
        for side in ("I", "II"):
            p = _ep_swept_params(omega, beta, eps, side, b0, hbar)
            label = _require_stratum(p, REAL_SPECTRUM + BARRIER, f"ep_spectrum_flow at eps={eps:g}")
            spacings.append(_level_spacing(label, derive(p), p.hbar))
        for n in range(n_max + 1):
            e2 = spacings[1] * (n + 0.5)
            rows.append(FlowEntry(float(eps), n, float(np.real(spacings[0] * (n + 0.5))),
                                  complex(e2), complex(-e2)))
    return rows
