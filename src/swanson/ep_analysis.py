"""Limit procedures onto the boundary strata.

Two families of sweeps exhibit the coalescence structure:

* sweep_to_boundary_i_iii drives omega -> alpha + beta along the root
  epsilon(G) of r(eps)^2 = G^2 eps^2 with r(eps)^2 = (alpha-beta)^2
  + 2 eps (alpha+beta) + eps^2, taking each swept state from discrete_states.
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

from .core import DEFAULT_TOL, ModelParams, RegionLabel, classify
from .errors import RegionError, SingularParameterError
from .eigensystems import (
    DeltaDeriv,
    GaussPoly,
    PlaneWaveGauss,
    _ep_exponent,
    _inverse_sqrt_factorial,
    _unit,
    discrete_states,
    evaluate,
)
from .pairing import pair
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


def _normalized_distance(fv: np.ndarray, gv: np.ndarray, w: np.ndarray) -> float:
    nf = math.sqrt(float(np.real(np.sum(w * np.abs(fv) ** 2))))
    ng = math.sqrt(float(np.real(np.sum(w * np.abs(gv) ** 2))))
    if nf == 0.0 or ng == 0.0:
        raise ValueError("cannot normalize a vanishing function")
    overlap = complex(np.sum(w * np.conjugate(fv) * gv)) / (nf * ng)
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


def _battery_direction(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("battery pairing vector vanished")
    return vec / norm


def _direction_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-invariant distance between unit vectors, sqrt(2 - 2 |<u, v>|)."""
    overlap = abs(complex(np.vdot(u, v)))
    return math.sqrt(max(0.0, 2.0 - 2.0 * overlap))


def sweep_to_boundary_i_iii(alpha: float, beta: float, n: int, branch_target: str,
                            g_values, b0: float = 1.0, hbar: float = 1.0) -> LimitSweepReport:
    """Sweep eigenfunctions onto the boundary omega = alpha + beta.

    The swept state is the n-th eigenstate of discrete_states at
    omega = alpha + beta + eps(G), and energies are its eigenvalues
    hbar (n+1/2) G eps.  branch_target 'plus': weighted-L2 distance of the
    swept function to the monomial limit tau^-1 x^n / sqrt(n!), energies tending
    to hbar (alpha-beta)(n+1/2).  branch_target 'minus': distributional
    convergence onto the delta-derivative family, measured as the euclidean
    distance between normalized battery-pairing vectors (five displaced
    Gaussians).
    """
    if alpha == beta:
        raise SingularParameterError("boundary sweep requires alpha != beta")
    if branch_target not in ("plus", "minus"):
        raise ValueError("branch_target must be 'plus' or 'minus'")
    g_values = np.asarray(g_values, dtype=float)
    if np.any(g_values <= 1.0):
        raise ValueError("G values must exceed 1 (epsilon(G) leaves its validity range)")
    if np.any(np.diff(g_values) <= 0.0):
        raise ValueError("G values must be increasing")

    params_boundary = ModelParams(alpha + beta, alpha, beta, b0, hbar)
    ct = (alpha + beta) / (alpha - beta)
    if branch_target == "plus":
        x, w = _weighted_grid(b0)
        limit_vals = evaluate(GaussPoly(gauss=-ct, coeffs=_unit(n), norm=1.0), x, params_boundary)

        def distance(f, p):
            return _normalized_distance(evaluate(f, x, p), limit_vals, w)
    else:
        battery = _gaussian_battery(b0)
        limit_fn = DeltaDeriv(gauss=-ct, n=n, norm=(-1.0) ** n * _inverse_sqrt_factorial(n))
        limit_vec = _battery_direction(
            np.array([pair(t, limit_fn, params_boundary) for t in battery]))

        def distance(f, p):
            vec = _battery_direction(np.array([pair(t, f, p) for t in battery]))
            return _direction_distance(vec, limit_vec)

    # Region I (eps > 0) energies tend to hbar |alpha - beta| (n + 1/2), Region III
    # (eps < 0) ones to the negative; the monomial limit has hbar (alpha - beta)(n + 1/2)
    eps_sign = 1.0 if (branch_target == "plus") == (alpha > beta) else -1.0
    expected = RegionLabel.REGION_I if eps_sign > 0 else RegionLabel.REGION_III
    distances = np.zeros(len(g_values))
    energies = np.zeros(len(g_values), dtype=complex)
    for i, g_val in enumerate(g_values):
        disc = math.sqrt(4.0 * alpha * beta + g_val ** 2 * (alpha - beta) ** 2)
        eps = (alpha + beta + eps_sign * disc) / (g_val ** 2 - 1.0)
        p_eps = ModelParams(alpha + beta + eps, alpha, beta, b0, hbar)
        label = classify(p_eps)
        if label is not expected:
            raise RegionError(
                f"swept point at G={g_val:g} classifies as {label.pretty()}, not "
                f"{expected.pretty()}")
        state = discrete_states(p_eps, n)[n]
        distances[i] = distance(state.right_fn, p_eps)
        energies[i] = complex(state.energy)
    return LimitSweepReport(g_values, distances, energies)


# ---------------------------------------------------------------------------
# sweep onto the Omega = 0 exceptional points
# ---------------------------------------------------------------------------

def _ep_limit_function(p_ref: ModelParams, n: int) -> GaussPoly:
    coeffs = (1.0 + 0.0j,) if n % 2 == 0 else (0.0 + 0.0j, 1.0 + 0.0j)
    return GaussPoly(gauss=_ep_exponent(p_ref, DEFAULT_TOL), coeffs=coeffs, norm=1.0)


def _ep_swept_params(omega: float, beta: float, eps: float, side: str,
                     b0: float, hbar: float) -> ModelParams:
    if beta == 0.0:
        raise RegionError("no exceptional point at beta = 0: alpha cannot move Omega^2 = omega^2")
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
    (even: Gaussian, odd: x Gaussian) E = 0 limit function.
    """
    if region_side not in ("I", "II"):
        raise ValueError("region_side must be 'I' or 'II'")
    p_ref = _ep_swept_params(omega, beta, 0.0, "I", b0, hbar)
    limit_fn = _ep_limit_function(p_ref, n)     # raises at omega = 2 beta
    eps_values = np.asarray(eps_values, dtype=float)
    if np.any(eps_values <= 0.0) or np.any(np.diff(eps_values) >= 0.0):
        raise ValueError("eps values must be positive and decreasing")

    x, w = _weighted_grid(b0)
    limit_vals = evaluate(limit_fn, x, p_ref)

    expected = RegionLabel.REGION_I if region_side == "I" else RegionLabel.REGION_II
    distances = np.zeros(len(eps_values))
    energies = np.zeros(len(eps_values), dtype=complex)
    for i, eps in enumerate(eps_values):
        p = _ep_swept_params(omega, beta, eps, region_side, b0, hbar)
        label = classify(p)
        if label is not expected:
            raise RegionError(
                f"swept point at eps={eps:g} classifies as {label.pretty()}, not "
                f"Region {region_side}")
        states = discrete_states(p, n)
        if region_side == "I":
            state = next(s for s in states if s.n == n)
        else:
            state = next(s for s in states if s.n == n and s.branch == branch)
        swept_vals = evaluate(state.right_fn, x, p)
        distances[i] = _normalized_distance(swept_vals, limit_vals, w)
        energies[i] = complex(state.energy)
    return LimitSweepReport(eps_values, distances, energies)


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
    order.
    """
    # the closed forms are singular at omega = 2 beta, where _ep_exponent raises
    _ep_exponent(_ep_swept_params(omega, beta, 0.0, "I", b0, hbar), DEFAULT_TOL)
    rows = []
    for eps in np.asarray(eps_values, dtype=float):
        p1 = _ep_swept_params(omega, beta, eps, "I", b0, hbar)
        p2 = _ep_swept_params(omega, beta, eps, "II", b0, hbar)
        s1 = {s.n: s for s in discrete_states(p1, n_max)}
        s2 = {(s.n, s.branch): s for s in discrete_states(p2, n_max)}
        for n in range(n_max + 1):
            rows.append(FlowEntry(
                eps=float(eps),
                n=n,
                energy_side1=float(np.real(s1[n].energy)),
                energy_side2_plus=complex(s2[(n, "+")].energy),
                energy_side2_minus=complex(s2[(n, "-")].energy),
            ))
    return rows
