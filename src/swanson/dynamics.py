"""Metric-weighted observables and time evolution.

In the real-spectrum regions the metric-dressed right states form an
orthonormal ladder: X = b0/(sigma sqrt 2) (a + a^dagger) and
P = i hbar sigma/(sqrt 2 b0) (a^dagger - a) in the annihilation operator a.
Expectation values evolve by the bi-orthogonal double sum, which on the equally
spaced ladder is a sum of at most five phases exp(i (E_m - E_n) t / hbar).

In the barrier regions wave functions split into decaying ('+' branch) and
growing ('-' branch) resonant sectors evolving with rates |Omega| (n + 1/2);
evolve_sector applies exp(i E t / hbar) per mode, which makes the
plus-branch modes decay.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (BARRIER, REAL_SPECTRUM, ModelParams, ObservableKind, RegionLabel, _require_index,
                   _require_stratum, derive)
from .errors import NonConvergentError, RegionError
from .eigensystems import (
    _LADDER_MAX,
    GaussPoly,
    GeneralizedFunction,
    _finite,
    _gauss_derivative,
    _level_spacing,
    _rungs,
    _terms,
    _times_x,
    evaluate,
)

__all__ = [
    "ObservableKind",
    "StateVector",
    "make_state",
    "matrix_element",
    "apply_observable",
    "evolve_expectation",
    "metric_norm",
    "evolve_sector",
]


@dataclass(frozen=True)
class StateVector:
    """Finite superposition over the discrete right-state basis."""

    region: RegionLabel
    coeffs: tuple
    normalized: bool


def make_state(params: ModelParams, coeffs) -> StateVector:
    """Normalize coefficients to unit metric norm <I|I>_U = sum |c_n|^2 = 1.

    The metric-dressed right states are exactly their left partners, so the
    metric Gram of the basis is the identity by construction.  The
    coefficients are divided by their largest part before they are squared,
    so neither huge nor tiny inputs leave the float range.
    """
    label = _require_stratum(params, REAL_SPECTRUM, "make_state")
    # real and imaginary parts side by side: neither |c| nor a complex divide can overflow
    parts = np.ascontiguousarray(coeffs, dtype=complex).view(float)
    peak = np.abs(parts).max(initial=0.0)
    if not math.isfinite(peak):
        raise ValueError("state coefficients must be finite")
    if peak == 0.0:
        raise ValueError("state has non-positive metric norm")
    parts = parts / peak
    return StateVector(label, tuple(parts.view(complex) / math.sqrt(parts @ parts)), True)


def _bands(kind: ObservableKind, params: ModelParams, sigma: float, n) -> dict:
    """{k: O_{n+k,n}} for the k in 0, 1, 2 that O couples, O_mn = <phi~_m | U O | phi~_n>, n an
    index or an array: q sqrt(n+1) (times i for P), q^2 (2n+1) and +-q^2 sqrt((n+1)(n+2))
    (- for P^2).  O_{n,n+k} = conj(O_{n+k,n}); all else is 0."""
    if not isinstance(kind, ObservableKind):
        raise TypeError(f"unknown observable {kind!r}")
    root2, rung = math.sqrt(2.0), n + 1.0
    position = kind in (ObservableKind.X, ObservableKind.X2)
    q = params.b0 / (sigma * root2) if position else params.hbar * sigma / (root2 * params.b0)
    if kind in (ObservableKind.X, ObservableKind.P):
        return {1: (q if position else 1j * q) * np.sqrt(rung)}
    return {0: q * q * (rung + n),
            2: (q * q if position else -q * q) * np.sqrt(rung * (rung + 1.0))}


def matrix_element(kind: ObservableKind, m: int, n: int, params: ModelParams) -> complex:
    """<phi~_m | U O | phi~_n>, read from the bands of O (Regions I and III).

    X and P couple |m-n| = 1, X^2 and P^2 couple |m-n| in {0, 2}; every other
    element is an exact zero.  Validated against the sandwich quadrature
    oracle in the test suite.
    """
    _require_stratum(params, REAL_SPECTRUM, "matrix_element")
    try:
        m, n = operator.index(m), operator.index(n)
    except TypeError:
        raise ValueError(f"indices must be integers, got {m!r} and {n!r}") from None
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    entry = _bands(kind, params, derive(params).sigma, min(m, n)).get(abs(m - n), 0.0)
    return complex(entry if m >= n else np.conjugate(entry))


def apply_observable(params: ModelParams, f: GeneralizedFunction,
                     kind: ObservableKind) -> GaussPoly:
    """O f as a closed form with the Gaussian and basis of f, for the sandwich oracle.

    X multiplies by x; P = -i hbar d/dx + i hbar c x / b0^2 acts on
    f = exp(g x^2/(2 b0^2)) u as -i hbar (u' + (g - c) x u / b0^2), so it raises
    RegionError on omega = alpha + beta, where c is undefined.
    """
    if not (isinstance(f, GaussPoly) and isinstance(kind, ObservableKind)):
        raise TypeError(f"observables act on GaussPoly states, got {kind!r} on {f!r}")
    c = derive(params).upsilon_coeff
    position = kind in (ObservableKind.X, ObservableKind.X2)
    if c is None and not position:
        raise RegionError("P needs the similarity coefficient, undefined on omega = alpha + beta")
    (coeffs,), _, _, _ = _terms([f])
    for _ in range(1 if kind in (ObservableKind.X, ObservableKind.P) else 2):
        coeffs = _times_x(coeffs, f.scale, params) if position else \
            -1j * params.hbar * _gauss_derivative(coeffs, f.scale, f.gauss - c, 0.0, params)
    return GaussPoly(f.gauss, tuple(coeffs.tolist()), 1.0, f.scale)


def evolve_expectation(state: StateVector, kind: ObservableKind, params: ModelParams,
                       t: float | np.ndarray) -> complex | np.ndarray:
    """<I(t) | O |I(t)>_U = sum c_n conj(c_m) e^{i (E_m - E_n) t/hbar} O_mn
    = M_0 + 2 Re sum_{k=1,2} M_k e^{i k omega t}, M_k = sum_n conj(c_{n+k}) O_{n+k,n} c_n.

    Real (O is U-Hermitian), returned with imaginary part 0.0: a complex for a float t,
    one per time for an array of times.
    """
    label = _require_stratum(params, REAL_SPECTRUM, "evolve_expectation")
    c = _finite(state.coeffs, "state coefficients")
    times = _finite(t, "times", float)
    d = derive(params)
    omega = _level_spacing(label, d, 1.0)   # (E_{n+1} - E_n)/hbar
    values = 0.0
    for k, band in _bands(kind, params, d.sigma, np.arange(float(len(c)))).items():
        upper = c[k:]
        moment = np.vdot(upper, band[:upper.size] * c[:upper.size])
        values += moment.real if k == 0 else 2.0 * (moment * np.exp(1j * (k * omega * times))).real
    return complex(values) if times.ndim == 0 else values.astype(complex)


def metric_norm(state: StateVector, params: ModelParams, t: float = 0.0) -> float:
    """<I(t) | I(t)>_U = sum |c_n|^2, the same at every t for the real spectra.

    The metric Gram of the dressed basis is the identity and each mode only
    gains the phase exp(-i E_n t / hbar), so t drops out; it must still be finite.
    """
    _require_stratum(params, REAL_SPECTRUM, "metric_norm")
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    return float(np.sum(np.abs(np.asarray(state.coeffs, dtype=complex)) ** 2))


def evolve_sector(params: ModelParams, minus_coeffs, plus_coeffs, t: float,
                  grid) -> np.ndarray:
    """Resonant-sector evolution in the barrier regions.

    xi(x, t) = sum_n e^{+|Omega|(n+1/2) t} c_n^- phi~_n^-(x)
             + sum_n e^{-|Omega|(n+1/2) t} c_n^+ phi~_n^+(x)

    (each mode carries exp(i E_n t / hbar), so in Region IV the roles swap with the
    relabeled energies).  Each sector is one GaussPoly, weights x phases x norm.
    Scalar or non-finite coefficients, more than 301 in a sector, or a non-finite
    time raise ValueError; raises NonConvergentError when a growth factor leaves
    the representable range, reporting its log-magnitude.
    """
    cm = _finite(minus_coeffs, "minus-sector coefficients")
    cp = _finite(plus_coeffs, "plus-sector coefficients")
    for coeffs, given, what in ((cm, minus_coeffs, "minus"), (cp, plus_coeffs, "plus")):
        if coeffs.ndim == 0:
            raise ValueError(f"{what}-sector coefficients must be a sequence, got {given!r}")
        _require_index(max(len(coeffs) - 1, 0), f"{what}-sector index", _LADDER_MAX)  # the last index
    t = float(_finite(t, "time", float))
    if max(len(cm), len(cp)) == 0:
        raise ValueError("at least one coefficient is required")
    label = _require_stratum(params, BARRIER, "evolve_sector")
    d = derive(params)
    spacing = _level_spacing(label, d, params.hbar)
    grid = np.asarray(grid, dtype=float)
    out = np.zeros(len(grid), dtype=complex)
    for coeffs, branch in ((cm, "-"), (cp, "+")):
        if not np.any(coeffs):
            continue
        right, _ = _rungs(label, d, params, branch, len(coeffs) - 1)
        energies = (-spacing if branch == "-" else spacing) * (np.arange(len(coeffs)) + 0.5)
        log_factors = np.where(coeffs == 0, 0.0, 1j * energies * t / params.hbar)
        first = int(np.argmax(log_factors.real > 700.0))
        if log_factors[first].real > 700.0:
            raise NonConvergentError(
                f"sector growth factor overflows: log magnitude {log_factors[first].real:.1f} "
                f"for mode n={first} branch {branch}")
        out += evaluate(right.superpose(coeffs * np.exp(log_factors)), grid, params)
    return out
