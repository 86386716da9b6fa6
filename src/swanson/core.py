"""Model parameters, derived scalar quantities, and parameter-space classification.

The Hamiltonian is the quadratic non-Hermitian oscillator

    H = hbar*omega (a^dag a + 1/2) + hbar*alpha a^2 + hbar*beta a^dag^2,

written in position space with characteristic length b0.  Everything downstream
is controlled by the sign of the effective mass m = hbar/((omega-alpha-beta) b0^2)
and of the squared frequency Omega^2 = omega^2 - 4 alpha beta, which split the
(alpha/omega, beta/omega) plane into four regions plus boundary strata.
"""

from __future__ import annotations

import cmath
import functools
import gc
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import RegionError

DEFAULT_TOL = 1e-12

# coupling scales whose squares neither overflow nor lose digits to underflow;
# outside this band classify and derive work in reduced couplings (x/scale)
_SAFE_LO = 1e-100
_SAFE_HI = 1e100


class RegionLabel(Enum):
    REGION_I = "I"
    REGION_II = "II"
    REGION_III = "III"
    REGION_IV = "IV"
    BOUNDARY_I_II = "I-II"
    BOUNDARY_III_IV = "III-IV"
    BOUNDARY_I_III = "I-III"
    CORNER_DEGENERATE = "corner"

    def pretty(self) -> str:
        if self.name.startswith("REGION"):
            return f"Region {self.value}"
        if self.name.startswith("BOUNDARY"):
            return f"Boundary {self.value}"
        return "Corner degenerate"


# the observables of swanson.dynamics, here so the command line reads them without numpy
class ObservableKind(Enum):
    X = "X"
    P = "P"
    X2 = "X2"
    P2 = "P2"


# the strata that entry points serve, for _require_stratum and membership tests
REAL_SPECTRUM = (RegionLabel.REGION_I, RegionLabel.REGION_III)
BARRIER = (RegionLabel.REGION_II, RegionLabel.REGION_IV)
OMEGA_ZERO = (RegionLabel.BOUNDARY_I_II, RegionLabel.BOUNDARY_III_IV)


@dataclass(frozen=True)
class ModelParams:
    """Point of the parameter space: couplings, characteristic length, hbar.

    omega, alpha, beta share units of angular frequency; b0 and hbar set the
    length and action scales (both default to 1 so reduced-unit formulas can be
    read off directly) and must lie in [1e-100, 1e100], where their squares
    and products stay in the float range.
    """

    omega: float
    alpha: float
    beta: float
    b0: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("omega", "alpha", "beta", "b0", "hbar"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("b0", "hbar"):
            v = getattr(self, name)
            if not _SAFE_LO <= v <= _SAFE_HI:
                raise ValueError(
                    f"{name} must lie in [{_SAFE_LO:g}, {_SAFE_HI:g}], got {v}")

    def swapped(self) -> "ModelParams":
        """Parameters of the Hermitian conjugate, H_c(omega, alpha, beta) = H(omega, beta, alpha)."""
        return ModelParams(self.omega, self.beta, self.alpha, self.b0, self.hbar)


@dataclass(frozen=True)
class DerivedQuantities:
    """Scalars derived from a parameter point.

    Undefined quantities (at degenerate parameter combinations) are stored as
    None rather than inf/NaN so callers must handle degeneracy explicitly.
    Degeneracy is decided by the relative rule of classify, with
    scale = max(|omega|, |alpha|, |beta|): the mass is degenerate exactly where
    classify answers Boundary I-III or the corner, and sigma is None on every
    Omega = 0 stratum as well.

    omega_cap     complex frequency Omega = sqrt(omega^2 - 4 alpha beta), taken
                  real positive when Omega^2 > 0 and +i|Omega| when Omega^2 < 0
    omega_sq      real Omega^2
    m_eff         effective mass, None when |omega - alpha - beta| <= tol*scale
    k_stiff       stiffness m*Omega^2, None when m_eff is None
    sigma         dimensionless Gaussian width sqrt(|m Omega|/hbar)*b0, None
                  when m_eff is None or |Omega^2| <= tol*scale^2
    upsilon_coeff coefficient (alpha-beta)/(omega-alpha-beta) of the similarity
                  weight exp(-c x^2/(2 b0^2)); None when m_eff is None
    tau_coeff     coefficient (alpha+beta)/(alpha-beta) of the boundary I-III
                  similarity weight; None when alpha = beta
    """

    omega_cap: complex
    omega_sq: float
    m_eff: float | None
    k_stiff: float | None
    sigma: float | None
    upsilon_coeff: float | None
    tau_coeff: float | None


def _gap(w, a, b):
    """omega - (alpha + beta) on floats or arrays, the same bits for (a, b) and (b, a), and
    rounded once where it cancels: a + b = s + e exactly (two-sum), and w - s is then exact."""
    s = a + b
    t = s - a
    return (w - s) - ((a - (s - t)) + (b - t))


def derive(params: ModelParams, tol: float = DEFAULT_TOL) -> DerivedQuantities:
    """Compute every derived scalar for a parameter point.

    Degeneracies are encoded as None fields, never raised and never NaN.  They
    are decided with the same relative tolerance and the same comparisons as
    classify(params, tol), so m_eff is None exactly on Boundary I-III and the
    corner, and sigma is None on every Omega = 0 stratum.  The one exception
    is a coupling scale beyond the float range of the result: m_eff = inf when
    the gap is subnormal, omega_sq = inf when scale^2 overflows.  Scales
    outside 1e+-100 are computed in reduced couplings, so the labels, sigma
    and the coefficients are the same at every scale.
    """
    if not tol > 0:     # also NaN
        raise ValueError("tol must be positive")
    w, a, b = params.omega, params.alpha, params.beta
    scale = max(abs(w), abs(a), abs(b))
    if not _SAFE_LO <= scale <= _SAFE_HI and scale:
        r = derive(ModelParams(w / scale, a / scale, b / scale, params.b0, params.hbar), tol)
        return DerivedQuantities(
            r.omega_cap * scale, r.omega_sq * scale * scale,
            None if r.m_eff is None else r.m_eff / scale,
            None if r.k_stiff is None else r.k_stiff * scale,
            r.sigma, r.upsilon_coeff, r.tau_coeff)
    omega_sq = w * w - 4.0 * a * b
    omega_cap = cmath.sqrt(complex(omega_sq, 0.0))  # real or +i|Omega|

    # the comparisons of classify, inlined: a shared helper call would slow classify
    gap = _gap(w, a, b)
    if abs(gap) > tol * scale:
        m_eff = params.hbar / (gap * params.b0 ** 2)
        k_stiff = m_eff * omega_sq
        upsilon_coeff = (a - b) / gap
    else:
        m_eff = None
        k_stiff = None
        upsilon_coeff = None

    if m_eff is not None and abs(omega_sq) > tol * scale * scale:
        sigma = math.sqrt(abs(m_eff * omega_cap) / params.hbar) * params.b0
    else:
        sigma = None

    tau_coeff = (a + b) / (a - b) if a != b else None

    # positional arguments: passing seven keywords costs about 0.4 us a call
    return DerivedQuantities(omega_cap, omega_sq, m_eff, k_stiff, sigma, upsilon_coeff, tau_coeff)


def classify(params: ModelParams, tol: float = DEFAULT_TOL) -> RegionLabel:
    """Assign the parameter point to a region or boundary stratum.

    tol is a relative tolerance: boundary strata are detected when the region
    indicators fall below tol * max(|omega|, |alpha|, |beta|) (squared for the
    Omega^2 indicator).  Scale-invariant under (omega, alpha, beta) -> s*(...)
    for s > 0, also where scale^2 would over- or underflow.
    """
    if not tol > 0:     # also NaN
        raise ValueError("tol must be positive")
    w, a, b = params.omega, params.alpha, params.beta
    scale = max(abs(w), abs(a), abs(b))
    if not _SAFE_LO <= scale <= _SAFE_HI:
        if scale == 0.0:
            return RegionLabel.CORNER_DEGENERATE
        return classify(ModelParams(w / scale, a / scale, b / scale), tol)

    omega_sq = w * w - 4.0 * a * b
    gap = _gap(w, a, b)

    on_omega_boundary = abs(omega_sq) <= tol * scale * scale
    on_gap_boundary = abs(gap) <= tol * scale

    if on_omega_boundary and on_gap_boundary:
        return RegionLabel.CORNER_DEGENERATE
    if on_gap_boundary:
        return RegionLabel.BOUNDARY_I_III
    if on_omega_boundary:
        return RegionLabel.BOUNDARY_I_II if gap > 0 else RegionLabel.BOUNDARY_III_IV

    if gap > 0:
        return RegionLabel.REGION_I if omega_sq > 0 else RegionLabel.REGION_II
    return RegionLabel.REGION_III if omega_sq > 0 else RegionLabel.REGION_IV


def _require_stratum(where: ModelParams | RegionLabel, strata: tuple, what: str) -> RegionLabel:
    """The label of where (classified unless it is a label already), or
    RegionError "<what> requires <A> or <B>, got <C>" when it is not one of strata."""
    label = where if isinstance(where, RegionLabel) else classify(where)
    if label not in strata:
        *rest, last = (s.pretty() for s in RegionLabel if s in strata)
        needs = f"{', '.join(rest)} or {last}" if rest else last
        raise RegionError(f"{what} requires {needs}, got {label.pretty()}")
    return label


def _require_index(value, name: str, top: int | None = None, where: str = "") -> int:
    """The ladder index value as an int; ValueError naming it unless an integer in 0 ... top."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n}")
    if top is not None and n > top:
        raise ValueError(f"{name} must be at most {top}{where}, got {n}")
    return n


# the largest grid side surface_grid serves: about 10^6 rows, 145 MB at 145 bytes a row
_SURFACE_N_MAX = 1001


class SurfaceRow(NamedTuple):
    """One grid point of the classification surface, in reduced units.

    omega_sq is Omega^2/omega^2 and mass is m*omega*b0^2/hbar (None within the
    relative tolerance of the mass discontinuity plane alpha + beta = omega,
    where region is Boundary I-III or the corner).  An immutable named tuple,
    so a row costs no per-instance dict and no __init__.
    """

    alpha_over_omega: float
    beta_over_omega: float
    omega_sq: float
    mass: float | None
    region: RegionLabel


_new_row = functools.partial(tuple.__new__, SurfaceRow)   # a row from one 5-tuple, in C


@functools.cache
def _surface_labels():
    """The label of classify by the code 8*(not massive) + 4*on_omega + 2*(gap > 0)
    + (Omega^2 > 0), as an object array; built once, on the first surface_grid call,
    so that importing core loads no numpy."""
    import numpy as np

    return np.array(
        [RegionLabel.REGION_IV, RegionLabel.REGION_III, RegionLabel.REGION_II, RegionLabel.REGION_I]
        + [RegionLabel.BOUNDARY_III_IV] * 2 + [RegionLabel.BOUNDARY_I_II] * 2
        + [RegionLabel.BOUNDARY_I_III] * 4 + [RegionLabel.CORNER_DEGENERATE] * 4, dtype=object)


def surface_grid(half_range: float, n: int, tol: float = DEFAULT_TOL) -> list[SurfaceRow]:
    """Sample the reduced (alpha/omega, beta/omega) plane on an n x n grid.

    Rows are emitted row-major with alpha/omega as the outer (slow) index.
    Omega^2/omega^2 varies continuously; the reduced mass changes sign only
    across the line alpha/omega + beta/omega = 1, where it is undefined.
    n is an integer in 2 ... 1001 and half_range a real number; anything else
    raises ValueError naming the argument.

    The grid is computed with numpy in blocks of whole alpha rows, about
    4,096 points a block, each one broadcast pass of an alpha column against
    the beta row. A pass makes the floating-point operations of derive and
    classify in their order, reduced couplings above a scale of 1e100
    included; so every row is bit-identical to derive(ModelParams(1.0, a, b), tol)
    and classify(ModelParams(1.0, a, b), tol). The cyclic garbage collector is
    paused while the rows are built (rows cannot form a cycle) and switched
    back on afterwards only if it was on.
    """
    n = _require_index(n, "n", _SURFACE_N_MAX)
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    import numbers

    if not isinstance(half_range, numbers.Real):
        raise ValueError(f"half_range must be a real number, got {half_range!r}")
    if half_range <= 0:
        raise ValueError("half_range must be positive")
    if not tol > 0:     # also NaN
        raise ValueError("tol must be positive")
    import numpy as np

    labels = _surface_labels()
    coords = [-half_range + 2.0 * half_range * i / (n - 1) for i in range(n)]
    b = np.array(coords)
    if not np.all(np.isfinite(b)):
        raise ValueError(f"grid coordinates must be finite, got half_range = {half_range}")
    abs_b = np.abs(b)
    rows = []
    block = max(1, 4096 // n)       # alpha rows a pass: bounded temporaries, few numpy calls
    # rows hold only floats, None and RegionLabel members, so they cannot form a cycle: pause
    # the collector for the build (not gc.freeze, which would unfreeze a caller's objects)
    # and switch it back on only if it was on, so a caller's disabled collector stays off
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        # a subnormal gap gives mass inf and scale^2 past 1e154 gives omega_sq inf, as in derive
        with np.errstate(over="ignore", divide="ignore"):
            for start in range(0, n, block):
                a = b[start:start + block, None]      # a column of alpha against the row b of beta
                scale = np.maximum(np.maximum(1.0, np.abs(a)), abs_b)
                s = np.where(scale > _SAFE_HI, scale, 1.0)  # 1.0 keeps a point unreduced, exactly
                wr, ar, br = 1.0 / s, a / s, b / s
                r_scale = np.maximum(np.maximum(np.abs(wr), np.abs(ar)), np.abs(br))
                omega_sq = wr * wr - 4.0 * ar * br
                gap = _gap(wr, ar, br)
                tol_gap = tol * r_scale
                massive = np.abs(gap) > tol_gap     # the test of derive; classify's on_gap is its negation
                on_omega = np.abs(omega_sq) <= tol_gap * r_scale
                code = (~massive << 3) | (on_omega << 2) | ((gap > 0) << 1) | (omega_sq > 0)
                mass = (1.0 / gap / s).ravel().tolist()
                for i in np.flatnonzero(~massive).tolist():
                    mass[i] = None
                a_col = itertools.chain.from_iterable(
                    itertools.repeat(x, n) for x in coords[start:start + block])
                rows.extend(map(_new_row, zip(a_col, coords * len(a), (omega_sq * s * s).ravel().tolist(),
                                              mass, labels[code.ravel()].tolist())))
    finally:
        if gc_was_on:
            gc.enable()
    return rows
