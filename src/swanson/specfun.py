"""Special-function backbone: complex Hermite polynomials, log-gamma, Weber
parabolic cylinder D, and Gauss-Hermite quadrature.

Only what the spectral construction needs is implemented, at double precision.
The parabolic cylinder function is the hard case: it is needed at complex
order along rotated rays where neither a pure Taylor nor a pure asymptotic
regime suffices.  One algorithm serves it, vectorised over an array of
orders: the closed form at z = 0, the asymptotic series from
R_in = sqrt(16 (|nu| + 4)) outward, and in between a Taylor march of the Weber
equation along the direction of z, solved as a two-point problem where the
march fails its checks.  Orders outside -6 <= Re nu <= 8, |Im nu| <= 20 (or
|nu| <= 40 on the anti-Stokes rays |arg z| = pi/4, 3pi/4, where every real-x
continuum state puts its argument) raise RegionError; a value that misses its
check raises NonConvergentError.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import _require_index
from .errors import NonConvergentError, PoleError, RegionError

__all__ = [
    "QuadratureRule",
    "hermite",
    "hermite_coefficients",
    "hermite_rows",
    "log_gamma",
    "recip_gamma",
    "gauss_hermite",
    "parabolic_cylinder_d",
]

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)
_GAUSS_HERMITE_MAX = 500   # highest order gauss_hermite serves


# ---------------------------------------------------------------------------
# Hermite polynomials (physicists' convention), complex argument
# ---------------------------------------------------------------------------

def hermite(n: int, z):
    """H_n(z) by the three-term recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1}.

    Accepts scalars or numpy arrays; exact for polynomial degree (up to
    floating-point rounding in the coefficients).
    """
    n = _require_index(n, "n")
    z = np.asarray(z, dtype=complex)
    h_prev = np.ones_like(z)
    if n == 0:
        return h_prev if h_prev.ndim else complex(h_prev)
    h = 2.0 * z
    for k in range(1, n):
        h, h_prev = 2.0 * z * h - 2.0 * k * h_prev, h
    return h if h.ndim else complex(h)


def hermite_rows(n: int, z) -> np.ndarray:
    """h_0(z) ... h_n(z) with h_k = H_k / sqrt(2^k k!), one row per degree.

    One pass of the normalized recurrence
    h_{k+1} = sqrt(2/(k+1)) z h_k - sqrt(k/(k+1)) h_{k-1} serves every degree
    at every point of z.  For real x, |h_k(x)| e^{-x^2/2} < 1.09 (Cramer's
    bound), so the rows stay in the float range where H_k(x) leaves it.
    """
    n = _require_index(n, "n")
    z = np.asarray(z, dtype=complex)
    rows = np.empty((n + 1,) + z.shape, dtype=complex)
    rows[0] = 1.0
    if n >= 1:
        rows[1] = math.sqrt(2.0) * z
    for k in range(1, n):
        rows[k + 1] = math.sqrt(2.0 / (k + 1)) * z * rows[k] - math.sqrt(k / (k + 1)) * rows[k - 1]
    return rows


def hermite_coefficients(n: int) -> np.ndarray:
    """Power-series coefficients of H_n, ascending order."""
    return np.polynomial.hermite.herm2poly((0.0,) * _require_index(n, "n") + (1.0,))


# ---------------------------------------------------------------------------
# Complex log-gamma (Lanczos) and reciprocal gamma
# ---------------------------------------------------------------------------

# Godfrey's Lanczos coefficients, g = 607/128, 15 terms: ~1e-14 relative
# accuracy on the half-plane Re z >= 0.5.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])
_LANCZOS_K = np.arange(1.0, len(_LANCZOS_C))[:, None]


def _log_gamma_lanczos(z: np.ndarray) -> np.ndarray:
    # valid for Re z >= 0.5, elementwise over a 1-D array, real or complex; the partial
    # fractions are one (14, n) division, added in order as a term loop adds them
    zm1 = z - 1.0
    s = functools.reduce(np.add, _LANCZOS_C[1:, None] / (zm1 + _LANCZOS_K), _LANCZOS_C[0])
    t = zm1 + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (zm1 + 0.5) * np.log(t) - t + np.log(s)


def _gamma_argument(z) -> tuple[np.ndarray, np.ndarray]:
    """z as a flat array (a scalar too: 0-d arithmetic rounds differently), shifts to Re >= 0.5."""
    flat = np.asarray(z, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise ValueError("gamma function arguments must be finite")
    return flat, np.maximum(np.ceil(0.5 - flat.real), 0.0)


def log_gamma(z):
    """Principal-branch log Gamma(z) for complex z, elementwise over an array.

    The branch is the standard analytic continuation satisfying
    log_gamma(z) = log_gamma(z+1) - Log(z); raises PoleError if any entry is
    one of z = 0, -1, -2, ...
    """
    flat, shift = _gamma_argument(z)
    pole = (flat.imag == 0.0) & (flat.real <= 0.0) & (flat.real == np.round(flat.real))
    if np.any(pole):
        raise PoleError(f"log_gamma pole at z = {flat.real[pole][0]:g}")
    # shift into the Lanczos half-plane; this recursion defines the branch
    acc = np.zeros_like(flat)
    for k in range(int(shift.max(initial=0.0))):
        acc = np.where(k < shift, acc + np.log(flat + k), acc)
    out = (_log_gamma_lanczos(flat + shift) - acc).reshape(np.shape(z))
    return out if out.ndim else complex(out)


def recip_gamma(z):
    """1/Gamma(z) for a scalar or an array; entire, exactly zero at non-positive integers."""
    flat, shift = _gamma_argument(z)
    prod = np.ones_like(flat)
    for k in range(int(shift.max(initial=0.0))):
        prod = np.where(k < shift, prod * (flat + k), prod)
    out = (prod * np.exp(-_log_gamma_lanczos(flat + shift))).reshape(np.shape(z))
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for the weight exp(-x^2) on the real line."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


# typed: np.float64(3.0) would otherwise find the entry of a cached np.int64(3) and skip the check
@functools.lru_cache(maxsize=64, typed=True)
def gauss_hermite(n: int) -> QuadratureRule:
    """Gauss-Hermite rule of order n, an integer in 1 ... 500; exact for polynomials of
    degree 2n-1."""
    n = _require_index(n, "order", _GAUSS_HERMITE_MAX)
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, order=n)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# ---------------------------------------------------------------------------
# Weber parabolic cylinder function D_nu(z), complex order and argument
# ---------------------------------------------------------------------------

# Orders served off the anti-Stokes rays (on them, and at z = 0, |nu| <= 40).  Below
# Re nu = -6 |D| dips so deeply inside some off-ray lines that values passing every
# check drift past 1e-8 (1.4e-8 at Re nu = -7.5, 7e-7 at -10, 8e-6 at -12).
_ORDER_RE_MIN = -6.0
_ORDER_RE_MAX = 8.0
_ORDER_IM_MAX = 20.0
_RAY_ORDER_MAX = 40.0
_ASYMPTOTIC_TOL = 1e-10    # tail error accepted beyond R_in, relative
_TAIL_BLOCK = 10           # tail terms formed per pass, up to 60
_TAIL_CHUNK = 4096         # tail series entries summed together


def _dv_tail_series(order: np.ndarray, z: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """S(order, z) with D_order(z) ~ exp(-z^2/4) z^order S as |z| -> inf.

    order and z are 1-D arrays of one length.  Each entry adds terms until one
    falls to tol (that term included) or they start to grow, so its sum does
    not depend on the other entries of the call; returns (S, magnitude of the
    smallest term it kept), which is <= tol where the entry converged and
    bounds the truncation error elsewhere.
    """
    inv = 1.0 / (2.0 * z * z)
    term, total, best = np.ones_like(z), np.ones_like(z), np.full(z.shape, np.inf)
    for live in np.split(np.arange(z.size), range(_TAIL_CHUNK, z.size, _TAIL_CHUNK)):
        for first in range(0, 60, _TAIL_BLOCK):
            k = np.arange(first, first + _TAIL_BLOCK)[:, None]
            a = 2 * k - order[live]
            terms, prev, w = -a * (a + 1) / (k + 1.0), term[live], inv[live]
            # c_k -> (term * c_k) * inv, rounded as in a term loop (unlike the accumulate ufuncs)
            for row in terms:
                prev = np.multiply(prev * row, w, out=row)
            mag = np.abs(terms)
            # terms are dropped from the first that grows (up to it they shrink, so the smallest
            # so far is the one before) and after the first <= tol; the kept ones add in order
            stop = np.vstack([mag[:1] > best[live], (mag[1:] > mag[:-1]) | (mag[:-1] <= tol)])
            for j in range(1, _TAIL_BLOCK):
                stop[j] |= stop[j - 1]
            total[live] = functools.reduce(np.add, np.where(stop, 0.0, terms), total[live])
            term[live], best[live] = terms[-1], np.where(stop, best[live], mag).min(axis=0)
            live = live[~(stop[-1] | (mag[-1] <= tol))]
            if not live.size:
                break
    return total, best


def _dv_asymptotic(nu: np.ndarray, z: np.ndarray,
                   rg_neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Large-|z| evaluation valid in every sector; nu, z and rg_neg = 1/Gamma(-nu)
    are 1-D arrays of one length.

    For |arg z| <= pi/2 the recessive component of D_nu vanishes and the
    dominant series stands alone.  Elsewhere the exact connection

        D_nu(z) = e^{+- i pi nu} D_nu(-z)
                  + sqrt(2 pi)/Gamma(-nu) e^{+- i pi (nu+1)/2} D_{-nu-1}(-+ i z)

    (upper signs for Im z >= 0) maps both evaluations into that sector.  Each
    series adds terms down to _SERIES_TOL.  Returns (value, error estimate):
    the smallest tail term of each series, relative to the value.
    """
    near = np.abs(np.angle(z)) <= 0.5 * math.pi
    far = ~near
    zf, nf = z[far], nu[far]
    sgn = np.where(np.angle(zf) >= 0.0, 1.0, -1.0)
    # one series call: each near entry as it is, each far one at -z and -+ i z
    order = np.concatenate([nu[near], nf, -nf - 1.0])
    arg = np.concatenate([z[near], -zf, -1j * sgn * zf])
    s, e = _dv_tail_series(order, arg, _SERIES_TOL)
    dominant = np.exp(-0.25 * arg * arg + order * np.log(arg)) * s
    (v0, v1, v2), (e0, e1, e2) = (np.split(x, [len(z) - len(zf), len(z)]) for x in (dominant, e))
    val, err = np.empty_like(z), np.empty(z.shape)
    val[near], err[near] = v0, e0
    if len(zf):
        c2 = SQRT_2PI * rg_neg[far]
        t1 = np.exp(1j * math.pi * nf * sgn) * v1
        t2 = c2 * np.exp(1j * math.pi * 0.5 * (nf + 1.0) * sgn) * v2
        val[far] = t1 + t2
        # each series' error counts with the weight of its term: where
        # 1/Gamma(-nu) = 0 the second series does not enter the value at all
        err[far] = (np.abs(t1) * e1 + np.abs(t2) * e2) / np.abs(val[far])
    return val, err


# Taylor march along the direction of z.  The Weber equation
# w'' = (z^2/4 - nu - 1/2) w has polynomial coefficients along every line
# z = r e, so it can be integrated on the lattice z_n = n h e from either end:
# from z = 0 (closed form) or from R_in e (the tail series at full double
# precision, a block of terms at a time for the entries still adding, each
# entry stopping on its own).  Marching toward the end where |D| is larger is stable;
# the other end checks the march.  The transfer matrices of a batch of marches
# are gathered in step order, the identity past each march's end, and all
# advance by one stacked product per step.  Where the check fails, or |D| falls
# by many orders inside an off-ray march, the same lattice is solved as a
# two-point problem with one value fixed at each end (Olver, J. Res. NBS 71B,
# 1967).  Near each node D is the node's Taylor polynomial, combined from those
# of the two unit solutions and summed by Horner's rule (Temme 2000; Gil, Segura
# and Temme, ACM TOMS 32, 2006).  On the anti-Stokes rays |arg z| = pi/4, 3pi/4,
# where every real-x continuum state puts its argument, e^{-z^2/4} has modulus
# one, so |D| changes only algebraically beyond the turning points.

_MARCH_STEP = 0.25         # lattice spacing h along a direction
_MARCH_TERMS = 40          # Taylor terms kept at each lattice node
_MARCH_GUARD = 1e-10       # marched vs independent far-end value, relative
_MARCH_DECLINE = 1e3       # largest fall of |D| along an accepted off-ray march
_TWO_POINT_CHECK = 1e-9    # solved vs closed-form end values, relative
_SERIES_TOL = 1e-16        # tail terms summed at and beyond R_in
_ENDPOINT_ACCEPT = 1e-12   # tail error accepted at R_in, relative
_RAY_TOL = 1e-9            # relative distance from a ray snapped onto it
_MARCH_BATCH = 64          # marches per batch, bounding its Taylor terms to ~20 MB
_RAYS = np.array([cmath.exp(0.25j * math.pi), cmath.exp(0.75j * math.pi)])


def _march_nodes(nu: np.ndarray) -> np.ndarray:
    """Lattice index n_end of R_in(nu) = n_end h >= sqrt(16 (|nu| + 4))."""
    return np.ceil(np.sqrt(16.0 * (np.abs(nu) + 4.0)) / _MARCH_STEP).astype(int)


def _dv_at_zero(nu: np.ndarray, rg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D_nu(0) and D_nu'(0) in closed form, for an array of orders and the first two
    rows of their _recip_gamma_table."""
    c = SQRT_PI * np.exp(0.5 * nu * math.log(2.0))
    return c * rg[0], -c * math.sqrt(2.0) * rg[1]


def _recip_gamma_table(nu: np.ndarray) -> np.ndarray:
    """1/Gamma at (1 - nu)/2, -nu/2 (D and D' at z = 0), -nu and -(nu - 1) (the
    connection formula at the orders nu and nu - 1) for a 1-D array of orders, as
    rows 0 .. 3, from one recip_gamma evaluation: the only one a Weber call makes."""
    return recip_gamma(np.stack([0.5 * (1.0 - nu), -0.5 * nu, -nu, -(nu - 1.0)]))


def _march_outward(d_end: np.ndarray, d_zero: np.ndarray) -> np.ndarray:
    """The direction rule: march from z = 0 where |D| is larger at R_in."""
    return np.abs(d_end) >= np.abs(d_zero)


def _taylor_terms(y0, y1, p0, p1, p2):
    """Yield Y_0 .. Y_{K-1}, the Taylor coefficients in s of the solution of
    w'' = (p0 + p1 s + p2 s^2) w with w(0) = y0, w'(0) = y1."""
    a = b = 0.0
    c, d = y0, y1
    yield c
    yield d
    for k in range(_MARCH_TERMS - 2):
        a, b, c, d = b, c, d, (p0 * c + p1 * b + p2 * a) / ((k + 2.0) * (k + 1.0))
        yield d


def _two_point(t_w: np.ndarray, t_v: np.ndarray,
               ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lattice (w_n, v_n), n = 0 .. N, of one march as a two-point problem.

    t_w[:, n] and t_v[:, n] carry (w_n, v_n) forward to w_{n+1} and v_{n+1};
    ends[0] and ends[1] are the closed-form (w, v) at z = 0 and at R_in.  One
    of w, v is imposed at each end, solved with pivoting, and the other two
    check the solve.  The pairs are tried in turn, w at both ends first; a pair
    is near singular where a solution vanishing in it at both ends exists.
    NonConvergentError where every pair misses by more than _TWO_POINT_CHECK,
    relative to that end's (w, v).
    """
    n = t_w.shape[1]
    size = 2 * n + 2
    a = np.zeros((size, size), dtype=complex)
    row = 2 * np.arange(n)
    a[row, row], a[row, row + 1], a[row, row + 2] = t_w[0], t_w[1], -1.0
    a[row + 1, row], a[row + 1, row + 1], a[row + 1, row + 3] = t_v[0], t_v[1], -1.0
    scale = np.hypot(np.abs(ends[:, 0]), np.abs(ends[:, 1]))
    for k0, k1 in ((0, 0), (1, 0), (0, 1), (1, 1)):
        a[size - 2:] = 0.0
        a[size - 2, k0] = a[size - 1, size - 2 + k1] = 1.0
        rhs = np.zeros(size, dtype=complex)
        rhs[size - 2:] = ends[0, k0], ends[1, k1]
        x = np.linalg.solve(a, rhs)
        miss = np.abs(x[[1 - k0, size - 1 - k1]] - ends[[0, 1], [1 - k0, 1 - k1]]) / scale
        if np.all(miss <= _TWO_POINT_CHECK):
            x[:2], x[size - 2:] = ends[0], ends[1]     # the closed forms at both ends
            return x[0::2], x[1::2]
    raise NonConvergentError("parabolic_cylinder_d: two-point solve missed its end values "
                             "with every pair of end conditions")


def _ray_march(nu: np.ndarray, direction: np.ndarray, rg: np.ndarray) -> np.ndarray:
    """Scaled Taylor coefficients of D_nu about the nodes z_n = n h e.

    nu and direction (the unit e of each march) are 1-D, one entry per march,
    and rg[:, c] is the _recip_gamma_table column of march c.
    Returns table[k, n, c], the coefficient of s^k of D_nu(z_n + s h e) for
    n <= n_end(nu).  A march that misses its far end, or off the anti-Stokes
    rays falls in |D| by more than _MARCH_DECLINE, is replaced by the
    two-point solve of its lattice.  Each march is computed elementwise, so it does not depend
    on the other entries.  NonConvergentError where the tail series cannot
    form the value at R_in.
    """
    count = len(nu)
    cols = np.arange(count)
    n_end = _march_nodes(nu)
    step = _MARCH_STEP * direction
    z0 = np.arange(n_end.max() + 1)[:, None] * step
    s2 = step * step
    p0 = (0.25 * z0 * z0 - (nu + 0.5)) * s2
    p1 = 0.5 * z0 * step * s2
    p2 = 0.25 * s2 * s2

    d_zero, d1_zero = _dv_at_zero(nu, rg)
    z_end = n_end * step
    # D' = nu D_{nu-1} - (z/2) D, not (z/2) D - D_{nu+1}: near nu = 0 the float
    # nu + 1 drops the low digits of nu, to which the weight 1/Gamma(-nu-1) of
    # the growing part of D_{nu+1} is proportional (nu = 1e-12 missed by 7e-5)
    d_pair, err = _dv_asymptotic(np.concatenate([nu, nu - 1.0]), np.tile(z_end, 2),
                                 rg[2:].ravel())
    if not np.all(np.maximum(err[:count], err[count:]) <= _ENDPOINT_ACCEPT):
        raise NonConvergentError("parabolic_cylinder_d: tail series failed at R_in")
    d_end, d_prev = d_pair[:count], d_pair[count:]
    with np.errstate(all="ignore"):
        # (w, v) = (D, h e D') at z = 0 and at R_in
        start = np.stack([d_zero, d1_zero * step], axis=1)
        end = np.stack([d_end, (nu * d_prev - 0.5 * z_end * d_end) * step], axis=1)
        outward = _march_outward(d_end, d_zero)
        sigma = np.where(outward, 1.0, -1.0)

        # one-step transfer along the march direction, from the fundamental
        # solutions (w, w') = (1, 0) and (0, 1) at every node
        even, odd, d_even, d_odd = 0.0, 0.0, 0.0, 0.0
        basis = np.empty((_MARCH_TERMS, 2) + z0.shape, dtype=complex)
        for k, y in enumerate(_taylor_terms(*np.eye(2)[:, :, None, None], p0, p1, p2)):
            basis[k] = y
            if k % 2:
                odd, d_odd = odd + y, d_odd + k * y
            else:
                even, d_even = even + y, d_even + k * y
        t_w = even + sigma * odd                 # [0]: from w, [1]: from w'
        t_v = sigma * d_even + d_odd

        hops = np.arange(len(z0))[:, None]
        node = np.maximum(np.where(outward, hops, n_end - hops), 0)    # after each hop
        src = node[:-1]
        mats = np.where((hops[:-1] >= n_end)[:, None, None], np.eye(2)[:, :, None],
                        np.stack([t_w[:, src, cols], t_v[:, src, cols]]).transpose(2, 0, 1, 3))
        path = np.empty((len(z0), 2, count), dtype=complex)
        path[0] = np.where(outward, start.T, end.T)
        for j, m in enumerate(mats):
            path[j + 1] = (m * path[j]).sum(axis=1)
        # node n was reached after n hops outward, n_end - n inward
        w, v = path[node, 0, cols], path[node, 1, cols]

        far = np.where(outward, w[n_end, cols], w[0, cols])
        ref = np.where(outward, end[:, 0], start[:, 0])
        # off the rays, where |D| falls by F the other solution grows by about F
        # and the error by F^2, unseen at the far end if |D| rises again; on the
        # rays the far end alone holds the march to 1e-10 (the ray tests)
        mag = np.abs(w)
        peak = np.where(outward, np.maximum.accumulate(mag, axis=0),
                        np.maximum.accumulate(mag[::-1], axis=0)[::-1])
        decline = np.max(np.where(mag > 0.0, peak / mag, 1.0), axis=0)
        steep = (decline > _MARCH_DECLINE) & ~np.isin(direction, _RAYS)
        ok = (np.abs(far - ref) <= _MARCH_GUARD * np.abs(ref)) & ~steep
        for c in np.flatnonzero(~ok):
            m = n_end[c]
            w[:m + 1, c], v[:m + 1, c] = _two_point(
                (even + odd)[:, :m, c], (d_even + d_odd)[:, :m, c], np.stack([start[c], end[c]]))

    return basis[:, 0] * w + basis[:, 1] * v


def _dv_march(orders: np.ndarray, rg: np.ndarray, order_id: np.ndarray, z: np.ndarray,
              ray: np.ndarray) -> np.ndarray:
    """D_nu(z) for 0 < |z| < R_in(nu), Im z >= 0, one march per (order, direction).

    Point i has the order orders[order_id[i]], whose _recip_gamma_table column
    is rg[:, order_id[i]].  A point flagged in ray marches along its anti-Stokes
    ray, any other point along its own arg z.  Each value is formed elementwise,
    so it does not depend on the other points of the call beyond the last digit.
    """
    out = np.empty_like(z)
    unit = np.where(ray, _RAYS[(z.real < 0.0).astype(int)], np.exp(1j * np.angle(z)))
    dirs, dir_idx = np.unique(unit, return_inverse=True)
    n_dir = len(dirs)
    keys, march_idx = np.unique(n_dir * order_id + dir_idx, return_inverse=True)
    for first in range(0, len(keys), _MARCH_BATCH):
        batch = keys[first:first + _MARCH_BATCH]
        march_ids = batch // n_dir
        table = _ray_march(orders[march_ids], dirs[batch % n_dir], rg[:, march_ids])
        sel = np.flatnonzero((march_idx >= first) & (march_idx < first + len(batch)))
        zg = z[sel]
        node = np.rint(np.abs(zg) / _MARCH_STEP).astype(int)
        s = zg / (_MARCH_STEP * dirs[dir_idx[sel]]) - node
        coeffs = table.reshape(_MARCH_TERMS, -1)[:, node * len(batch) + march_idx[sel] - first]
        val = coeffs[-1]
        for row in coeffs[-2::-1]:
            val = val * s + row
        out[sel] = val
    return out


def parabolic_cylinder_d(nu, z):
    """Weber function D_nu(z) for complex order and argument.

    Orders in the box -6 <= Re nu <= 8, |Im nu| <= 20 are served at every z;
    on the anti-Stokes rays |arg z| = pi/4, 3pi/4 and at z = 0, where real-x
    continuum states put their arguments, every |nu| <= 40 is.  Any other
    order raises RegionError before anything is computed.  z = 0 takes the
    closed form and |z| >= R_in = sqrt(16 (|nu| + 4)) the asymptotic series;
    in between, the Weber equation is Taylor marched along the direction of
    z, and where the march fails its checks the same lattice is solved as a
    two-point problem.  Relative accuracy about 1e-8 or better for |z| <= 20
    (about 1e-10 on the rays).  NonConvergentError where the series or the
    two-point solve misses its check, or a value leaves the float range;
    ValueError, before any arithmetic, for a non-finite order or argument.

    z and nu may be scalars or numpy arrays that broadcast against each
    other; an array of orders against a grid of arguments evaluates the
    whole family in one call.  Returns a complex scalar when both are
    scalars, otherwise an array of the broadcast shape.  Each pair is reduced
    to the upper half plane (Im z >= 0; at z = 0, Im nu >= 0) through
    D_conj(nu)(conj z) = conj D_nu(z), so the symmetry holds bit for bit.
    """
    nu_arr = np.asarray(nu, dtype=complex)
    z_arr = np.asarray(z, dtype=complex)
    shape = np.broadcast_shapes(nu_arr.shape, z_arr.shape)
    nus = np.broadcast_to(nu_arr, shape).ravel()
    zs = np.broadcast_to(z_arr, shape).ravel()
    for name, flat in (("order nu", nus), ("argument z", zs)):
        if not np.isfinite(flat).all():
            raise ValueError(f"parabolic_cylinder_d: {name} must be finite")

    flip = (zs.imag < 0.0) | ((zs == 0.0) & (nus.imag < 0.0))
    zc = np.where(flip, zs.conj(), zs)
    nc = np.where(flip, nus.conj(), nus)
    r = np.abs(zc)
    ray = np.abs(np.abs(zc.real) - zc.imag) <= _RAY_TOL * r       # z = 0 included
    boxed = (nc.real >= _ORDER_RE_MIN) & (nc.real <= _ORDER_RE_MAX) \
        & (np.abs(nc.imag) <= _ORDER_IM_MAX)
    outside = ~(boxed | (ray & (np.abs(nc) <= _RAY_ORDER_MAX)))
    if np.any(outside):
        raise RegionError(
            f"parabolic_cylinder_d: order {complex(nus[outside][0])} outside "
            f"{_ORDER_RE_MIN:g} <= Re nu <= {_ORDER_RE_MAX:g}, |Im nu| <= {_ORDER_IM_MAX:g} "
            f"(|nu| <= {_RAY_ORDER_MAX:g} on the anti-Stokes rays)")

    at_zero = r == 0.0
    inner = ~at_zero
    inner[inner] = r[inner] < _MARCH_STEP * _march_nodes(nc[inner])
    beyond = ~(at_zero | inner)
    orders, order_id = np.unique(nc, return_inverse=True)
    rg = _recip_gamma_table(orders)
    out = np.zeros_like(zc)
    if np.any(at_zero):
        out[at_zero] = _dv_at_zero(nc[at_zero], rg[:, order_id[at_zero]])[0]
    if np.any(beyond):
        out[beyond], err = _dv_asymptotic(nc[beyond], zc[beyond], rg[2, order_id[beyond]])
        if not np.all(err <= _ASYMPTOTIC_TOL):
            raise NonConvergentError("parabolic_cylinder_d: tail series failed beyond R_in")
    out[inner] = _dv_march(orders, rg, order_id[inner], zc[inner], ray[inner])
    out = np.where(flip, out.conj(), out)
    if not np.all(np.isfinite(out)):
        raise NonConvergentError("parabolic_cylinder_d: value outside the float range")
    return complex(out[0]) if shape == () else out.reshape(shape)
