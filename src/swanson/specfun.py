"""Special-function backbone: complex Hermite polynomials, log-gamma, Weber
parabolic cylinder D, and Gauss-Hermite quadrature.

Only what the spectral construction needs is implemented, at double precision.
The parabolic cylinder function is the hard case: it is needed at complex
order along rotated rays where neither a pure Taylor nor a pure asymptotic
regime suffices.  On the anti-Stokes rays |arg z| = pi/4, 3pi/4, where every
real-x continuum state puts its argument, it is computed by Taylor marching
of the Weber equation, vectorised over an array of orders.  Elsewhere a
three-way dispatch serves it: Kummer series in extended precision,
sector-exact asymptotics, and mpmath for the remaining off-ray
order/argument middle zone.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError

__all__ = [
    "QuadratureRule",
    "hermite",
    "hermite_coefficients",
    "log_gamma",
    "recip_gamma",
    "gauss_hermite",
    "parabolic_cylinder_d",
]

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Hermite polynomials (physicists' convention), complex argument
# ---------------------------------------------------------------------------

def hermite(n: int, z):
    """H_n(z) by the three-term recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1}.

    Accepts scalars or numpy arrays; exact for polynomial degree (up to
    floating-point rounding in the coefficients).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    z = np.asarray(z, dtype=complex)
    h_prev = np.ones_like(z)
    if n == 0:
        return h_prev if h_prev.ndim else complex(h_prev)
    h = 2.0 * z
    for k in range(1, n):
        h, h_prev = 2.0 * z * h - 2.0 * k * h_prev, h
    return h if h.ndim else complex(h)


def hermite_coefficients(n: int) -> np.ndarray:
    """Power-series coefficients of H_n, ascending order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    basis = np.zeros(n + 1)
    basis[n] = 1.0
    return np.polynomial.hermite.herm2poly(basis)


# ---------------------------------------------------------------------------
# Complex log-gamma (Lanczos) and reciprocal gamma
# ---------------------------------------------------------------------------

# Godfrey's Lanczos coefficients, g = 607/128, 15 terms: ~1e-14 relative
# accuracy on the half-plane Re z >= 0.5.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
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
)


def _log_gamma_lanczos(z: complex) -> complex:
    # valid for Re z >= 0.5
    zm1 = z - 1.0
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (zm1 + 0.5) * cmath.log(t) - t + cmath.log(s)


def log_gamma(z) -> complex:
    """Principal-branch log Gamma(z) for complex z.

    The branch is the standard analytic continuation satisfying
    log_gamma(z) = log_gamma(z+1) - Log(z); raises PoleError at
    z = 0, -1, -2, ...
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError(f"log_gamma pole at z = {z.real:g}")
    if z.real >= 0.5:
        return _log_gamma_lanczos(z)
    # shift into the Lanczos half-plane; this recursion defines the branch
    shift = int(math.ceil(0.5 - z.real))
    acc = 0.0 + 0.0j
    for k in range(shift):
        acc += cmath.log(z + k)
    return _log_gamma_lanczos(z + shift) - acc


def recip_gamma(z) -> complex:
    """1/Gamma(z); entire, exactly zero at non-positive integers."""
    z = complex(z)
    if z.real >= 0.5:
        return cmath.exp(-_log_gamma_lanczos(z))
    shift = int(math.ceil(0.5 - z.real))
    prod = 1.0 + 0.0j
    for k in range(shift):
        prod *= z + k
    return prod * cmath.exp(-_log_gamma_lanczos(z + shift))


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for the weight exp(-x^2) on the real line."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@functools.lru_cache(maxsize=64)
def gauss_hermite(n: int) -> QuadratureRule:
    """Gauss-Hermite rule of order n; exact for polynomials of degree 2n-1."""
    if not 1 <= n <= 500:
        raise ValueError("order must be between 1 and 500")
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

_TAYLOR_RADIUS = 6.8       # |z| below which the Kummer series is used
_TAYLOR_ORDER_MAX = 8.0    # beyond this |nu| the Kummer series loses digits
_ASYMPTOTIC_MARGIN = 8.0   # |z|^2 >= margin*(|order|+4) for the tail series
_ASYMPTOTIC_TOL = 1e-10


_LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)


def _mp_to_clongdouble(x) -> np.clongdouble:
    """mpmath mpc -> clongdouble via a double-double split of each part."""
    re_hi = float(x.real)
    im_hi = float(x.imag)
    re_lo = float(x.real - re_hi)
    im_lo = float(x.imag - im_hi)
    return np.clongdouble(re_hi) + np.clongdouble(re_lo) \
        + 1j * (np.clongdouble(im_hi) + np.clongdouble(im_lo))


@functools.lru_cache(maxsize=256)
def _dv_taylor_prefactors(nu: complex) -> tuple[np.clongdouble, np.clongdouble]:
    """sqrt(pi)/Gamma((1-nu)/2) and sqrt(2 pi)/Gamma(-nu/2) beyond double accuracy.

    The Kummer bracket can cancel by many orders of magnitude, so the scalar
    prefactors must carry more digits than the double-precision result.
    """
    import mpmath

    with mpmath.workdps(30):
        c1 = mpmath.sqrt(mpmath.pi) * mpmath.rgamma((1 - mpmath.mpc(nu)) / 2)
        c2 = mpmath.sqrt(2 * mpmath.pi) * mpmath.rgamma(-mpmath.mpc(nu) / 2)
        return _mp_to_clongdouble(c1), _mp_to_clongdouble(c2)


def _kummer_series(a: complex, b: complex, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M(a, b, w) by Taylor series in extended precision.

    Returns (M, max_term_magnitude); the latter bounds the rounding noise
    floor eps * max_term left in the sum.
    """
    wl = w.astype(np.clongdouble)
    term = np.ones_like(wl)
    total = np.ones_like(wl)
    peak = np.ones(w.shape, dtype=np.longdouble)
    aa = np.clongdouble(a)
    bb = np.clongdouble(b)
    for k in range(400):
        term = term * ((aa + k) / ((bb + k) * (k + 1))) * wl
        total = total + term
        mag = np.abs(term)
        peak = np.maximum(peak, mag)
        if np.all(mag <= 1e-26 * np.abs(total)):
            break
    return total, peak


def _dv_taylor(nu: complex, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kummer representation

        D_nu(z) = 2^(nu/2) e^(-z^2/4) [ sqrt(pi)/Gamma((1-nu)/2) M(-nu/2, 1/2, z^2/2)
                  - sqrt(2 pi) z /Gamma(-nu/2) M((1-nu)/2, 3/2, z^2/2) ]

    assembled in extended precision.  Returns (value, ok); ok is False where
    cancellation between the two parts (or inside the series) leaves fewer
    than ~9 reliable digits.
    """
    zl = z.astype(np.clongdouble)
    w = 0.5 * zl * zl
    c1, c2 = _dv_taylor_prefactors(nu)
    m1, peak1 = _kummer_series(-0.5 * nu, 0.5, w)
    m2, peak2 = _kummer_series(0.5 * (1.0 - nu), 1.5, w)
    part1 = c1 * m1
    part2 = c2 * zl * m2
    bracket = part1 - part2
    scale = np.clongdouble(cmath.exp(0.5 * nu * math.log(2.0)))
    val = scale * np.exp(-0.5 * w) * bracket
    noise = _LONGDOUBLE_EPS * (
        abs(complex(c1)) * peak1 + abs(complex(c2)) * np.abs(zl) * peak2
        + np.abs(part1) + np.abs(part2)
    )
    ok = noise <= 2e-9 * np.abs(bracket)
    return val.astype(complex), ok


def _dv_tail_series(order, z: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """S(order, z) with D_order(z) ~ exp(-z^2/4) z^order S as |z| -> inf.

    order is a scalar or an array shaped like z.  Each entry adds terms until
    one falls to tol (that term included) or they start to grow, so its sum
    does not depend on the other entries of the call; returns (S, magnitude
    of the smallest term seen), which is <= tol where the entry converged and
    bounds the truncation error elsewhere.
    """
    inv = 1.0 / (2.0 * z * z)
    term = np.ones_like(z)
    total = np.ones_like(z)
    best = np.full(z.shape, np.inf)
    done = np.zeros(z.shape, dtype=bool)
    for k in range(60):
        # out of place: numpy rounds an in-place complex product of a
        # one-element array differently from the same product in a longer one
        term = term * (-(-order + 2 * k) * (-order + 2 * k + 1) / (k + 1.0)) * inv
        mag = np.abs(term)
        done |= mag > best          # past the smallest term: stop accumulating
        np.minimum(best, mag, out=best)
        np.add(total, term, out=total, where=~done)
        converged = best <= tol
        if converged.all():
            break
        done |= converged
    return total, best


def _dv_dominant(order, z: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-z^2/4) z^order S(order, z); correct alone for |arg z| <= pi/2."""
    s, err = _dv_tail_series(order, z, tol)
    return np.exp(-0.25 * z * z + order * np.log(z)) * s, err


def _dv_asymptotic(nu, z: np.ndarray,
                   tol: float = _ASYMPTOTIC_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Large-|z| evaluation valid in every sector; nu is a scalar or shaped like z.

    For |arg z| <= pi/2 the recessive component of D_nu vanishes and the
    dominant series stands alone.  Elsewhere the exact connection

        D_nu(z) = e^{+- i pi nu} D_nu(-z)
                  + sqrt(2 pi)/Gamma(-nu) e^{+- i pi (nu+1)/2} D_{-nu-1}(-+ i z)

    (upper signs for Im z >= 0) maps both evaluations into that sector.
    Returns (value, smallest tail term), the latter bounding the truncation
    error relative to the series.
    """
    nu = np.broadcast_to(np.asarray(nu, dtype=complex), z.shape)
    val = np.empty_like(z)
    err = np.zeros(z.shape)
    arg = np.angle(z)
    near = np.abs(arg) <= 0.5 * math.pi
    if np.any(near):
        val[near], err[near] = _dv_dominant(nu[near], z[near], tol)
    far = ~near
    if np.any(far):
        zf, nf = z[far], nu[far]
        sgn = np.where(np.angle(zf) >= 0.0, 1.0, -1.0)
        v1, e1 = _dv_dominant(nf, -zf, tol)
        v2, e2 = _dv_dominant(-nf - 1.0, -1j * sgn * zf, tol)
        orders, inverse = np.unique(nf, return_inverse=True)
        c2 = SQRT_2PI * np.array([recip_gamma(-o) for o in orders])[inverse]
        val[far] = np.exp(1j * math.pi * nf * sgn) * v1 \
            + c2 * np.exp(1j * math.pi * 0.5 * (nf + 1.0) * sgn) * v2
        err[far] = np.maximum(e1, e2)
    return val, err


def _dv_mpmath(nu: complex, z: np.ndarray) -> np.ndarray:
    import mpmath

    flat = z.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for i, zz in enumerate(flat):
        out[i] = complex(mpmath.pcfd(mpmath.mpc(nu), mpmath.mpc(zz)))
    return out.reshape(z.shape)


def _dv_dispatch(nu: complex, z: np.ndarray) -> np.ndarray:
    """D_nu(z) for one order at any arguments (1-D array): Kummer series,
    asymptotics, or mpmath for the middle zone."""
    out = np.empty_like(z)
    order_scale = max(abs(nu), abs(nu + 1.0))
    small = np.abs(z) <= _TAYLOR_RADIUS
    if np.any(small):
        if order_scale > _TAYLOR_ORDER_MAX:
            out[small] = _dv_mpmath(nu, z[small])
        else:
            v, ok = _dv_taylor(nu, z[small])
            if not np.all(ok):
                v[~ok] = _dv_mpmath(nu, z[small][~ok])
            out[small] = v

    large = ~small
    if np.any(large):
        zl = z[large]
        vals = np.empty_like(zl)
        ok = np.zeros(zl.shape, dtype=bool)
        maybe = np.abs(zl) ** 2 >= _ASYMPTOTIC_MARGIN * (order_scale + 4.0)
        if np.any(maybe):
            v, err = _dv_asymptotic(nu, zl[maybe])
            o = err <= _ASYMPTOTIC_TOL
            vals[maybe] = np.where(o, v, 0.0)
            ok[maybe] = o
        need_mp = ~ok
        if np.any(need_mp):
            vals[need_mp] = _dv_mpmath(nu, zl[need_mp])
        out[large] = vals
    return out


# Taylor march on the anti-Stokes rays |arg z| = pi/4, 3pi/4.  There e^{-z^2/4}
# has modulus one, so D_nu is algebraic beyond the turning points and the
# Weber equation w'' = (z^2/4 - nu - 1/2) w can be integrated along the ray
# from either end: from z = 0 (closed form) or from R_in e^{i theta} (tail
# series at full double precision).  Marching toward the end where |D| is
# larger is stable; the other end checks the march.  The values near each
# lattice node come from the node's Taylor polynomial, summed by Horner's rule
# pair by pair (Temme 2000; Gil, Segura and Temme, ACM TOMS 32, 2006).

_MARCH_STEP = 0.25         # lattice spacing h along a ray
_MARCH_TERMS = 40          # Taylor terms kept at each lattice node
_MARCH_ORDER_MAX = 40.0    # larger |nu| stays with the general dispatch
_MARCH_GUARD = 1e-10       # marched vs independent far-end value, relative
_RAY_SERIES_TOL = 1e-16    # tail terms summed at and beyond R_in
_ENDPOINT_ACCEPT = 1e-14   # smallest tail term accepted at R_in
_RAY_TOL = 1e-9            # relative distance from a ray still served
_MARCH_BATCH = 128         # marches per table, bounding its memory to ~7 MB
_RAYS = np.array([cmath.exp(0.25j * math.pi), cmath.exp(0.75j * math.pi)])


def _march_nodes(nu: np.ndarray) -> np.ndarray:
    """Lattice index n_end of R_in(nu) = n_end h >= sqrt(16 (|nu| + 4))."""
    return np.ceil(np.sqrt(16.0 * (np.abs(nu) + 4.0)) / _MARCH_STEP).astype(int)


def _dv_at_zero(nu: complex) -> tuple[complex, complex]:
    """D_nu(0) and D_nu'(0) in closed form."""
    c = SQRT_PI * cmath.exp(0.5 * nu * math.log(2.0))
    return c * recip_gamma(0.5 * (1.0 - nu)), -c * math.sqrt(2.0) * recip_gamma(-0.5 * nu)


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


def _ray_march(nu: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled Taylor coefficients of D_nu about the nodes z_n = n h e_theta.

    nu and theta (ray index into _RAYS) are 1-D, one entry per march.
    Returns (table, ok): table[k, n, c] is the coefficient of s^k of
    D_nu(z_n + s h e_theta) for n <= n_end(nu); ok is False where an end
    value could not be formed or the guard failed.  Each march is computed
    elementwise, so it does not depend on the other entries.
    """
    count = len(nu)
    cols = np.arange(count)
    n_end = _march_nodes(nu)
    step = _MARCH_STEP * _RAYS[theta]
    z0 = np.arange(n_end.max() + 1)[:, None] * step
    s2 = step * step
    p0 = (0.25 * z0 * z0 - (nu + 0.5)) * s2
    p1 = 0.5 * z0 * step * s2
    p2 = 0.25 * s2 * s2

    start = np.array([_dv_at_zero(complex(v)) for v in nu]).reshape(count, 2)
    z_end = n_end * step
    d_pair, err = _dv_asymptotic(np.concatenate([nu, nu + 1.0]), np.tile(z_end, 2),
                                 _RAY_SERIES_TOL)
    d_end, d_next = d_pair[:count], d_pair[count:]
    with np.errstate(all="ignore"):
        end = np.stack([d_end, 0.5 * z_end * d_end - d_next], axis=1)
        outward = _march_outward(d_end, start[:, 0])
        sigma = np.where(outward, 1.0, -1.0)

        # one-step transfer along the march direction, from the fundamental
        # solutions (w, w') = (1, 0) and (0, 1) at every node
        unit = np.eye(2)[:, :, None, None]
        even, odd, d_even, d_odd = 0.0, 0.0, 0.0, 0.0
        for k, y in enumerate(_taylor_terms(unit[:, 0], unit[:, 1], p0, p1, p2)):
            if k % 2:
                odd, d_odd = odd + y, d_odd + k * y
            else:
                even, d_even = even + y, d_even + k * y
        t_w = even + sigma * odd                 # [0]: from w, [1]: from w'
        t_v = sigma * d_even + d_odd

        w = np.zeros(z0.shape, dtype=complex)
        v = np.zeros(z0.shape, dtype=complex)
        first = np.where(outward, 0, n_end)
        w[first, cols] = np.where(outward, start[:, 0], end[:, 0])
        v[first, cols] = np.where(outward, start[:, 1], end[:, 1]) * step
        for j in range(n_end.max()):
            live = j < n_end
            c = cols[live]
            src = np.where(outward, j, n_end - j)[live]
            dst = src + sigma[live].astype(int)
            ws, vs = w[src, c], v[src, c]
            w[dst, c] = t_w[0, src, c] * ws + t_w[1, src, c] * vs
            v[dst, c] = t_v[0, src, c] * ws + t_v[1, src, c] * vs

        far = np.where(outward, w[n_end, cols], w[0, cols])
        ref = np.where(outward, end[:, 0], start[:, 0])
        ok = (np.abs(far - ref) <= _MARCH_GUARD * np.abs(ref)) \
            & (np.maximum(err[:count], err[count:]) <= _ENDPOINT_ACCEPT)
        table = np.empty((_MARCH_TERMS,) + w.shape, dtype=complex)
        for k, y in enumerate(_taylor_terms(w, v, p0, p1, p2)):
            table[k] = y
    return table, ok


def _dv_rays(nu: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D_nu(z) for the pairs (nu, z) on the anti-Stokes rays or at z = 0.

    Below R_in the march serves the pair, beyond it the tail series does (as
    the general dispatch would, but for all orders at once).  Returns
    (values, served); pairs off the rays, at too large an order, or whose
    march or series failed are left to the general dispatch.  Each pair is
    reduced to the upper half plane (Im z >= 0; at z = 0, Im nu >= 0) through
    D_conj(nu)(conj z) = conj D_nu(z), so the symmetry holds bit for bit, and
    each value is formed elementwise, so it does not depend on the other
    pairs of the call beyond the last digit.
    """
    flip = (z.imag < 0.0) | ((z == 0.0) & (nu.imag < 0.0))
    zc = np.where(flip, z.conj(), z)
    nc = np.where(flip, nu.conj(), nu)
    r = np.abs(zc)
    out = np.zeros_like(z)
    served = np.abs(nc) <= _MARCH_ORDER_MAX

    at_zero = served & (r == 0.0)
    for order in np.unique(nc[at_zero]):
        out[at_zero & (nc == order)] = _dv_at_zero(complex(order))[0]

    ray = served & (r > 0.0) & (np.abs(np.abs(zc.real) - zc.imag) <= _RAY_TOL * r)
    on = ray.copy()
    on[ray] = r[ray] < _MARCH_STEP * _march_nodes(nc[ray])
    beyond = ray & ~on
    if np.any(beyond):
        out[beyond], err = _dv_asymptotic(nc[beyond], zc[beyond], _RAY_SERIES_TOL)
        beyond[beyond] = err <= _ASYMPTOTIC_TOL
    idx = np.flatnonzero(on)
    theta = (zc.real[idx] < 0.0).astype(int)
    orders, order_idx = np.unique(nc[idx], return_inverse=True)
    keys, march_idx = np.unique(2 * order_idx + theta, return_inverse=True)
    for first in range(0, len(keys), _MARCH_BATCH):
        batch = keys[first:first + _MARCH_BATCH]
        table, ok = _ray_march(orders[batch // 2], batch % 2)
        sel = np.flatnonzero((march_idx >= first) & (march_idx < first + len(batch)))
        passed = ok[march_idx[sel] - first]
        on[idx[sel[~passed]]] = False       # left to the general dispatch
        sel = sel[passed]
        zg = zc[idx[sel]]
        node = np.rint(np.abs(zg) / _MARCH_STEP).astype(int)
        s = zg / (_MARCH_STEP * _RAYS[theta[sel]]) - node
        coeffs = table.reshape(_MARCH_TERMS, -1)
        flat = node * len(batch) + march_idx[sel] - first
        val = coeffs[-1, flat]
        for k in range(_MARCH_TERMS - 2, -1, -1):
            val = val * s + coeffs[k, flat]
        out[idx[sel]] = val
    return np.where(flip, out.conj(), out), at_zero | on | beyond


def parabolic_cylinder_d(nu, z):
    """Weber function D_nu(z) for complex order and argument.

    Arguments on the anti-Stokes rays |arg z| = pi/4, 3pi/4 (and z = 0) with
    |z| below R_in = sqrt(16 (|nu| + 4)) are served by Taylor marching of the
    Weber equation along the ray; this is where real-x continuum states put
    their arguments.  Elsewhere the order/argument plane is split between a
    Kummer-series representation (moderate |z| and order, summed in extended
    precision), sector-exact asymptotics (large |z| relative to the order),
    and an arbitrary-precision fallback for the remaining off-ray middle
    zone.  Relative accuracy ~1e-8 or better on |z| <= 20, |Im nu| <= 20
    (~1e-10 on the rays).

    z and nu may be scalars or numpy arrays that broadcast against each
    other; an array of orders against a grid of arguments evaluates the
    whole family in one call.  Returns a complex scalar when both are
    scalars, otherwise an array of the broadcast shape.
    """
    nu_arr = np.asarray(nu, dtype=complex)
    z_arr = np.asarray(z, dtype=complex)
    shape = np.broadcast_shapes(nu_arr.shape, z_arr.shape)
    nus = np.broadcast_to(nu_arr, shape).ravel()
    zs = np.broadcast_to(z_arr, shape).ravel()

    out, served = _dv_rays(nus, zs)
    rest = ~served
    if np.any(rest):
        rest_idx = np.flatnonzero(rest)
        orders, inverse = np.unique(nus[rest_idx], return_inverse=True)
        for i, order in enumerate(orders):
            sel = rest_idx[inverse == i]
            out[sel] = _dv_dispatch(complex(order), zs[sel])

    if not np.all(np.isfinite(out)):
        raise OverflowError("parabolic_cylinder_d overflow; argument outside the supported range")
    return complex(out[0]) if shape == () else out.reshape(shape)
