"""Seeded job lists for the benchmark workloads, with the output check of each job.

A job is one top-level call into the public ``swanson`` API (an expectation
series counts as one job: the 101 ``evolve_expectation`` calls that one
``swanson evolve`` invocation makes).  Every input is drawn here from the
workload seed; the library only ever sees the generated parameter points,
energies and coefficients.

Checks run outside the timed region.  A check returns None when the output is
acceptable and a one-line reason otherwise.  ``known_defect`` names the
documented defect that a job's input is expected to hit, so a failure there is
reported as known rather than as a new regression.
"""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import swanson as S
from swanson.core import RegionLabel as L

# ---------------------------------------------------------------------------
# tolerances (the ones the acceptance and continuum tests use)
# ---------------------------------------------------------------------------

GRAM_TOL_REAL = 1e-10      # Regions I/III
GRAM_TOL_BARRIER = 1e-6    # Regions II/IV (rotated contours)
RECONSTRUCT_TOL = 1e-6
PROBE_TOL = 0.05           # centred |v - 1| and off-support |v|
PROBE_PROFILE_TOL = 0.02   # |v - exp(-pi eps/2)| at a nonzero reference energy
SWEEP_TOL = 1e-3           # final limit-sweep distance
ORACLE_RTOL = 1e-8         # continuum values against mpmath.pcfd
NORM_TOL = 1e-10           # metric norm of a normalized state

DEFECT_DERIVE = "derive disagrees with classify within the boundary tolerance"
DEFECT_RECONSTRUCT = "reconstruct returns NaN from n_max 90 (hermgauss order >= 400)"

SERIES_TIMES = np.linspace(0.0, 10.0, 101)
CONTINUUM_KINDS = ("phi", "eta", "phi_tilde", "psi_bar")
# Reduced energies E/(hbar |Omega|) past the mpmath cliff at |order| = 8, and below
# it.  The bands are narrow because the Weber cost changes with the order.
CLIFF_EPS = (9.0, 9.2)
KUMMER_EPS = (2.4, 2.6)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: str | None = None
    repeat: int = 1     # back-to-back calls per timing, for jobs near the clock's resolution


# classify and derive take about a microsecond and one clock read costs 0.1-0.2 us
# on the baseline machine (2-vCPU x86-64 VM), so they are timed over this many
# identical calls
MICRO_REPEAT = 16


@dataclass
class Workload:
    jobs: list[Job]
    warmup: list[Job]


# ---------------------------------------------------------------------------
# seeded parameter points
# ---------------------------------------------------------------------------

# (alpha/omega, beta/omega) boxes well inside each region
_REGION_BOX = {
    L.REGION_I: ((-0.5, 0.5), (-0.5, 0.5)),
    L.REGION_II: ((-2.5, -1.2), (-0.8, -0.3)),
    L.REGION_III: ((1.6, 2.4), (-0.6, -0.2)),
    L.REGION_IV: ((0.6, 1.5), (0.6, 1.5)),
}


def region_point(rng: random.Random, region: L) -> S.ModelParams:
    """A point at least 0.2 (gap) and 0.3 (Omega^2) from every boundary, in units of omega."""
    (alo, ahi), (blo, bhi) = _REGION_BOX[region]
    while True:
        w, a, b = rng.uniform(0.5, 2.0), rng.uniform(alo, ahi), rng.uniform(blo, bhi)
        if abs(1.0 - a - b) >= 0.2 and abs(1.0 - 4.0 * a * b) >= 0.3:
            p = S.ModelParams(w, w * a, w * b)
            if S.classify(p) is region:
                return p


def expansion_point(rng: random.Random) -> S.ModelParams:
    """A Region I point where 40 modes resolve a unit-width Gaussian to better than 1e-6.

    The truncation error grows as the Gaussian width sigma falls below 1 and as
    |c_upsilon| grows, so the point is drawn with sigma in [1, 1.4] and
    |c_upsilon| <= 0.3.
    """
    while True:
        p = region_point(rng, L.REGION_I)
        d = S.derive(p)
        if 1.0 <= d.sigma <= 1.4 and abs(d.upsilon_coeff) <= 0.3:
            return p


def omega_scale(p: S.ModelParams) -> float:
    return p.hbar * abs(S.derive(p).omega_cap)


def reduced_sign(p: S.ModelParams) -> float:
    """Region IV mirrors the energy axis: reduced energy = sign * E/(hbar |Omega|)."""
    return 1.0 if S.classify(p) is L.REGION_II else -1.0


def _fmt(p: S.ModelParams) -> str:
    return f"({p.omega:.4g},{p.alpha:.4g},{p.beta:.4g})"


# ---------------------------------------------------------------------------
# check helpers
# ---------------------------------------------------------------------------

def finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=complex))))


def check_gram(tol: float):
    def check(rep) -> str | None:
        if not finite(rep.matrix):
            return "gram matrix has non-finite entries"
        dev = max(rep.max_offdiag, rep.max_diag_err)
        return None if dev <= tol else f"gram deviation {dev:.2e} > {tol:g}"
    return check


def check_sup_error(tol: float):
    def check(out) -> str | None:
        coeffs, err = out
        if not finite(coeffs) or not math.isfinite(err):
            return "non-finite coefficients or error"
        return None if err <= tol else f"sup error {err:.2e} > {tol:g}"
    return check


def check_sweep(rep) -> str | None:
    if not finite(rep.distances) or not finite(rep.energies):
        return "non-finite sweep report"
    d = float(rep.distances[-1])
    return None if d <= SWEEP_TOL else f"final distance {d:.2e} > {SWEEP_TOL:g}"


def check_finite(out) -> str | None:
    return None if finite(out) else "non-finite output"


def check_probe(expected: complex, tol: float):
    def check(v) -> str | None:
        if not finite(v):
            return "non-finite probe value"
        dev = abs(v - expected)
        return None if dev <= tol else f"probe {v:.4f} deviates {dev:.3f} from {expected:.4f}"
    return check


def _continuum_oracle(state, x: float, p: S.ModelParams) -> complex:
    """The CylinderState closed form with mpmath's gamma and pcfd at 30 digits."""
    import mpmath

    g, nu, a, norm = state.gauss, state.nu, state.arg_scale, state.norm
    if state.conjugated:
        g, nu, a, norm = (complex(np.conjugate(v)) for v in (g, nu, a, norm))
    slope = -a if state.side == "+" else a
    with mpmath.workdps(30):
        val = (mpmath.mpc(norm) * mpmath.gamma(mpmath.mpc(nu) + 1)
               * mpmath.exp(mpmath.mpc(g) * x * x / (2 * p.b0 ** 2))
               * mpmath.pcfd(-mpmath.mpc(nu) - 1, mpmath.mpc(slope) * x))
    return complex(val)


def check_continuum(p: S.ModelParams, grid: np.ndarray, picks: list[int]):
    def check(out) -> str | None:
        state, vals = out
        if not finite(vals):
            return "non-finite continuum values"
        for i in picks:
            ref = _continuum_oracle(state, float(grid[i]), p)
            rel = abs(vals[i] - ref) / abs(ref)
            if not rel <= ORACLE_RTOL:
                return f"value at x={grid[i]:.3f} off the mpmath oracle by {rel:.1e}"
        return None
    return check


def fingerprint(obj) -> bytes:
    """Digest of a job output, to compare repeated passes bit for bit."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(f"{o.dtype}{o.shape}".encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            h.update(type(o).__name__.encode())
            for f in dataclasses.fields(o):
                feed(getattr(o, f.name))
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for item in o:
                feed(item)
            h.update(b"]")
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.digest()


# ---------------------------------------------------------------------------
# oscillator: large Hermite bases in Regions I and III
# ---------------------------------------------------------------------------

def _gaussian_target(rng: random.Random):
    center, width = rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.2)

    def target(x):
        return np.exp(-((x - center) / width) ** 2)

    return target


def _gram_job(p: S.ModelParams, n_max: int, which: str, tol: float) -> Job:
    return Job(f"gram[{which},n={n_max}]{_fmt(p)}", lambda: S.gram(p, n_max, which),
               check_gram(tol))


def _series_job(p: S.ModelParams, coeffs: list[complex], kind: S.ObservableKind) -> Job:
    def run():
        state = S.make_state(p, coeffs)
        return np.array([S.evolve_expectation(state, kind, p, float(t)) for t in SERIES_TIMES])

    def check(vals) -> str | None:
        if not finite(vals):
            return "non-finite expectation series"
        # U-Hermitian observables have real expectation values
        worst = float(np.max(np.abs(vals.imag) / (1.0 + np.abs(vals.real))))
        return None if worst <= 1e-9 else f"imaginary part {worst:.1e} in a real expectation"

    return Job(f"evolve_series[{kind.value},modes={len(coeffs)}]{_fmt(p)}", run, check)


def _make_state_job(p: S.ModelParams, coeffs: list[complex]) -> Job:
    def check(state) -> str | None:
        return None if finite(state.coeffs) and state.normalized else "bad state"
    return Job(f"make_state[modes={len(coeffs)}]{_fmt(p)}", lambda: S.make_state(p, coeffs), check)


def _metric_norm_job(p: S.ModelParams, coeffs: list[complex], t: float) -> Job:
    def check(v) -> str | None:
        return None if abs(v - 1.0) <= NORM_TOL else f"metric norm {v!r} != 1"

    return Job(f"metric_norm[modes={len(coeffs)},t={t:.3f}]{_fmt(p)}",
               lambda: S.metric_norm(S.make_state(p, coeffs), p, t), check)


def _coeffs(rng: random.Random, k: int) -> list[complex]:
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(k)]


def _boundary_sweep_job(rng: random.Random, n: int, branch: str) -> Job:
    a, b = rng.uniform(0.6, 0.9), rng.uniform(0.1, 0.3)
    return Job(f"sweep_to_boundary_i_iii[{branch},n={n}]({a:.4g},{b:.4g})",
               lambda: S.sweep_to_boundary_i_iii(a, b, n, branch, [10.0, 100.0, 1000.0]),
               check_sweep)


def _ep_sweep_job(rng: random.Random, n: int, side: str, branch: str = "+") -> Job:
    w, b = rng.uniform(0.8, 1.5), rng.uniform(-2.5, -1.0)
    return Job(f"sweep_to_ep[{side}{branch},n={n}]({w:.4g},{b:.4g})",
               lambda: S.sweep_to_ep(w, b, n, side, [0.1, 0.01, 0.001], branch),
               check_sweep)


OSCILLATOR_GRAM_NMAX = (2, 4, 8, 16, 24, 32)
OSCILLATOR_CLIFF_NMAX = 66   # > 64 distinct quadrature orders: past the LRU size


def oscillator(rng: random.Random) -> Workload:
    a_pt, b_pt = region_point(rng, L.REGION_I), region_point(rng, L.REGION_III)
    jobs = []
    for p in (a_pt, b_pt):
        jobs += [_gram_job(p, n, "right-left", GRAM_TOL_REAL) for n in OSCILLATOR_GRAM_NMAX]
        jobs += [_gram_job(p, n, "metric", GRAM_TOL_REAL) for n in (4, 8)]
    c_pt = region_point(rng, L.REGION_I)
    jobs += [_gram_job(c_pt, n, "right-left", GRAM_TOL_REAL) for n in (16, 24, 32)]
    jobs.append(_gram_job(a_pt, OSCILLATOR_CLIFF_NMAX, "right-left", GRAM_TOL_REAL))
    for p in (expansion_point(rng) for _ in range(5)):
        target = _gaussian_target(rng)
        jobs.append(Job(f"reconstruct[n=40]{_fmt(p)}",
                        lambda p=p, target=target: S.reconstruct(p, target, 40),
                        check_sup_error(RECONSTRUCT_TOL)))
    kinds = list(S.ObservableKind)
    for modes in range(2, 10):
        p = a_pt if modes % 2 == 0 else b_pt
        coeffs = _coeffs(rng, modes)
        jobs.append(_make_state_job(p, coeffs))
        jobs.append(_series_job(p, coeffs, kinds[modes % 4]))
        jobs.append(_metric_norm_job(p, coeffs, rng.uniform(0.0, 10.0)))
    for n in (0, 1):
        jobs.append(_boundary_sweep_job(rng, n, "plus"))
        jobs.append(_boundary_sweep_job(rng, n, "minus"))
        jobs.append(_ep_sweep_job(rng, n, "I"))

    warm_pt, warm_target = region_point(rng, L.REGION_I), _gaussian_target(rng)
    warmup = [_gram_job(warm_pt, 8, "right-left", GRAM_TOL_REAL),
              _gram_job(warm_pt, 4, "metric", GRAM_TOL_REAL),
              Job("reconstruct", lambda: S.reconstruct(warm_pt, warm_target, 8), check_finite),
              _series_job(warm_pt, _coeffs(rng, 2), S.ObservableKind.X),
              _ep_sweep_job(rng, 0, "I")]
    return Workload(jobs, warmup)


# ---------------------------------------------------------------------------
# barrier: Weber continuum, probes and resonances in Regions II and IV
# ---------------------------------------------------------------------------

def reduced_grid(p: S.ModelParams, points: int = 201) -> np.ndarray:
    """x grid covering |sigma x / b0| <= 6, so every point sees the same Weber zones."""
    return np.linspace(-6.0, 6.0, points) * p.b0 / S.derive(p).sigma


def _continuum_job(rng: random.Random, p: S.ModelParams, kind: str, side: str,
                   eps_range: tuple[float, float], points: int = 201) -> Job:
    eps = rng.uniform(*eps_range)
    energy = eps * omega_scale(p)
    grid = reduced_grid(p, points)
    picks = sorted(rng.sample(range(points), 3))

    def run():
        state = S.continuum_state(p, energy, side, kind)
        return state, S.evaluate(state, grid, p)

    return Job(f"continuum[{kind}{side},eps={eps:.3f}]{_fmt(p)}", run,
               check_continuum(p, grid, picks))


def _probe_jobs(rng: random.Random, p_centre: S.ModelParams, p_profile: S.ModelParams) -> list[Job]:
    jobs = []
    om = omega_scale(p_centre)
    jobs.append(Job(f"probe[centred]{_fmt(p_centre)}",
                    lambda: S.delta_normalization_probe(p_centre, 0.0, 0.2 * om),
                    check_probe(1.0, PROBE_TOL)))
    jobs.append(Job(f"probe[off-support]{_fmt(p_centre)}",
                    lambda: S.delta_normalization_probe(p_centre, 0.0, 0.2 * om, center=1.5 * om),
                    check_probe(0.0, PROBE_TOL)))
    om2 = omega_scale(p_profile)
    eps = rng.uniform(0.25, 1.0)
    expected = math.exp(-math.pi * reduced_sign(p_profile) * eps / 2.0)
    jobs.append(Job(f"probe[E0={eps:.3f}]{_fmt(p_profile)}",
                    lambda: S.delta_normalization_probe(p_profile, eps * om2, 0.2 * om2),
                    check_probe(expected, PROBE_PROFILE_TOL)))
    return jobs


def _pole_scan_job(p: S.ModelParams, n_scan: int) -> Job:
    expected = np.arange(n_scan + 1) + 0.5

    def check(rep) -> str | None:
        poles = rep.detected_poles
        if len(poles) != len(expected) or np.max(np.abs(poles - expected)) > 0.005:
            return f"poles {poles} not at n + 1/2"
        return None

    return Job(f"pole_scan[n={n_scan}]{_fmt(p)}", lambda: S.pole_scan(p, n_scan), check)


def _resonant_job(rng: random.Random, p: S.ModelParams, sector: str) -> Job:
    branch = "-" if sector == "minus" else "+"
    modes = sorted(rng.sample(range(5), 2))
    amps = [rng.uniform(0.5, 2.0) for _ in modes]
    expected = np.zeros(6, dtype=complex)
    expected[modes] = amps

    def run():
        target = [(c, S.stripped_discrete_function(p, n, branch)) for n, c in zip(modes, amps)]
        return S.resonant_expansion(p, target, 5, sector)

    def check(out) -> str | None:
        bad = check_sup_error(RECONSTRUCT_TOL)(out)
        if bad:
            return bad
        dev = float(np.max(np.abs(out[0] - expected)))
        return None if dev <= RECONSTRUCT_TOL else f"coefficients off by {dev:.1e}"

    return Job(f"resonant_expansion[{sector},modes={modes}]{_fmt(p)}", run, check)


def _evolve_sector_job(rng: random.Random, p: S.ModelParams) -> Job:
    minus, plus = _coeffs(rng, 2), _coeffs(rng, 3)
    t = rng.uniform(0.2, 1.0)
    grid = np.linspace(-6.0, 6.0, 201)

    def check(vals) -> str | None:
        if not finite(vals):
            return "non-finite sector profile"
        return None if np.max(np.abs(vals)) > 0.0 else "sector profile vanished"

    return Job(f"evolve_sector[t={t:.3f}]{_fmt(p)}",
               lambda: S.evolve_sector(p, minus, plus, t, grid), check)


def barrier(rng: random.Random) -> Workload:
    p2, p4 = region_point(rng, L.REGION_II), region_point(rng, L.REGION_IV)
    jobs = []
    combos = [(kind, side) for kind in CONTINUUM_KINDS for side in "+-"]
    for i, (kind, side) in enumerate(combos):
        # Region II: half of the states past the mpmath cliff, half below it
        jobs.append(_continuum_job(rng, p2, kind, side, CLIFF_EPS if i % 2 == 0 else KUMMER_EPS))
        jobs.append(_continuum_job(rng, p4, kind, side, KUMMER_EPS))
    jobs += _probe_jobs(rng, p2, p4)
    # resonance scans cost the same at every point: they hold the median of the job times
    jobs += [_pole_scan_job(region_point(rng, region), 3)
             for region in (L.REGION_II, L.REGION_IV) for _ in range(13)]
    for p in (p2, p4):
        jobs += [_resonant_job(rng, p, sector) for sector in ("minus", "plus")]
        jobs += [_evolve_sector_job(rng, p) for _ in range(3)]
        jobs += [_gram_job(p, n, "right-left", GRAM_TOL_BARRIER) for n in (2, 4, 6, 8)]
    for n, branch in ((0, "+"), (1, "-")):
        jobs.append(_ep_sweep_job(rng, n, "II", branch))

    warm = region_point(rng, L.REGION_II)
    warmup = [_continuum_job(rng, warm, "phi", "+", KUMMER_EPS),
              _continuum_job(rng, warm, "phi", "+", CLIFF_EPS, points=5),
              _pole_scan_job(warm, 1),
              _gram_job(warm, 4, "right-left", GRAM_TOL_BARRIER),
              _ep_sweep_job(rng, 0, "II")]
    return Workload(jobs, warmup)


# ---------------------------------------------------------------------------
# survey: many small calls over every stratum
# ---------------------------------------------------------------------------

_MASS_BOUNDARY = (L.BOUNDARY_I_III, L.CORNER_DEGENERATE)
_OMEGA_BOUNDARY = (L.BOUNDARY_I_II, L.BOUNDARY_III_IV, L.CORNER_DEGENERATE)
_POSITIVE_MASS = (L.REGION_I, L.REGION_II, L.BOUNDARY_I_II)


def check_derive(p: S.ModelParams):
    def check(d) -> str | None:
        label = S.classify(p)
        for name in ("omega_cap", "omega_sq", "m_eff", "k_stiff", "sigma", "upsilon_coeff",
                     "tau_coeff"):
            v = getattr(d, name)
            if v is not None and not cmath.isfinite(v):
                return f"{name} = {v} (never inf/NaN)"
        if (d.m_eff is None) != (label in _MASS_BOUNDARY):
            return f"m_eff = {d.m_eff} where classify gives {label.value}"
        if label in _OMEGA_BOUNDARY and d.sigma is not None:
            return f"sigma = {d.sigma} where classify gives {label.value}"
        if d.m_eff is not None and (d.m_eff > 0) != (label in _POSITIVE_MASS):
            return f"m_eff sign {d.m_eff:+g} contradicts {label.value}"
        return None
    return check


def _dyadic(rng: random.Random, lo: int, hi: int) -> float:
    return rng.randint(lo, hi) / 64.0


def _stratum_points(rng: random.Random) -> list[tuple[str, S.ModelParams, L, str | None]]:
    """(stratum, point, expected label, known defect) for every survey point."""
    pts = []
    for region in (L.REGION_I, L.REGION_II, L.REGION_III, L.REGION_IV):
        pts += [(region.value, region_point(rng, region), region, None) for _ in range(300)]
    while sum(1 for s, *_ in pts if s == "I-III") < 60:
        # exact: dyadic couplings make omega = alpha + beta exact in floating point
        a, b = _dyadic(rng, -96, 128), _dyadic(rng, -96, 128)
        p = S.ModelParams(a + b, a, b)
        if a + b > 0 and abs((a + b) ** 2 - 4 * a * b) > 0.1:
            pts.append(("I-III", p, L.BOUNDARY_I_III, None))
    for _ in range(60):
        # exact Omega = 0: omega^2 / (4 beta) is exact for dyadic omega and beta = +-2^j
        w, beta = rng.randint(4, 16) / 8.0, rng.choice((-1, 1)) * 2.0 ** rng.randint(-2, 2)
        p = S.ModelParams(w, w * w / (4 * beta), beta)
        label = S.classify(p)
        if label is not L.CORNER_DEGENERATE:
            pts.append((label.value, p, label, None))
    for _ in range(10):
        b = rng.uniform(0.2, 2.0)
        pts.append(("corner", S.ModelParams(2 * b, b, b), L.CORNER_DEGENERATE, None))
    for _ in range(20):
        # within the relative tolerance of boundary I-III, but not on it
        a, b = rng.uniform(-0.5, 1.0), rng.uniform(-0.5, 1.0)
        while abs((a + b) ** 2 - 4 * a * b) < 0.1 or a + b <= 0.1:
            a, b = rng.uniform(-0.5, 1.0), rng.uniform(-0.5, 1.0)
        w = (a + b) * (1.0 + rng.choice((-1, 1)) * rng.uniform(2e-14, 5e-13))
        pts.append(("near-I-III", S.ModelParams(w, a, b), L.BOUNDARY_I_III, DEFECT_DERIVE))
    for _ in range(20):
        # within the relative tolerance of Omega = 0
        w, beta = rng.uniform(0.5, 2.0), rng.choice((-1, 1)) * rng.uniform(0.3, 3.0)
        alpha = w * w * (1.0 + rng.choice((-1, 1)) * rng.uniform(2e-14, 5e-13)) / (4 * beta)
        p = S.ModelParams(w, alpha, beta)
        label = L.BOUNDARY_I_II if w - alpha - beta > 0 else L.BOUNDARY_III_IV
        pts.append(("near-Omega0", p, label, DEFECT_DERIVE))
    for _ in range(20):
        # subnormal gap: omega = alpha and a subnormal beta
        a, beta = rng.uniform(0.5, 2.0), rng.choice((-1, 1)) * rng.randint(1, 1000) * 5e-324
        pts.append(("subnormal", S.ModelParams(a, a, beta), L.BOUNDARY_I_III, DEFECT_DERIVE))
    return pts


def _classify_job(stratum: str, p: S.ModelParams, expected: L) -> Job:
    def check(label) -> str | None:
        return None if label is expected else f"label {label.value}, expected {expected.value}"
    return Job(f"classify[{stratum}]{_fmt(p)}", lambda: S.classify(p), check,
               repeat=MICRO_REPEAT)


def _surface_job(rng: random.Random, n: int) -> Job:
    half = rng.uniform(1.5, 2.5)

    def check(rows) -> str | None:
        if len(rows) != n * n:
            return f"{len(rows)} rows, expected {n * n}"
        for r in rows:
            if not math.isfinite(r.omega_sq) or (r.mass is not None and not math.isfinite(r.mass)):
                return f"non-finite row at ({r.alpha_over_omega}, {r.beta_over_omega})"
            if (r.mass is None) != (r.region in _MASS_BOUNDARY):
                return f"mass {r.mass} against region {r.region.value}"
        return None

    return Job(f"surface_grid[n={n},range={half:.3f}]", lambda: S.surface_grid(half, n), check)


def _discrete_states_job(p: S.ModelParams, n_max: int, per_n: int) -> Job:
    def check(states) -> str | None:
        if len(states) != per_n * (n_max + 1):
            return f"{len(states)} states"
        return None if finite([s.energy for s in states]) else "non-finite energy"
    return Job(f"discrete_states[n={n_max}]{_fmt(p)}", lambda: S.discrete_states(p, n_max), check)


def _omega_zero_jobs(rng: random.Random, p: S.ModelParams) -> list[Job]:
    c = _coeffs(rng, 4)
    energy = rng.uniform(0.2, 2.0)

    def check_ep(spec) -> str | None:
        return None if spec.energy == 0 and finite(spec.right_fn.gauss) else "bad E = 0 pair"

    def check_free(spec) -> str | None:
        return None if finite(spec.right_fn.k_wave) else "non-finite wavenumber"

    return [Job(f"ep_states{_fmt(p)}", lambda: S.ep_states(p, *c), check_ep),
            Job(f"free_particle_states[E={energy:.3f}]{_fmt(p)}",
                lambda: S.free_particle_states(p, energy, c[0], c[1]), check_free)]


def _flow_job(rng: random.Random) -> Job:
    w, b = rng.uniform(0.8, 1.5), rng.uniform(-2.5, -1.0)
    eps_values = [0.1, 0.01, 0.001]

    def check(rows) -> str | None:
        for r in rows:
            if abs(r.energy_side1 - r.eps * (r.n + 0.5)) > 1e-10:
                return f"side-I energy {r.energy_side1} at eps={r.eps}, n={r.n}"
            if abs(abs(r.energy_side2_plus) - r.eps * (r.n + 0.5)) > 1e-10:
                return f"side-II energy {r.energy_side2_plus} at eps={r.eps}, n={r.n}"
        return None if len(rows) == 4 * len(eps_values) else f"{len(rows)} rows"

    return Job(f"ep_spectrum_flow({w:.4g},{b:.4g})",
               lambda: S.ep_spectrum_flow(w, b, 3, eps_values), check)


def survey(rng: random.Random) -> Workload:
    jobs = []
    for i, (stratum, p, expected, defect) in enumerate(_stratum_points(rng)):
        jobs.append(_classify_job(stratum, p, expected))
        # derive on every boundary point and on every other region point
        if i % 2 == 0 or stratum not in ("I", "II", "III", "IV"):
            jobs.append(Job(f"derive[{stratum}]{_fmt(p)}", lambda p=p: S.derive(p),
                            check_derive(p), defect, MICRO_REPEAT))
    jobs.append(_surface_job(rng, 201))
    for region, per_n in ((L.REGION_I, 1), (L.REGION_II, 2), (L.REGION_III, 1), (L.REGION_IV, 2)):
        jobs.append(_discrete_states_job(region_point(rng, region), 20, per_n))
        for k in range(4):
            p = region_point(rng, region)
            tol = GRAM_TOL_REAL if per_n == 1 else GRAM_TOL_BARRIER
            jobs.append(_gram_job(p, (2, 4, 8, 8)[k], "right-left", tol))
    jobs.append(_discrete_states_job(S.ModelParams(1.0, 0.75, 0.25), 20, 2))
    for p in (S.ModelParams(1.0, -0.125, -2.0), S.ModelParams(1.0, 2.0, 0.125)):
        jobs += _omega_zero_jobs(rng, p)
    jobs += [_flow_job(rng) for _ in range(2)]
    for n_max in (90, 96):
        p = region_point(rng, L.REGION_I)
        target = _gaussian_target(rng)
        jobs.append(Job(f"reconstruct[n={n_max}]{_fmt(p)}",
                        lambda p=p, target=target, n_max=n_max: S.reconstruct(p, target, n_max),
                        check_sup_error(RECONSTRUCT_TOL), DEFECT_RECONSTRUCT))

    warm_pts = [region_point(rng, r) for r in _REGION_BOX]
    warmup = [Job("classify", lambda: [S.classify(p) for p in warm_pts], lambda out: None),
              Job("derive", lambda: [S.derive(p) for p in warm_pts], lambda out: None),
              Job("surface_grid", lambda: S.surface_grid(2.0, 11), lambda out: None),
              _gram_job(warm_pts[0], 2, "right-left", GRAM_TOL_REAL),
              _flow_job(rng)]
    return Workload(jobs, warmup)


WORKLOADS = {"oscillator": oscillator, "barrier": barrier, "survey": survey}


# ---------------------------------------------------------------------------
# cli_cold: every README example in a fresh process
# ---------------------------------------------------------------------------

@dataclass
class CliJob:
    name: str
    argv: list[str]
    outputs: list[str]                          # -o files, relative to the job directory
    check: Callable[[str], str | None]          # on stdout; files are checked for finiteness


_FLOAT = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_NONFINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)


def nonfinite_text(text: str) -> bool:
    return bool(_NONFINITE.search(text))


def _last_number(pattern: str):
    rx = re.compile(pattern)

    def value(stdout: str) -> float | None:
        m = rx.search(stdout)
        return float(m.group(1)) if m else None

    return value


def _at_most(label: str, pattern: str, tol: float):
    value = _last_number(pattern)

    def check(stdout: str) -> str | None:
        v = value(stdout)
        if v is None:
            return f"no {label} in the output"
        return None if v <= tol else f"{label} {v:.3e} > {tol:g}"

    return check


def _no_check(stdout: str) -> str | None:
    return None


def _check_probe_line(stdout: str) -> str | None:
    m = re.search(r":\s*([-+]?[\d.]+(?:e[-+]?\d+)?)([-+][\d.]+(?:e[-+]?\d+)?)i", stdout)
    if not m:
        return "no probe value in the output"
    v = complex(float(m.group(1)), float(m.group(2)))
    return None if abs(v - 1.0) <= PROBE_TOL else f"centred probe {v:.4f}"


def _check_poles_line(stdout: str) -> str | None:
    line = next((ln for ln in stdout.splitlines() if ln.startswith("detected poles")), "")
    vals = [float(t) for t in _FLOAT.findall(line.split(":", 1)[-1])]
    expected = [0.5, 1.5, 2.5, 3.5]
    if len(vals) != 4 or max(abs(a - b) for a, b in zip(vals, expected)) > 0.005:
        return f"poles {vals}"
    return None


def _check_metric_norm(stdout: str) -> str | None:
    m = re.search(r'"metric_norm":\s*([^,\n]+)', stdout)
    if not m:
        return "no metric_norm in the output"
    v = float(m.group(1))
    return None if abs(v - 1.0) <= NORM_TOL else f"metric norm {v!r}"


def _p(p: S.ModelParams) -> list[str]:
    return ["--omega", repr(p.omega), "--alpha", repr(p.alpha), "--beta", repr(p.beta)]


def cli_cold(rng: random.Random) -> list[CliJob]:
    """The README's command-line examples, each with seeded values in its own stratum."""
    p1 = region_point(rng, L.REGION_I)
    p1b = region_point(rng, L.REGION_I)
    p1c = expansion_point(rng)
    p2 = [region_point(rng, L.REGION_II) for _ in range(7)]
    w, beta = rng.uniform(0.8, 1.5), rng.uniform(-2.5, -1.0)
    p_ep = S.ModelParams(w, w * w / (4 * beta), beta)          # boundary I-II
    r = lambda lo, hi: repr(rng.uniform(lo, hi))  # noqa: E731
    a_b, b_b = rng.uniform(0.6, 0.9), rng.uniform(0.1, 0.3)
    w_s, b_s = rng.uniform(0.8, 1.5), rng.uniform(-2.5, -1.0)
    w_f, b_f = rng.uniform(0.8, 1.5), rng.uniform(-2.5, -1.0)
    width_probe = repr(0.2 * omega_scale(p2[5]))
    dev = r"max off-diagonal ([-+\d.e]+)"
    return [
        CliJob("classify", ["classify", *_p(p1)], [],
               lambda out: None if out.strip() == "Region I" else f"label {out.strip()!r}"),
        CliJob("derive", ["derive", *_p(p1b)], [], _no_check),
        CliJob("surface", ["surface", "--range", r(1.5, 2.5), "--n", "101", "--format", "csv",
                           "-o", "surface.csv"], ["surface.csv"], _no_check),
        CliJob("states-discrete", ["states", *_p(p2[0]), "--nmax", "8", "--format", "json"], [],
               _no_check),
        CliJob("states-continuum", ["states", *_p(p2[1]), "--continuum-energy",
                                    repr(rng.uniform(0.2, 1.0) * omega_scale(p2[1])),
                                    "-o", "state.csv"], ["state.csv"], _no_check),
        CliJob("states-ep", ["states", *_p(p_ep), "--ep", "1", "0", "1", "0"], [], _no_check),
        CliJob("states-free", ["states", *_p(p_ep), "--free-energy", r(0.5, 2.0)], [], _no_check),
        CliJob("gram", ["gram", *_p(p2[2]), "--nmax", "8", "--format", "json"], [],
               _at_most("gram deviation", dev, GRAM_TOL_BARRIER)),
        CliJob("reconstruct", ["reconstruct", *_p(p1c), "--nmax", "40", "--center", r(-0.5, 0.5),
                               "--width", r(0.9, 1.2)], [],
               _at_most("sup error", r"sup-error ([-+\d.e]+)", RECONSTRUCT_TOL)),
        CliJob("reconstruct-sector", ["reconstruct", *_p(p2[3]), "--sector", "minus", "--modes",
                                      f"0:{rng.uniform(0.5, 2):.6f},3:{rng.uniform(0.5, 2):.6f}"],
               [], _at_most("sup error", r"sup-error ([-+\d.e]+)", RECONSTRUCT_TOL)),
        CliJob("poles", ["poles", *_p(p2[4]), "--nscan", "3", "-o", "poles.csv"], ["poles.csv"],
               _check_poles_line),
        CliJob("poles-probe", ["poles", *_p(p2[5]), "--probe-width", width_probe], [],
               _check_probe_line),
        CliJob("evolve", ["evolve", *_p(p1), "--coeffs", f"{r(0.2, 1.5)},{r(0.2, 1.5)}",
                          "--kind", "X", "--t-max", "10"], [], _check_metric_norm),
        CliJob("evolve-sector", ["evolve", *_p(p2[6]), "--plus-coeffs", r(0.5, 2.0),
                                 "--time", r(0.2, 1.0)], [], _no_check),
        CliJob("ep-sweep-ep", ["ep-sweep", "--mode", "ep", "--omega", repr(w_s), "--beta", repr(b_s),
                               "--n", "0", "--side", "II", "--eps-values", "0.1,0.01,0.001"], [],
               _at_most("final distance", r"final distance: ([-+\d.e]+)", SWEEP_TOL)),
        CliJob("ep-sweep-boundary", ["ep-sweep", "--mode", "boundary", "--alpha", repr(a_b),
                                     "--beta", repr(b_b), "--n", "0", "--branch", "minus",
                                     "--g-values", "10,100,1000"], [],
               _at_most("final distance", r"final distance: ([-+\d.e]+)", SWEEP_TOL)),
        CliJob("ep-sweep-spectrum", ["ep-sweep", "--mode", "spectrum", "--omega", repr(w_f),
                                     "--beta", repr(b_f), "--nmax", "3", "--eps-values", "0.01"],
               [], _no_check),
    ]
