"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import math
import time

import numpy as np
import pytest

import conftest as pts
from swanson import (
    DeltaDeriv,
    ModelParams,
    ObservableKind,
    apply_hamiltonian,
    apply_observable,
    apply_oscillator,
    continuum_state,
    discrete_states,
    derive,
    evaluate,
    evolve_expectation,
    evolve_sector,
    gram,
    make_state,
    matrix_element,
    metric_norm,
    pair,
    pole_scan,
    reconstruct,
    resonant_expansion,
    stripped_discrete_function,
    surface_grid,
    sweep_to_boundary_i_iii,
    sweep_to_ep,
)
from swanson.pairing import _pair_block
from swanson.eigensystems import GaussPoly, polynomial_pieces

OMEGA_II = math.sqrt(3.0)


def report(criterion: int, text: str):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_real_spectrum_biorthogonality():
    t0 = time.time()
    worst = 0.0
    for p in pts.REGION_I_POINTS + pts.REGION_III_POINTS:
        g = gram(p, 10)
        worst = max(worst, g.max_offdiag, g.max_diag_err)
        assert g.max_offdiag <= 1e-10
        assert g.max_diag_err <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(1, f"gram identity at 3 Region-I + 2 Region-III points, "
              f"max deviation {worst:.2e} <= 1e-10, {elapsed:.2f} s < 5 s")


def test_criterion_2_barrier_biorthogonality_rotated():
    t0 = time.time()
    worst = 0.0
    for p in (pts.REGION_II_POINT, pts.REGION_IV_POINT):
        g = gram(p, 8)
        worst = max(worst, g.max_offdiag, g.max_diag_err)
        assert g.max_offdiag <= 1e-6
        assert g.max_diag_err <= 1e-6
    # rule-equivalence spot checks: explicit quarter-turn rotations with
    # different orders agree with the chosen rule to 1e-8
    states = {(s.n, s.branch): s for s in discrete_states(pts.REGION_II_POINT, 6)}
    for m, n, br in ((0, 0, "+"), (3, 3, "-"), (5, 1, "+"), (2, 6, "-")):
        theta = -math.pi / 4 if br == "+" else math.pi / 4
        auto = pair(states[(m, br)].left_fn, states[(n, br)].right_fn, pts.REGION_II_POINT)
        explicit = _pair_block([states[(m, br)].left_fn], [states[(n, br)].right_fn],
                               pts.REGION_II_POINT, (theta, 96))[0, 0]
        assert abs(auto - explicit) <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, f"Region II/IV gram identity to 1e-6 (worst {worst:.2e}), rotated-contour "
              f"spot checks to 1e-8, {elapsed:.2f} s < 30 s")


def test_criterion_3_eigen_residuals_everywhere(grid_6b0):
    points = (pts.REGION_I_POINTS + pts.REGION_III_POINTS
              + [pts.REGION_II_POINT, pts.REGION_IV_POINT, pts.BOUNDARY_I_III_POINT])
    battery = [GaussPoly(gauss=-2.0, coeffs=(1.0,), norm=1.0),
               GaussPoly(gauss=-2.0, coeffs=(0.0, 1.0), norm=1.0),
               GaussPoly(gauss=-1.0, coeffs=(0.5, 0.0, 1.0), norm=1.0)]

    def weak_residual(params, fn, energy):
        # <H_c t | fn> = E <t | fn> for smooth t, via exact symbolic H_c t
        worst = 0.0
        for t in battery:
            ht = _apply_h_symbolic(params.swapped(), t)
            resid = abs(pair(ht, fn, params) - energy * pair(t, fn, params))
            worst = max(worst, resid)
        return worst

    def _apply_h_symbolic(params, f):
        (a, b, coeffs), = polynomial_pieces(f, params)
        w, al, be = params.omega, params.alpha, params.beta
        c2 = 0.5 * params.hbar * (w - al - be) * params.b0 ** 2
        c0 = 0.5 * params.hbar * (w + al + be) / params.b0 ** 2
        c1 = 0.5 * params.hbar * (al - be)
        diff = lambda c: c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(0, complex)
        shift = lambda c, k: np.concatenate([np.zeros(k, complex), c])

        def add(*cs):
            out = np.zeros(max(len(c) for c in cs), complex)
            for c in cs:
                out[: len(c)] += c
            return out

        p1, p2c = diff(coeffs), diff(diff(coeffs))
        fpp = add(p2c, 4.0 * a * shift(p1, 1), 2.0 * a * coeffs, 4.0 * a * a * shift(coeffs, 2))
        xfp = add(shift(p1, 1), 2.0 * a * shift(coeffs, 2))
        out = add(-c2 * fpp, c0 * shift(coeffs, 2), c1 * add(2.0 * xfp, coeffs))
        return GaussPoly(gauss=complex(f.gauss), coeffs=tuple(out), norm=1.0)

    worst = 0.0
    for p in points:
        for s in discrete_states(p, 10):
            for fn, energy, prm in ((s.right_fn, s.energy, p),
                                    (s.left_fn, s.left_energy, p.swapped())):
                if isinstance(fn, DeltaDeriv):
                    worst = max(worst, weak_residual(prm, fn, energy))
                    continue
                vals = evaluate(fn, grid_6b0, prm)
                hvals = apply_hamiltonian(prm, fn, grid_6b0)
                resid = np.max(np.abs(hvals - energy * vals)) / np.max(np.abs(vals))
                assert resid <= 1e-8
                worst = max(worst, resid)
    assert worst <= 1e-8
    report(3, f"eigen-residuals (H and H_c, n <= 10, all regions and boundary I-III, "
              f"delta states weakly): worst {worst:.2e} <= 1e-8")


def test_criterion_4_spectra_closed_forms():
    n_max = 20
    for p in pts.REGION_I_POINTS:
        omega = math.sqrt(p.omega ** 2 - 4 * p.alpha * p.beta)
        for s in discrete_states(p, n_max):
            assert s.energy == pytest.approx(p.hbar * omega * (s.n + 0.5), rel=5e-16)
    for p in pts.REGION_III_POINTS:
        omega = math.sqrt(p.omega ** 2 - 4 * p.alpha * p.beta)
        for s in discrete_states(p, n_max):
            assert s.energy == pytest.approx(-p.hbar * omega * (s.n + 0.5), rel=5e-16)
    for p, sign in ((pts.REGION_II_POINT, 1.0), (pts.REGION_IV_POINT, -1.0)):
        for s in discrete_states(p, n_max):
            br = sign if s.branch == "+" else -sign
            assert s.energy == pytest.approx(br * 1j * OMEGA_II * (s.n + 0.5), rel=5e-16)
    p = pts.BOUNDARY_I_III_POINT
    for s in discrete_states(p, n_max):
        br = 1.0 if s.branch == "+" else -1.0
        assert s.energy == pytest.approx(br * 0.5 * (s.n + 0.5), rel=5e-16)
    report(4, "spectra match the closed forms to machine precision for n <= 20 "
              "in Regions I-IV and on boundary I-III")


def test_criterion_5_continuum_and_poles(grid_6b0):
    t0 = time.time()
    p = pts.REGION_II_POINT
    worst = 0.0
    for eps in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        energy = eps * OMEGA_II
        st = continuum_state(p, energy, "+", "phi")
        vals = evaluate(st, grid_6b0, p)
        hvals = apply_oscillator(p, st, grid_6b0)
        resid = np.max(np.abs(hvals - energy * vals)) / np.max(np.abs(vals))
        assert resid <= 1e-6
        worst = max(worst, resid)
    scan = pole_scan(p, 3, 200)
    assert len(scan.detected_poles) == 4
    for n, pole in enumerate(scan.detected_poles):
        assert abs(pole - (n + 0.5)) <= 0.005
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(5, f"Weber-state residuals at 6 energies (worst {worst:.2e} <= 1e-6), "
              f"poles at 0.5/1.5/2.5/3.5 within 0.005, {elapsed:.2f} s < 10 s")


def test_criterion_6_truncated_completeness():
    p = pts.REGION_I_POINTS[0]
    _, sup_error = reconstruct(p, lambda x: np.exp(-(x - 0.5) ** 2), 40)
    assert sup_error <= 1e-6

    p2 = pts.REGION_II_POINT
    target = [(1.0, stripped_discrete_function(p2, 0, "-")),
              (2.0, stripped_discrete_function(p2, 3, "-"))]
    coeffs, resid = resonant_expansion(p2, target, 5, "minus")
    assert np.max(np.abs(coeffs - np.array([1, 0, 0, 2, 0, 0]))) <= 1e-6
    assert resid <= 1e-6
    report(6, f"displaced-Gaussian reconstruction sup-error {sup_error:.2e} <= 1e-6 "
              f"(n_max = 40); resonant finite sum exact to {resid:.2e} <= 1e-6")


def test_criterion_7_matrix_elements():
    worst = 0.0
    for p in pts.REGION_I_POINTS + pts.REGION_III_POINTS:
        states = discrete_states(p, 8)
        for kind in ObservableKind:
            for m in range(9):
                for n in range(9):
                    oracle = pair(states[m].left_fn,
                                  apply_observable(p, states[n].right_fn, kind), p)
                    ladder = matrix_element(kind, m, n, p)
                    assert abs(oracle - ladder) <= 1e-8
                    worst = max(worst, abs(oracle - ladder))
    p1 = pts.SIGMA1_REGION_I
    assert matrix_element(ObservableKind.X, 1, 0, p1) == pytest.approx(p1.b0 / math.sqrt(2))
    assert matrix_element(ObservableKind.X2, 3, 3, p1) == pytest.approx(3.5 * p1.b0 ** 2)
    report(7, f"ladder formulas vs quadrature oracle, all four observables, m,n <= 8, "
              f"5 parameter points: worst {worst:.2e} <= 1e-8; sigma = 1 constants exact")


def test_criterion_8_dynamics():
    p = pts.SIGMA1_REGION_I
    omega = abs(derive(p).omega_cap)
    state = make_state(p, [1.0, 1.0])
    worst = 0.0
    for t in np.linspace(0.0, 20.0 / omega, 41):
        v = evolve_expectation(state, ObservableKind.X, p, float(t))
        worst = max(worst, abs(v - (p.b0 / math.sqrt(2)) * math.cos(omega * t)))
    assert worst <= 1e-8
    for t in (0.0, 3.1, 11.8):
        assert abs(metric_norm(state, p, t) - 1.0) <= 1e-10

    p2 = pts.REGION_II_POINT
    x0 = np.array([0.4])
    times = np.linspace(0.0, 2.0, 21)
    mags = [abs(evolve_sector(p2, [], [1.0], float(t), x0)[0]) for t in times]
    slope = np.polyfit(times, np.log(mags), 1)[0]
    assert abs(slope + OMEGA_II / 2.0) <= 1e-6
    report(8, f"two-level <X>(t) = (b0/sqrt 2) cos(|Omega| t) to {worst:.2e} <= 1e-8; "
              f"metric norm conserved to 1e-10; decay-rate slope error "
              f"{abs(slope + OMEGA_II / 2):.2e} <= 1e-6")


def test_criterion_9_exceptional_point_limits():
    eps_values = [1e-1, 1e-2, 1e-3]
    for side in ("I", "II"):
        rep = sweep_to_ep(1.0, -2.0, 0, side, eps_values)
        assert np.all(np.diff(rep.distances) < 0)
        assert rep.distances[-1] <= 1e-3
        mags = np.abs(rep.energies)
        assert np.max(np.abs(mags / np.asarray(eps_values) / 0.5 - 1.0)) <= 1e-10
    plus = sweep_to_boundary_i_iii(0.75, 0.25, 0, "plus", [10.0, 100.0, 1000.0])
    assert plus.distances[-1] <= 1e-3
    minus = sweep_to_boundary_i_iii(0.75, 0.25, 0, "minus", [10.0, 100.0, 1000.0, 10000.0])
    assert np.all(np.diff(minus.distances) < 0)
    # distances are to the limit direction, so successive battery directions
    # are Cauchy within their triangle bound
    cauchy_tail = minus.distances[-1] + minus.distances[-2]
    assert cauchy_tail <= 1e-3
    report(9, "EP sweeps from both sides converge monotonically to the same limit "
              "(final <= 1e-3) with exact linear eigenvalue collapse; boundary sweeps: "
              f"plus-branch final {plus.distances[-1]:.2e} <= 1e-3 at G = 1e3, "
              f"minus-branch battery Cauchy tail <= {cauchy_tail:.2e} <= 1e-3")


def test_criterion_10_surface_grid(tmp_path):
    n, half = 101, 2.0
    rows = surface_grid(half, n)
    assert len(rows) == n * n

    # m sign flips exactly across alpha/omega + beta/omega = 1 and nowhere
    # else; the 101-point grid hits the line exactly (mass undefined there),
    # so flips are observed across those gridline points
    flips = 0
    for i in range(n):
        for j in range(n - 1):
            r1, r2 = rows[i * n + j], rows[i * n + j + 1]
            if r1.mass is None or r2.mass is None:
                continue
            s1 = r1.alpha_over_omega + r1.beta_over_omega - 1.0
            s2 = r2.alpha_over_omega + r2.beta_over_omega - 1.0
            flipped = (r1.mass < 0) != (r2.mass < 0)
            assert flipped == ((s1 < 0) != (s2 < 0))
            flips += flipped
        for j in range(n - 2):
            r1, mid, r2 = rows[i * n + j], rows[i * n + j + 1], rows[i * n + j + 2]
            if mid.mass is None and r1.mass is not None and r2.mass is not None:
                assert (r1.mass < 0) != (r2.mass < 0)
                flips += 1

    # Omega^2 is continuous: adjacent jumps bounded by the gradient bound
    h = 2.0 * half / (n - 1)
    for i in range(n):
        for j in range(n - 1):
            assert abs(rows[i * n + j + 1].omega_sq - rows[i * n + j].omega_sq) \
                <= 4.0 * half * h + 1e-12

    out = tmp_path / "surface.csv"
    lines = ["alpha_over_omega,beta_over_omega,omega_sq,mass,region"]
    for r in rows:
        mass = "" if r.mass is None else "%.17g" % r.mass
        lines.append("%.17g,%.17g,%.17g,%s,%s" % (
            r.alpha_over_omega, r.beta_over_omega, r.omega_sq, mass, r.region.value))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert out.exists()
    report(10, f"101x101 grid: mass sign flips only across the discontinuity line "
               f"({flips} flips), Omega^2 continuous, CSV emitted ({out.stat().st_size} bytes)")
