"""Compare the results of this tree's swanson package, or of a second git revision's,
with those of a git revision.

    python tools/same_results.py <rev> [<new>]

The script unpacks `git archive <rev> src/swanson` as the package
`swanson_parent` in a temporary directory, and with <new> that revision's
package as `swanson_new`, which then stands in for this tree. Each package
imports itself by relative imports, so both import side by side in one
process. One call table runs on both: the public entry points at points of
every stratum, with the refused inputs among them, ladder indices outside
their domain included, and the README's command lines through `cli.main`.

Values compare byte for byte, dtypes, shapes and signed zeros included; a
refusal compares by error type and message. A command line compares by its
exit code, standard output and error, and the bytes of every file it writes
into an empty $SWANSON_OUTDIR. The script prints one JSON
summary: calls compared, calls equal, and for each call that differs its name
and its largest absolute and relative change (relative to the larger of the
two magnitudes; null where the two results do not line up), or, where either
tree refused the call, the two refusals ("raised": [this tree, the revision]). It exits 0 when every call is equal and 1 otherwise. It
needs git and the repository, nothing from the network.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import enum
import importlib
import io
import json
import math
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tests"))
from readme_cases import readme_cases, run_case  # noqa: E402  (the README's examples)


# ---------------------------------------------------------------------------
# Loading two trees into one process
# ---------------------------------------------------------------------------

def load_tree(package_dir: Path, name: str, into: Path):
    """The package at package_dir, copied to into/name and imported under that name."""
    shutil.copytree(package_dir, into / name)
    if str(into) not in sys.path:
        sys.path.insert(0, str(into))
    return importlib.import_module(name)


def load_revision(rev: str, into: Path, name: str = "swanson_parent"):
    """src/swanson of the git revision rev, unpacked from `git archive` and imported as name."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, "src/swanson"],
                         capture_output=True, check=True).stdout
    unpacked = into / f"{name}_archive"
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(unpacked, filter="data")
    return load_tree(unpacked / "src" / "swanson", name, into)


# ---------------------------------------------------------------------------
# The call table
# ---------------------------------------------------------------------------

def run_command_line(cli, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, {file name: bytes}) of cli.main(argv), run in an empty
    $SWANSON_OUTDIR."""
    with tempfile.TemporaryDirectory() as outdir:
        result = run_case(cli.main, argv, Path(outdir))
        files = {path.name: path.read_bytes() for path in sorted(Path(outdir).iterdir())}
    return (*result, files)


def call_table(S, quick: bool = False) -> list[tuple[str, object]]:
    """(name, thunk) per call, every object built from the package S itself: the classes of
    two trees are distinct, and the library's isinstance checks must see their own.  quick
    keeps every twelfth index of the long index sweeps, their edges and every tenth Weber
    box point, and leaves out the 1001 x 1001 surface."""
    M = S.ModelParams
    pts = {
        "I": M(1.0, 0.2, 0.1), "I'": M(1.0, -0.1, -0.3), "I~": M(1.0, 0.2, 0.1, 1.7, 0.6),
        "III": M(1.0, 1.2, -0.1), "II": M(1.0, -2.0, -0.5), "IV": M(1.0, 2.0, 0.5),
        "II~": M(1.0, -2.0, -0.5, 1.7, 0.6), "IV~": M(1.0, 2.0, 0.5, 0.8, 1.3),
        "I-III": M(1.0, 0.75, 0.25), "I-II": M(1.0, -0.125, -2.0),
        "III-IV": M(1.0, 2.0, 0.125), "corner": M(1.0, 0.5, 0.5),
    }
    real, barrier = ("I", "I'", "I~", "III"), ("II", "IV", "II~", "IV~")
    laddered = real + barrier + ("I-III",)
    grid = np.linspace(-3.0, 3.0, 7)
    gaussian = S.GaussPoly(gauss=-2.0, coeffs=(1.0,), norm=1.0)
    shifted = S.GaussPoly(gauss=-1.0, coeffs=(1.0, 0.5, 0.0, 0.25), norm=0.7)
    rows = []

    def add(name, fn, *args, **kwargs):
        rows.append((name, lambda: fn(*args, **kwargs)))

    # core
    for key, p in pts.items():
        add(f"classify[{key}]", S.classify, p)
        add(f"derive[{key}]", S.derive, p)
    add("classify[tol=nan]", S.classify, pts["I"], math.nan)
    add("surface_grid[3,5]", S.surface_grid, 3.0, 5)
    for tol in (1e-12, 1e-2):
        add(f"surface_grid[2,201,{tol:g}]", S.surface_grid, 2.0, 201, tol)
    add("surface_grid[1e300,40]", S.surface_grid, 1e300, 40)
    add("surface_grid[2,9,0.3]", S.surface_grid, 2.0, 9, 0.3)
    # sides whose last block of alpha rows is partial, and the top side, packed: its million
    # rows would need about a gigabyte in canonical form
    add("surface_grid[2,103]", S.surface_grid, 2.0, 103)
    add("surface_grid[1e300,103]", S.surface_grid, 1e300, 103)
    if not quick:
        rows.append(("surface_grid[2,1001]", lambda: _packed_rows(S.surface_grid(2.0, 1001))))
    for n in (2.5, "3", 1, 1002):
        add(f"surface_grid[n {n!r}]", S.surface_grid, 2.0, n)
    add("ModelParams[b0=0]", M, 1.0, 0.2, 0.1, 0.0)

    # discrete states, evaluation, the Hamiltonian
    for key, p in pts.items():
        add(f"discrete_states[{key},5]", S.discrete_states, p, 5)
    add("discrete_states[I,-1]", S.discrete_states, pts["I"], -1)
    for key in laddered:
        p = pts[key]
        rows.append((f"evaluate[{key},right 0..5]",
                     lambda p=p: [S.evaluate(s.right_fn, grid, p) for s in S.discrete_states(p, 5)
                                  if not isinstance(s.right_fn, S.DeltaDeriv)]))
    add("evaluate[gaussian]", S.evaluate, gaussian, grid, pts["I"])
    add("evaluate[complex x]", S.evaluate, shifted, grid + 0.5j, pts["I"])
    add("apply_hamiltonian", S.apply_hamiltonian, pts["I"], gaussian, grid)
    add("apply_oscillator", S.apply_oscillator, pts["I"], gaussian, grid)
    add("apply_oscillator[I-III]", S.apply_oscillator, pts["I-III"], gaussian, grid)
    add("apply_oscillator[delta]", S.apply_oscillator, pts["I"], S.DeltaDeriv(0.0, 1, 1.0), grid)
    add("apply_hamiltonian[delta]", S.apply_hamiltonian, pts["I"], S.DeltaDeriv(0.0, 1, 1.0), grid)
    # the Weber ladder of a continuum state, and points that are not finite, for each reader
    forms = {"gaussian": gaussian, "wave": S.PlaneWaveGauss(-1.0, 1.5, 0.5, 0.25j),
             **{f"continuum {key}": S.continuum_state(pts[key], 1.3, "+", "phi") for key in ("II", "IV")}}
    for key in ("II", "IV"):
        for apply in (S.apply_hamiltonian, S.apply_oscillator):
            add(f"{apply.__name__}[continuum {key}]", apply, pts[key], forms[f"continuum {key}"], grid)
    for what in ("gaussian", "wave", "continuum II"):
        for bad in (math.nan, math.inf, complex(0.5, math.nan)):
            x = np.array([0.5, bad])
            add(f"evaluate[{what},{bad}]", S.evaluate, forms[what], x, pts["II"])
            add(f"evaluate[{what},scalar {bad}]", S.evaluate, forms[what], bad, pts["II"])
            for apply in (S.apply_hamiltonian, S.apply_oscillator):
                add(f"{apply.__name__}[{what},{bad}]", apply, pts["II"], forms[what], x)
    add("ep_states", S.ep_states, pts["I-II"], 1.0, 0.0, 1.0, 0.0)
    add("ep_states[I]", S.ep_states, pts["I"], 1.0, 0.0, 1.0, 0.0)
    add("free_particle_states", S.free_particle_states, pts["I-II"], 1.0, 1.0, 0.0)
    add("free_particle_states[evanescent]", S.free_particle_states, pts["III-IV"], 1.0, 1.0, 0.5)

    # pairings, Grams, reconstructions
    add("pair", S.pair, gaussian, shifted, pts["I"])
    add("metric_pair", S.metric_pair, gaussian, shifted, pts["I"])
    add("pair[no decay]", S.pair, S.GaussPoly(1.0, (1.0,), 1.0), gaussian, pts["I"])
    # a delta block is paired in closed form, on either side
    add("pair[delta,gaussian]", S.pair, S.DeltaDeriv(0.0, 2, 1.0), gaussian, pts["I"])
    add("pair[gaussian,delta]", S.pair, shifted, S.DeltaDeriv(-1.0, 3, 0.5 - 1.0j), pts["I"])
    # sides that are not closed forms
    for single in (S.pair, S.metric_pair):
        add(f"{single.__name__}[callable]", single, gaussian, lambda x: x, pts["I"])
        add(f"{single.__name__}[float]", single, 1.0, gaussian, pts["I"])
    # sides of two bases, each sampled in its own; decaying plane waves, their drifts
    # conjugated on the left
    other_scale = S.GaussPoly(gauss=-1.5, coeffs=(0.2, 0.0, -1.0j), norm=0.9, scale=1.3)
    waves = {"wave": S.PlaneWaveGauss(-1.0, 1.5, 0.5, 0.25j),
             "evanescent": S.PlaneWaveGauss(-1.0, 0.8j, complex(-0.0, -1.0), -0.0)}
    for key in ("I", "III", "II"):
        rows.append((f"pair[{key} left,other scale]", lambda p=pts[key]: S.pair(
            S.discrete_states(p, 2)[-1].left_fn, other_scale, p)))
        rows.append((f"pair[other scale,{key} right]", lambda p=pts[key]: S.pair(
            other_scale, S.discrete_states(p, 2)[-1].right_fn, p)))
    for what, wave in waves.items():
        add(f"pair[{what},gaussian]", S.pair, wave, gaussian, pts["I"])
        add(f"pair[gaussian,{what}]", S.pair, gaussian, wave, pts["I"])
        add(f"pair[{what},other scale]", S.pair, wave, other_scale, pts["I"])
    for key in laddered:
        for n_max in (0, 8, 40):
            add(f"gram[{key},{n_max}]", S.gram, pts[key], n_max)
    for key in real:
        add(f"gram[{key},8,metric]", S.gram, pts[key], 8, "metric")
    # each Regions I-IV side one ladder record, at the top of the paired degrees (82 the
    # last n_max whose rule is sound, 83 the first refused)
    for key in ("I", "III", "II", "IV"):
        for n_max in (66, 82):
            add(f"gram[{key},{n_max}]", S.gram, pts[key], n_max)
    add("gram[I,83]", S.gram, pts["I"], 83)
    add("gram[III,40,metric]", S.gram, pts["III"], 40, "metric")
    add("gram[II,8,metric]", S.gram, pts["II"], 8, "metric")
    add("gram[I,116]", S.gram, pts["I"], 116)
    add("gram[I,4,which]", S.gram, pts["I"], 4, "other")
    add("gram[I,100,which]", S.gram, pts["I"], 100, "bogus")
    add("gram[II,100,metric]", S.gram, pts["II"], 100, "metric")
    add("gram[I-II,4]", S.gram, pts["I-II"], 4)

    def bump(x):
        return np.exp(-(x - 0.5) ** 2 / 2.0)

    sweep = range(0, 117, 12 if quick else 1)
    for n_max in sorted({*sweep, 82, 83, 90, 115, 116}):
        add(f"reconstruct[gauss,{n_max}]", S.reconstruct, pts["I"], shifted, n_max)
        add(f"reconstruct[callable,{n_max}]", S.reconstruct, pts["I"], bump, n_max)
    odd = S.GaussPoly(gauss=-1.5, coeffs=(0.0, 1.0, 0.0, -0.5j), norm=1.0)
    targets = {"odd": odd, "wave": S.PlaneWaveGauss(-1.0, 1.5, 0.5, 0.25j),
               "delta": S.DeltaDeriv(-1.0, 2, 1.0), "growing": S.GaussPoly(100.0, (1.0,), 1.0)}
    for key in ("I", "I~", "III"):
        for what, f in [("gaussian", gaussian), *targets.items()]:
            add(f"reconstruct[{key},{what},20]", S.reconstruct, pts[key], f, 20)
    add("reconstruct[I,gauss,82]", S.reconstruct, pts["I"], gaussian, 82)
    # callables whose output on the grid is a scalar, too short, or not finite
    for what, f in (("scalar", lambda x: 1.0), ("short", lambda x: x[:3]),
                    ("nan", lambda x: np.nan * x), ("inf", lambda x: np.where(x > 4.0, np.inf, 1.0)),
                    ("ones 201", lambda x: np.ones(201))):     # the grid's shape, not the nodes'
        add(f"reconstruct[I,callable {what},10]", S.reconstruct, pts["I"], f, 10)
    add("reconstruct[II]", S.reconstruct, pts["II"], gaussian, 4)

    # the resonant family and its expansions
    for key in barrier:
        for n in sorted({*sweep, 115} - {116}):
            for branch in ("+", "-"):
                add(f"stripped_discrete_function[{key},{n},{branch}]",
                    S.stripped_discrete_function, pts[key], n, branch)
        add(f"stripped_discrete_function[{key},2,x]", S.stripped_discrete_function, pts[key], 2, "x")
        add(f"stripped_discrete_function[{key},-1,+]", S.stripped_discrete_function, pts[key], -1, "+")
    add("stripped_discrete_function[I]", S.stripped_discrete_function, pts["I"], 2, "+")
    for key in ("II", "IV", "II~"):
        p = pts[key]
        for sector, branch in (("minus", "-"), ("plus", "+")):
            single = S.stripped_discrete_function(p, 2, branch)
            mixed = [(0.5, S.stripped_discrete_function(p, 0, branch)),
                     (1j, S.stripped_discrete_function(p, 3, branch))]
            for n_max in (-1, 0, 5, 40, 82, 115, 116):
                add(f"resonant_expansion[{key},{sector},single,{n_max}]",
                    S.resonant_expansion, p, single, n_max, sector)
            for n_max in (0, 5, 40):
                add(f"resonant_expansion[{key},{sector},list,{n_max}]",
                    S.resonant_expansion, p, mixed, n_max, sector)
            other = S.stripped_discrete_function(p, 1, "+" if branch == "-" else "-")
            add(f"resonant_expansion[{key},{sector},mismatch]", S.resonant_expansion, p, other, 5, sector)
            add(f"resonant_expansion[{key},{sector},gaussian]", S.resonant_expansion, p, gaussian, 5, sector)
    for what, f in targets.items():
        add(f"resonant_expansion[II,{what}]", S.resonant_expansion, pts["II"], f, 5)
    add("resonant_expansion[II,delta 300]", S.resonant_expansion, pts["II"],
        S.DeltaDeriv(0.0, 300, 1.0), 5)
    add("resonant_expansion[II,list with delta]", S.resonant_expansion, pts["II"],
        [(1.0, S.stripped_discrete_function(pts["II"], 0, "-")), (1.0, S.DeltaDeriv(0.0, 2, 1.0))], 5)
    add("resonant_expansion[II,growing 1e4]", S.resonant_expansion, pts["II"],
        S.GaussPoly(1e4, (1.0,), 1.0), 5)
    add("resonant_expansion[II,list mismatch]", S.resonant_expansion, pts["II"],
        [(1.0, S.stripped_discrete_function(pts["II"], 1, "-")),
         (2.0, S.stripped_discrete_function(pts["II"], 1, "+"))], 5)
    add("resonant_expansion[II,overflow then mismatch]", S.resonant_expansion, pts["II"],
        [(1.0, S.stripped_discrete_function(pts["II"], 115, "-")),
         (2.0, S.stripped_discrete_function(pts["II"], 1, "+"))], 115)
    add("resonant_expansion[II,sector]", S.resonant_expansion, pts["II"], gaussian, 5, "both")
    for c in (math.nan, math.inf, complex(1.0, math.nan)):
        add(f"resonant_expansion[II,coefficient {c}]", S.resonant_expansion, pts["II"],
            [(1.0, S.stripped_discrete_function(pts["II"], 0, "-")),
             (c, S.stripped_discrete_function(pts["II"], 2, "-"))], 5)
    # targets that are not closed forms
    for what, target in (("callable", bump), ("float", 1.0), ("None", None),
                         ("function not pair", [gaussian]), ("short pair", [(1.0,)]), ("empty", [])):
        add(f"resonant_expansion[II,{what}]", S.resonant_expansion, pts["II"], target, 5)
    add("resonant_expansion[I]", S.resonant_expansion, pts["I"], gaussian, 5)

    # sector evolution
    for key in ("II", "IV", "II~"):
        add(f"evolve_sector[{key}]", S.evolve_sector, pts[key], [1.0, 0.5], [0.3, 0.0, 1.0], 0.5, grid)
    add("evolve_sector[zero minus]", S.evolve_sector, pts["II"], [0.0, 0.0], [1.0], 0.5, grid)
    add("evolve_sector[empty]", S.evolve_sector, pts["II"], [], [], 0.5, grid)
    add("evolve_sector[nan]", S.evolve_sector, pts["II"], [math.nan], [1.0], 0.5, grid)
    add("evolve_sector[t=nan]", S.evolve_sector, pts["II"], [1.0], [1.0], math.nan, grid)
    add("evolve_sector[overflow]", S.evolve_sector, pts["II"], [1.0, 1.0], [], 1000.0, grid)
    add("evolve_sector[I]", S.evolve_sector, pts["I"], [1.0], [], 0.5, grid)

    # the continuum
    for key in ("II", "IV", "II~"):
        p = pts[key]
        x = np.linspace(-6.0 * p.b0, 6.0 * p.b0, 201)
        add(f"continuum_norm_constant[{key}]", S.continuum_norm_constant, p)
        for energy in (0.0, 1.3, 15.0):
            for side in ("+", "-"):
                for kind in ("phi", "eta", "phi_tilde", "psi_bar"):
                    rows.append((f"continuum_state[{key},{energy},{side},{kind}]",
                                 lambda p=p, x=x, e=energy, s=side, k=kind:
                                 (st := S.continuum_state(p, e, s, k), S.evaluate(st, x, p))))
    add("continuum_state[side]", S.continuum_state, pts["II"], 1.0, "x")
    add("continuum_state[kind]", S.continuum_state, pts["II"], 1.0, "+", "chi")
    add("continuum_state[nan]", S.continuum_state, pts["II"], math.nan)
    add("continuum_state[I]", S.continuum_state, pts["I"], 1.0)
    for key in ("II", "IV", "II~"):
        add(f"delta_normalization_probe[{key}]", S.delta_normalization_probe, pts[key], 0.0, 0.346)
        add(f"delta_normalization_probe[{key},center]", S.delta_normalization_probe,
            pts[key], 0.5, 0.346, 4.0)
    add("delta_normalization_probe[width=0]", S.delta_normalization_probe, pts["II"], 0.0, 0.0)
    add("delta_normalization_probe[e0=nan]", S.delta_normalization_probe, pts["II"], math.nan, 0.3)
    add("delta_normalization_probe[edge]", S.delta_normalization_probe, pts["II"], 6.0, 1.0, 0.0)
    for key in ("II", "IV"):
        add(f"pole_scan[{key},3]", S.pole_scan, pts[key], 3)
        add(f"pole_scan[{key},10,201]", S.pole_scan, pts[key], 10, 201)
    add("pole_scan[-1]", S.pole_scan, pts["II"], -1)
    # one sample past the top: a tree without the top scans them, about 265 MB at peak
    add("pole_scan[4999,201]", S.pole_scan, pts["II"], 4999, 201)

    # the Weber function: random points of the order box, and grids on the rays
    rng = np.random.default_rng(20)
    nus = rng.uniform(-6.0, 8.0, 300) + 1j * rng.uniform(-20.0, 20.0, 300)
    zs = rng.uniform(0.0, 20.0, 300) * np.exp(1j * rng.uniform(-math.pi, math.pi, 300))
    every = 10 if quick else 1
    for i, (nu, z) in enumerate(zip(nus[::every], zs[::every])):
        add(f"parabolic_cylinder_d[box {i}]", S.parabolic_cylinder_d, complex(nu), complex(z))
    add("parabolic_cylinder_d[box array]", S.parabolic_cylinder_d, nus, zs)
    orders = 1j * np.linspace(-20.0, 20.0, 61)[:, None] - 0.5
    radii = np.linspace(0.0, 20.0, 81)
    for angle in (0.25, 0.75):
        add(f"parabolic_cylinder_d[ray {angle}pi]", S.parabolic_cylinder_d,
            orders, radii * cmath.exp(1j * angle * math.pi))
    add("parabolic_cylinder_d[ladder]", S.parabolic_cylinder_d,
        orders[::6] - np.arange(3.0), radii[40] * cmath.exp(0.75j * math.pi))
    add("parabolic_cylinder_d[far order]", S.parabolic_cylinder_d, -36.7 + 11.6j, 18.4 + 0.4j)
    add("parabolic_cylinder_d[nan]", S.parabolic_cylinder_d, math.nan, 1.0)
    add("log_gamma", S.log_gamma, np.array([0.5 - 3.0j, 2.5, -1.5 + 0.1j]))
    add("log_gamma[pole]", S.log_gamma, -2.0)
    add("gauss_hermite[40]", S.gauss_hermite, 40)
    # np.float64(40.0) right after np.int64(40), an equal key of an untyped cache
    for order in (np.int64(40), np.float64(40.0), 2.5, 0, 501):
        add(f"gauss_hermite[{order!r}]", S.gauss_hermite, order)
    add("hermite_rows[12]", S.specfun.hermite_rows, 12, grid)
    for n in (0, 1, 7):
        add(f"hermite[{n}]", S.hermite, n, grid + 0.5j)
        add(f"hermite[{n},scalar]", S.hermite, n, -0.0 + 1.5j)
        add(f"hermite_coefficients[{n}]", S.specfun.hermite_coefficients, n)

    # dynamics
    state = S.make_state(pts["I"], [1.0, 0.5, 0.25j])
    add("make_state", S.make_state, pts["I"], [1.0, 0.5])
    add("make_state[II]", S.make_state, pts["II"], [1.0])
    add("make_state[nan]", S.make_state, pts["I"], [math.nan])
    for kind in S.ObservableKind:
        add(f"matrix_element[{kind.name}]", S.matrix_element, kind, 1, 3, pts["I"])
        add(f"apply_observable[{kind.name}]", S.apply_observable, pts["I"], shifted, kind)
        add(f"evolve_expectation[{kind.name}]", S.evolve_expectation, state, kind, pts["I"], 0.5)
        add(f"evolve_expectation[{kind.name},times]", S.evolve_expectation, state, kind, pts["I~"],
            np.linspace(0.0, 4.0, 9))
    add("matrix_element[index]", S.matrix_element, S.ObservableKind.X, 1.5, 0, pts["I"])
    add("matrix_element[index -1]", S.matrix_element, S.ObservableKind.X, 0, -1, pts["I"])
    add("matrix_element[index n 0.5]", S.matrix_element, S.ObservableKind.X, 1, 0.5, pts["I"])
    add("metric_norm", S.metric_norm, state, pts["I"], 0.5)
    add("metric_norm[t=inf]", S.metric_norm, state, pts["I"], math.inf)

    # exceptional-point and boundary sweeps
    eps = [0.1, 0.01, 0.001]
    add("sweep_to_ep[I]", S.sweep_to_ep, 1.0, -0.2, 2, "I", eps)
    for branch in ("+", "-"):
        add(f"sweep_to_ep[II,{branch}]", S.sweep_to_ep, 1.0, -0.2, 5, "II", eps, branch)
    add("sweep_to_ep[III]", S.sweep_to_ep, 1.0, 0.2, 2, "I", [0.1])
    add("sweep_to_boundary_i_iii[plus]", S.sweep_to_boundary_i_iii, 0.75, 0.25, 100, "plus",
        [10.0, 100.0, 1000.0])
    add("sweep_to_boundary_i_iii[minus]", S.sweep_to_boundary_i_iii, 0.75, 0.25, 3, "minus",
        [10.0, 100.0, 1000.0])
    add("sweep_to_boundary_i_iii[G]", S.sweep_to_boundary_i_iii, 0.75, 0.25, 3, "plus", [0.5])
    add("ep_spectrum_flow", S.ep_spectrum_flow, 1.0, -0.2, 3, eps)
    add("ep_spectrum_flow[boundary]", S.ep_spectrum_flow, 1.0, 0.2, 2, [1e-9])
    for bad in (math.nan, math.inf):      # each coupling refused by its own name
        add(f"sweep_to_boundary_i_iii[alpha={bad}]", S.sweep_to_boundary_i_iii, bad, 0.25, 0, "plus", [10.0])
        add(f"sweep_to_boundary_i_iii[beta={bad}]", S.sweep_to_boundary_i_iii, 0.75, bad, 0, "plus", [10.0])
        add(f"sweep_to_boundary_i_iii[alpha=beta={bad}]", S.sweep_to_boundary_i_iii, bad, bad, 0, "plus",
            [10.0])
        add(f"sweep_to_ep[omega={bad}]", S.sweep_to_ep, bad, -0.2, 0, "I", [0.1])
        add(f"sweep_to_ep[beta={bad}]", S.sweep_to_ep, 1.0, bad, 0, "I", [0.1])
        add(f"ep_spectrum_flow[omega={bad}]", S.ep_spectrum_flow, bad, -0.2, 1, [0.1])
        add(f"ep_spectrum_flow[beta={bad}]", S.ep_spectrum_flow, 1.0, bad, 1, [0.1])

    # ladder indices: a non-integer, -1, and the top and one past it where there is a top
    indexed = [
        ("discrete_states[I]", lambda n: S.discrete_states(pts["I"], n), 300),
        ("discrete_states[II]", lambda n: S.discrete_states(pts["II"], n), 300),
        ("discrete_states[I-III]", lambda n: S.discrete_states(pts["I-III"], n), 300),
        ("gram[I]", lambda n: S.gram(pts["I"], n), 115),
        ("gram[I-III]", lambda n: S.gram(pts["I-III"], n), 300),
        ("reconstruct", lambda n: S.reconstruct(pts["I"], shifted, n), 115),
        ("resonant_expansion", lambda n: S.resonant_expansion(pts["II"], gaussian, n, "plus"), 115),
        ("stripped_discrete_function", lambda n: S.stripped_discrete_function(pts["II"], n, "+"), 300),
        ("sweep_to_boundary_i_iii[plus]",
         lambda n: S.sweep_to_boundary_i_iii(0.75, 0.25, n, "plus", [10.0, 100.0]), 300),
        ("sweep_to_boundary_i_iii[minus]",
         lambda n: S.sweep_to_boundary_i_iii(0.75, 0.25, n, "minus", [10.0, 100.0]), 115),
        ("sweep_to_ep", lambda n: S.sweep_to_ep(1.0, -0.2, n, "II", eps), 300),
        ("ep_spectrum_flow", lambda n: S.ep_spectrum_flow(1.0, -0.2, n, eps), 300),
        ("pole_scan", lambda n: S.pole_scan(pts["II"], n), None),
        ("pole_scan[samples_per_unit]", lambda n: S.pole_scan(pts["II"], 1, n), None),
        ("hermite", lambda n: S.hermite(n, grid), None),
        ("hermite_rows", lambda n: S.specfun.hermite_rows(n, grid), None),
        ("hermite_coefficients", S.specfun.hermite_coefficients, None),
    ]
    for name, call, top in indexed:
        for n in (2.5, np.float64(2.0), -1) + (() if top is None else (top, top + 1)):
            add(f"{name}[index {n!r}]", call, n)
    for n in (300, 301):    # a sector's last index is its coefficient count less one
        add(f"evolve_sector[{n + 1} coefficients]", S.evolve_sector, pts["II"], [], [1.0] * (n + 1),
            0.5, grid)

    # the command line; imported by name, since a package need not import its cli itself
    cli = importlib.import_module(f"{S.__name__}.cli")
    for name, argv, _ in readme_cases():
        add(f"cli[{name}]", run_command_line, cli, argv)
    barrier_flags = ["--omega", "1", "--alpha", "-2", "--beta", "-0.5"]
    for name, argv in (
            ("ep-sweep beta nan", ["ep-sweep", "--mode", "ep", "--omega", "1", "--beta", "nan"]),
            ("states grid-points 0", ["states", *barrier_flags, "--continuum-energy", "0.5",
                                      "--grid-points", "0"]),
            ("evolve t-steps 0", ["evolve", "--omega", "1", "--alpha", "0.2", "--beta", "0.1",
                                  "--t-steps", "0"])):
        add(f"cli[{name}]", run_command_line, cli, argv)
    return rows


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _packed_rows(rows) -> tuple:
    """Surface rows as arrays: the four float columns (a None mass as 0.0), where the mass
    is None, and the region values."""
    a, b, omega_sq, mass, region = zip(*rows)
    none = np.array([m is None for m in mass])
    mass = np.array([0.0 if m is None else m for m in mass])
    return np.array([a, b, omega_sq]), mass, none, np.array([r.value for r in region])


def _run(thunk):
    """The call's value, or ('raised', type name, message) for the error it raised."""
    try:
        return thunk()
    except Exception as exc:        # a refusal is a result to compare too
        return ("raised", type(exc).__name__, str(exc))


def _refused(result) -> bool:
    return isinstance(result, tuple) and len(result) == 3 and result[0] == "raised"


def canonical(value):
    """value as nested tuples that are equal exactly when the two values are equal byte for
    byte: arrays by dtype, shape and bytes, numbers by type and bytes (so signed zeros
    count), dataclasses by class name and fields."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, np.ascontiguousarray(value).tobytes())
    if isinstance(value, enum.Enum):
        return ("enum", type(value).__name__, value.value)
    if isinstance(value, (bool, int, str, bytes, type(None))):
        return (type(value).__name__, value)
    if isinstance(value, (float, complex, np.number)):
        return (type(value).__name__, np.asarray(value).tobytes())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                tuple((f.name, canonical(getattr(value, f.name))) for f in dataclasses.fields(value)))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(canonical(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple((k, canonical(v)) for k, v in value.items()))
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _numbers(value) -> list[np.ndarray]:
    """The numeric leaves of value, in the order canonical visits them."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "biufc":
        return [value.astype(complex).ravel()]
    if isinstance(value, (float, complex, np.number)) or (isinstance(value, int)
                                                         and not isinstance(value, bool)):
        return [np.array([value], dtype=complex)]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in _numbers(getattr(value, f.name))]
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _numbers(v)]
    if isinstance(value, dict):
        return [a for v in value.values() for a in _numbers(v)]
    return []


def _change(new, old) -> tuple[float | None, float | None]:
    """Largest absolute and relative change of the numeric leaves, or (None, None) where the
    two results do not line up; relative to the larger magnitude, so it is at most 2."""
    a, b = _numbers(new), _numbers(old)
    if len(a) != len(b) or any(x.shape != y.shape for x, y in zip(a, b)):
        return None, None
    if not a:
        return 0.0, 0.0
    x, y = np.concatenate(a), np.concatenate(b)
    with np.errstate(all="ignore"):
        diff = np.abs(x - y)
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.where(diff > 0.0, diff / scale, 0.0)
    same = (x == y) | (np.isnan(x) & np.isnan(y))     # equal infinities differ by NaN
    diff, rel = np.where(same, 0.0, diff), np.where(same, 0.0, rel)
    return float(np.max(diff)), float(np.max(rel))


def compare(new_pkg, old_pkg, quick: bool = False) -> dict:
    """Run the call table on both packages; the JSON summary described in the module docstring."""
    new_rows, old_rows = call_table(new_pkg, quick), call_table(old_pkg, quick)
    if [n for n, _ in new_rows] != [n for n, _ in old_rows]:
        raise RuntimeError("the two trees built different call tables")
    differ = []
    for (name, new_call), (_, old_call) in zip(new_rows, old_rows):
        new, old = _run(new_call), _run(old_call)
        if canonical(new) != canonical(old):
            refusals = [": ".join(r[1:]) if _refused(r) else None for r in (new, old)]
            max_abs, max_rel = _change(new, old) if refusals == [None, None] else (None, None)
            differ.append({"call": name, "max_abs": max_abs, "max_rel": max_rel,
                           **({"raised": refusals} if any(refusals) else {})})
    return {"compared": len(new_rows), "equal": len(new_rows) - len(differ), "differ": differ}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision whose src/swanson is the old side")
    parser.add_argument("new", nargs="?", help="git revision for the new side (default: this tree)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "src"))
    import swanson

    with tempfile.TemporaryDirectory() as tmp:
        parent = load_revision(args.rev, Path(tmp))
        new = swanson if args.new is None else load_revision(args.new, Path(tmp), "swanson_new")
        summary = {"rev": args.rev, "new": args.new or "this tree", **compare(new, parent)}
    print(json.dumps(summary, indent=1))
    return 0 if summary["equal"] == summary["compared"] else 1


if __name__ == "__main__":
    sys.exit(main())
