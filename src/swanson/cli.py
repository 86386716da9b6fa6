"""Command-line front end.

Every subcommand is deterministic: identical invocations produce
byte-identical files (floats are emitted with %.17g, text is UTF-8 with LF
line endings, JSON objects carry a schema version).  Results are written to
--output when given (relative paths resolve against $SWANSON_OUTDIR if set)
and a human-readable summary always goes to standard output.

Exit codes: 0 success, 2 usage error, 1 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

# the rest of the library, and numpy, load in the commands that use them
from . import core
from .core import ModelParams
from .errors import NonConvergentError, RegionError, SwansonError

SCHEMA = 1


def _fmt(value, field: str) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonConvergentError(f"non-finite value {value!r} in column {field!r}")
        return "%.17g" % value
    return str(value)


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get("SWANSON_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _write_text(path: str | None, text, what: str) -> None:
    """text, one str or an iterable of them written in turn, to path or to stdout."""
    chunks = (text,) if isinstance(text, str) else text
    path = _resolve_output(path)
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        print(f"wrote {what} to {path}")


def _csv_lines(header: list[str], rows):
    """The lines of the CSV table, one at a time, each ending in a newline, as _fmt writes
    each value: a row is one % template for the types of its values.  A line that reads
    inf or nan is written again through _fmt, which names a non-finite column."""
    yield ",".join(header) + "\n"
    templates = {}
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in templates:
            templates[kinds] = ",".join("%.17g" if issubclass(k, float) else "%s" for k in kinds) + "\n"
        line = templates[kinds] % tuple(row)
        if "inf" in line or "nan" in line:     # a non-finite float, or text that reads like one
            line = ",".join(_fmt(v, field) for field, v in zip(header, row)) + "\n"
        yield line


def _csv(header: list[str], rows) -> str:
    return "".join(_csv_lines(header, rows))


def _nonfinite_field(obj, path: str = "") -> str | None:
    """Path of the first NaN or infinite float in a JSON-able object, else None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = ((f"{path}.{key}" if path else key, value) for key, value in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(obj))
    else:
        return None
    for sub, value in items:
        found = _nonfinite_field(value, sub)
        if found is not None:
            return found
    return None


def _json_text(obj: dict) -> str:
    try:
        return json.dumps({"schema": SCHEMA, **obj}, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise NonConvergentError(
            f"non-finite value in field {_nonfinite_field(obj)!r}") from None


def _params(args) -> ModelParams:
    return ModelParams(args.omega, args.alpha, args.beta, args.b0, args.hbar)


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega", type=float, required=True)
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--b0", type=float, default=1.0)
    parser.add_argument("--hbar", type=float, default=1.0)


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", default=None,
                        help="output file (relative paths resolve against $SWANSON_OUTDIR)")


def _add_format(parser: argparse.ArgumentParser, default: str | None = "csv") -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=default)


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value!r}")
    return value


def _count(value: int, flag: str) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    return value


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _select_mode(args, modes: dict[str, dict], chosen: str | None = None,
                 where: str = "") -> None:
    """Pick the mode of a command that has several, and fill in its flags.

    modes maps each mode to the flags it reads (dest -> default; their parser
    default is None).  A caller that picks the mode itself passes it as chosen,
    with where naming the choice ("in Region II").  Otherwise every mode but
    the first is keyed by the flag that chooses it; with none of those given,
    the first is taken.  A flag that the chosen mode does not read is a usage
    error.
    """
    plain, *triggered = modes
    by_flag = chosen is None
    if by_flag:
        chosen = next((mode for mode in triggered if getattr(args, mode) is not None), plain)
        where = f"with {_flag(chosen)}"
    for mode, flags in modes.items():
        for dest in flags:
            if dest not in modes[chosen] and getattr(args, dest) is not None:
                raise ValueError(f"{_flag(dest)} needs {_flag(mode)}" if by_flag and chosen == plain
                                 else f"{_flag(dest)} is not used {where}")
    for dest, default in modes[chosen].items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def _complex_list(text: str) -> list[complex]:
    if not text:
        return []
    return [complex(tok) for tok in text.split(",")]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    label = core.classify(_params(args), args.tol)
    print(label.pretty())
    return 0


def _cmd_derive(args) -> int:
    d = core.derive(_params(args))
    obj = {
        "omega_cap_re": d.omega_cap.real,
        "omega_cap_im": d.omega_cap.imag,
        "omega_sq": d.omega_sq,
        "m_eff": d.m_eff,
        "k_stiff": d.k_stiff,
        "sigma": d.sigma,
        "upsilon_coeff": d.upsilon_coeff,
        "tau_coeff": d.tau_coeff,
    }
    text = _json_text(obj)
    _write_text(args.output, text, "derived quantities")
    if args.output:
        print(text, end="")
    return 0


def _cmd_surface(args) -> int:
    rows = core.surface_grid(args.range, args.n)
    if args.format == "csv":
        # the text is streamed (a 1001 x 1001 grid is 76 MB), so the error _fmt would raise
        # comes first, before any byte: surface_grid refuses a non-finite coordinate itself
        isfinite = math.isfinite
        for r in rows:
            if not (isfinite(r.omega_sq) and (r.mass is None or isfinite(r.mass))):
                _fmt(r.omega_sq, "omega_sq")
                _fmt(r.mass, "mass")
        body = _csv_lines(
            ["alpha_over_omega", "beta_over_omega", "omega_sq", "mass", "region"],
            ((r.alpha_over_omega, r.beta_over_omega, r.omega_sq,
              "" if r.mass is None else r.mass, r.region.value)
             for r in rows),
        )
    else:
        body = _json_text({"rows": [
            {"alpha_over_omega": r.alpha_over_omega, "beta_over_omega": r.beta_over_omega,
             "omega_sq": r.omega_sq, "mass": r.mass, "region": r.region.value}
            for r in rows
        ]})
    _write_text(args.output, body, f"{len(rows)}-point surface grid")
    print(f"grid points: {len(rows)}")
    return 0


def _grid(args):
    import numpy as np

    grid_max = _finite(args.grid_max, "--grid-max")
    return np.linspace(-grid_max, grid_max, _count(args.grid_points, "--grid-points"))


# the flags each mode of a command reads, with their defaults
_STATES_MODES = {
    "discrete": {"nmax": 5, "format": "csv"},
    "continuum_energy": {"continuum_energy": None, "side": "+", "kind": "phi",
                         "grid_max": 6.0, "grid_points": 201},
    "ep": {"ep": None},
    "free_energy": {"free_energy": None, "amp_plus": 1.0, "amp_minus": 0.0},
}
_POLES_MODES = {
    "scan": {"nscan": 3, "samples": 200, "format": "csv", "output": None},
    "probe_width": {"probe_width": None, "probe_e0": 0.0},
}
_RECONSTRUCT_MODES = {
    "oscillator": {"center": 0.5, "width": 1.0},
    "sector": {"sector": None, "modes": "0:1"},
}
_EVOLVE_MODES = {      # the region picks the mode
    "expectation": {"coeffs": "1,1", "kind": "X", "t_max": 10.0, "t_steps": 101},
    "sector": {"minus_coeffs": "", "plus_coeffs": "1", "time": 0.0,
               "grid_max": 6.0, "grid_points": 201},
}
_EP_SWEEP_MODES = {    # --mode picks the mode
    "boundary": {"alpha": 0.75, "n": 0, "branch": "plus", "g_values": "10,100,1000"},
    "ep": {"omega": 1.0, "n": 0, "side": "I", "eps_values": "0.1,0.01,0.001"},
    "spectrum": {"omega": 1.0, "nmax": 3, "eps_values": "0.1,0.01,0.001"},
}


def _cmd_states(args) -> int:
    _select_mode(args, _STATES_MODES)
    p = _params(args)
    if args.continuum_energy is not None:
        from . import continuum
        from .eigensystems import evaluate

        state = continuum.continuum_state(p, args.continuum_energy, args.side, args.kind)
        x = _grid(args)
        vals = evaluate(state, x, p)
        body = _csv(["x", "re_value", "im_value"],
                    ((float(xx), float(v.real), float(v.imag)) for xx, v in zip(x, vals)))
        _write_text(args.output, body, "continuum state values")
        print(f"continuum state at E={args.continuum_energy:g}, side {args.side}, kind {args.kind}")
        return 0
    if args.ep is not None:
        from .eigensystems import ep_states

        c0, c1, d0, d1 = args.ep
        spec = ep_states(p, c0, c1, d0, d1)
        body = _json_text({"states": [spec.to_dict()],
                           "exponent_coefficient": float(spec.right_fn.gauss.real)})
        _write_text(args.output, body, "exceptional-point state")
        print("E = 0 coalescent pair emitted")
        return 0
    if args.free_energy is not None:
        from .eigensystems import free_particle_states

        spec = free_particle_states(p, args.free_energy, args.amp_plus, args.amp_minus)
        k = complex(spec.right_fn.k_wave)
        body = _json_text({"states": [spec.to_dict()], "k_re": k.real, "k_im": k.imag,
                           "evanescent": spec.right_fn.evanescent})
        _write_text(args.output, body, "free-particle state")
        print(f"free-particle state, k = {k.real:g}{k.imag:+g}i")
        return 0

    from .eigensystems import discrete_states

    states = discrete_states(p, args.nmax)
    records = [s.to_dict() for s in states]
    if args.format == "json":
        body = _json_text({"params": dataclasses.asdict(p), "states": records})
    else:
        body = _csv(["n", "branch", "energy_re", "energy_im", "variant"],
                    ((r["n"], r["branch"] or "", r["energy_re"], r["energy_im"], r["variant"])
                     for r in records))
    _write_text(args.output, body, f"{len(records)} states")
    print(f"{states[0].region.pretty()}: {len(records)} discrete states up to n = {args.nmax}")
    return 0


def _cmd_gram(args) -> int:
    from . import pairing

    p = _params(args)
    report = pairing.gram(p, args.nmax, args.which)
    if args.format == "json":
        body = _json_text({
            "n_max": report.n_max,
            "which": report.which,
            "max_offdiag": report.max_offdiag,
            "max_diag_err": report.max_diag_err,
            "matrix_re": report.matrix.real.tolist(),
            "matrix_im": report.matrix.imag.tolist(),
        })
    else:
        body = _csv(["row", "col", "re_value", "im_value"],
                    ((m, n, float(report.matrix[m, n].real), float(report.matrix[m, n].imag))
                     for m in range(report.matrix.shape[0])
                     for n in range(report.matrix.shape[1])))
    _write_text(args.output, body, "gram matrix")
    print(f"max off-diagonal {report.max_offdiag:.3e}, max diagonal error {report.max_diag_err:.3e}")
    return 0


def _cmd_reconstruct(args) -> int:
    _select_mode(args, _RECONSTRUCT_MODES)
    p = _params(args)
    label = core.classify(p)
    if args.sector is not None:
        from . import continuum

        branch = "-" if args.sector == "minus" else "+"
        modes = [(complex(coeff), continuum.stripped_discrete_function(p, int(idx), branch))
                 for idx, coeff in (tok.split(":") for tok in args.modes.split(","))]
        coeffs, sup_error = continuum.resonant_expansion(p, modes, args.nmax, args.sector)
    else:
        import numpy as np

        from . import pairing

        center, width = _finite(args.center, "--center"), _finite(args.width, "--width")
        if width <= 0.0:
            raise ValueError(f"--width must be positive, got {width!r}")

        def target(x):
            return np.exp(-((x - center) / width) ** 2)

        coeffs, sup_error = pairing.reconstruct(p, target, args.nmax)
    body = _csv(["n", "re_coeff", "im_coeff"],
                ((n, float(c.real), float(c.imag)) for n, c in enumerate(coeffs)))
    _write_text(args.output, body, "expansion coefficients")
    print(f"{label.pretty()}: truncation sup-error {sup_error:.3e}")
    return 0


def _cmd_poles(args) -> int:
    from . import continuum

    _select_mode(args, _POLES_MODES)
    p = _params(args)
    if args.probe_width is not None:
        value = continuum.delta_normalization_probe(p, args.probe_e0, args.probe_width)
        print(f"delta-normalization probe at E0={args.probe_e0:g}, "
              f"width {args.probe_width:g}: {value.real:.6f}{value.imag:+.6f}i")
        return 0
    report = continuum.pole_scan(p, args.nscan, args.samples)
    if args.format == "json":
        body = _json_text({"detected_poles": report.detected_poles.tolist(),
                           "im_energy": report.energies_imag.tolist(),
                           "log_abs_gamma": report.log_gamma_magnitude.tolist()})
    else:
        body = _csv(["im_E", "log_abs_gamma"],
                    ((float(y), float(g)) for y, g in
                     zip(report.energies_imag, report.log_gamma_magnitude)))
    _write_text(args.output, body, "pole scan")
    print("detected poles at |Im E|/(hbar |Omega|):",
          ", ".join(f"{v:g}" for v in report.detected_poles))
    return 0


def _cmd_evolve(args) -> int:
    from . import dynamics

    p = _params(args)
    label = core.classify(p)
    barrier = label in core.BARRIER
    _select_mode(args, _EVOLVE_MODES, "sector" if barrier else "expectation",
                 f"in {label.pretty()}")
    if barrier:
        x = _grid(args)
        vals = dynamics.evolve_sector(p, _complex_list(args.minus_coeffs),
                                      _complex_list(args.plus_coeffs), args.time, x)
        body = _csv(["x", "re_value", "im_value"],
                    ((float(xx), float(v.real), float(v.imag)) for xx, v in zip(x, vals)))
        _write_text(args.output, body, "sector evolution profile")
        print(f"{label.pretty()}: sector profile at t = {args.time:g}")
        return 0

    import numpy as np

    coeffs = _complex_list(args.coeffs)
    state = dynamics.make_state(p, coeffs)
    kind = dynamics.ObservableKind(args.kind)
    times = np.linspace(0.0, _finite(args.t_max, "--t-max"), _count(args.t_steps, "--t-steps"))
    values = dynamics.evolve_expectation(state, kind, p, times)
    body = _csv(["t", "re_value", "im_value"],
                zip(times.tolist(), values.real.tolist(), values.imag.tolist()))
    meta = _json_text({"kind": args.kind, "t_max": args.t_max, "t_steps": args.t_steps,
                       "metric_norm": dynamics.metric_norm(state, p),
                       "params": dataclasses.asdict(p)})
    _write_text(args.output, body, "expectation time series")
    print(meta, end="")
    return 0


def _cmd_ep_sweep(args) -> int:
    from . import ep_analysis

    _select_mode(args, _EP_SWEEP_MODES, args.mode, f"with --mode {args.mode}")
    if args.mode == "boundary":
        report = ep_analysis.sweep_to_boundary_i_iii(
            args.alpha, args.beta, args.n, args.branch, _float_list(args.g_values),
            args.b0, args.hbar)
    elif args.mode == "ep":
        report = ep_analysis.sweep_to_ep(
            args.omega, args.beta, args.n, args.side, _float_list(args.eps_values),
            b0=args.b0, hbar=args.hbar)
    else:
        rows = ep_analysis.ep_spectrum_flow(args.omega, args.beta, args.nmax,
                                            _float_list(args.eps_values), args.b0, args.hbar)
        body = _csv(["eps", "n", "energy_side1", "re_E_side2_plus", "im_E_side2_plus"],
                    ((r.eps, r.n, r.energy_side1, r.energy_side2_plus.real,
                      r.energy_side2_plus.imag) for r in rows))
        _write_text(args.output, body, "spectrum flow table")
        print(f"{len(rows)} spectrum-flow rows")
        return 0
    body = _csv(["param", "distance", "re_E", "im_E"],
                ((float(g), float(d), float(e.real), float(e.imag))
                 for g, d, e in zip(report.parameter_values, report.distances, report.energies)))
    _write_text(args.output, body, "limit sweep report")
    print("final distance: %.3e" % report.distances[-1])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swanson",
        description="Spectral toolkit for the Swanson oscillator: classify the parameter "
                    "space, build generalized eigenfunctions, verify biorthogonality, and "
                    "run resonance and exceptional-point analyses.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="region/boundary label of a parameter point")
    _add_params(c)
    c.add_argument("--tol", type=float, default=core.DEFAULT_TOL)
    c.set_defaults(func=_cmd_classify)

    c = sub.add_parser("derive", help="derived scalar quantities")
    _add_params(c)
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=_cmd_derive)

    c = sub.add_parser("surface", help="classification grid over (alpha/omega, beta/omega)")
    c.add_argument("--range", type=float, default=2.0)
    c.add_argument("--n", type=int, default=101)
    _add_output(c)
    _add_format(c)
    c.set_defaults(func=_cmd_surface)

    c = sub.add_parser("states", help="discrete, continuum, EP, or free-particle states")
    _add_params(c)
    c.add_argument("--nmax", type=int)
    c.add_argument("--continuum-energy", type=float)
    c.add_argument("--side", choices=("+", "-"))
    c.add_argument("--kind", choices=("phi", "eta", "phi_tilde", "psi_bar"))
    c.add_argument("--ep", type=float, nargs=4, metavar=("C0", "C1", "D0", "D1"))
    c.add_argument("--free-energy", type=float)
    c.add_argument("--amp-plus", type=float)
    c.add_argument("--amp-minus", type=float)
    c.add_argument("--grid-max", type=float)
    c.add_argument("--grid-points", type=int)
    _add_output(c)
    _add_format(c, default=None)
    c.set_defaults(func=_cmd_states)

    c = sub.add_parser("gram", help="bi-orthogonality or metric gram matrix")
    _add_params(c)
    c.add_argument("--nmax", type=int, default=8)
    c.add_argument("--which", choices=("right-left", "metric"), default="right-left")
    _add_output(c)
    _add_format(c)
    c.set_defaults(func=_cmd_gram)

    c = sub.add_parser("reconstruct", help="basis expansion of a test function")
    _add_params(c)
    c.add_argument("--nmax", type=int, default=20)
    c.add_argument("--center", type=float)
    c.add_argument("--width", type=float)
    c.add_argument("--sector", choices=("minus", "plus"),
                   help="barrier-region resonant expansion instead of the oscillator basis")
    c.add_argument("--modes", help="barrier target as comma-separated n:coefficient pairs")
    _add_output(c)
    c.set_defaults(func=_cmd_reconstruct)

    c = sub.add_parser("poles", help="gamma-pole scan (and delta-normalization probe)")
    _add_params(c)
    c.add_argument("--nscan", type=int)
    c.add_argument("--samples", type=int)
    c.add_argument("--probe-e0", type=float)
    c.add_argument("--probe-width", type=float)
    _add_output(c)
    _add_format(c, default=None)
    c.set_defaults(func=_cmd_poles)

    c = sub.add_parser("evolve", help="expectation-value or resonant-sector time evolution")
    _add_params(c)
    c.add_argument("--coeffs", help="state coefficients (Regions I/III)")
    c.add_argument("--kind", choices=[k.value for k in core.ObservableKind])
    c.add_argument("--t-max", type=float)
    c.add_argument("--t-steps", type=int)
    c.add_argument("--minus-coeffs", help="growing-sector coefficients (II/IV)")
    c.add_argument("--plus-coeffs", help="decaying-sector coefficients (II/IV)")
    c.add_argument("--time", type=float)
    c.add_argument("--grid-max", type=float)
    c.add_argument("--grid-points", type=int)
    _add_output(c)
    c.set_defaults(func=_cmd_evolve)

    c = sub.add_parser("ep-sweep", help="limit sweeps onto the boundary strata")
    c.add_argument("--mode", choices=("boundary", "ep", "spectrum"), required=True)
    c.add_argument("--omega", type=float)
    c.add_argument("--alpha", type=float)
    c.add_argument("--beta", type=float, default=0.25)
    c.add_argument("--b0", type=float, default=1.0)
    c.add_argument("--hbar", type=float, default=1.0)
    c.add_argument("--n", type=int)
    c.add_argument("--nmax", type=int)
    c.add_argument("--branch", choices=("plus", "minus"))
    c.add_argument("--side", choices=("I", "II"))
    c.add_argument("--g-values")
    c.add_argument("--eps-values")
    _add_output(c)
    c.set_defaults(func=_cmd_ep_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RegionError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SwansonError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
