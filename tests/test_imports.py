"""What the package and each command line import: the public names of ``swanson``
load on first use, and a command loads only the modules, and numpy only where, it
runs them."""

import argparse
import importlib
import json
import os
import subprocess
import sys

import pytest

import swanson
from swanson import ObservableKind
from swanson.cli import build_parser, main
from readme_cases import readme_cases

# the public names of the package, by the module that defines them
EXPORTS = {
    "core": {"DEFAULT_TOL", "DerivedQuantities", "ModelParams", "RegionLabel", "SurfaceRow",
             "classify", "derive", "surface_grid"},
    "errors": {"DeltaDerivNotEvaluableError", "NonConvergentError", "PoleError", "RegionError",
               "SingularParameterError", "SwansonError"},
    "specfun": {"QuadratureRule", "gauss_hermite", "hermite", "log_gamma",
                "parabolic_cylinder_d", "recip_gamma"},
    "eigensystems": {"CylinderState", "DeltaDeriv", "EigenstateSpec", "GaussPoly",
                     "PlaneWaveGauss", "apply_hamiltonian", "apply_oscillator",
                     "conjugate_function", "discrete_states", "ep_states", "evaluate",
                     "free_particle_states"},
    "pairing": {"GramReport", "gram", "metric_pair", "pair", "reconstruct"},
    "continuum": {"PoleScanReport", "continuum_norm_constant", "continuum_state",
                  "delta_normalization_probe", "pole_scan", "resonant_expansion",
                  "stripped_discrete_function"},
    "dynamics": {"ObservableKind", "StateVector", "apply_observable", "evolve_expectation",
                 "evolve_sector", "make_state", "matrix_element", "metric_norm"},
    "ep_analysis": {"FlowEntry", "LimitSweepReport", "ep_spectrum_flow",
                    "sweep_to_boundary_i_iii", "sweep_to_ep"},
}

BASE = {"swanson", "swanson.cli", "swanson.core", "swanson.errors"}
LADDER = {"swanson.eigensystems", "swanson.specfun"}
PAIRED = LADDER | {"swanson.pairing"}
RESONANT = PAIRED | {"swanson.continuum"}

# the swanson modules beyond BASE, and whether numpy loads, per README command line
LOADS = {
    "00-classify": (set(), False),
    "01-derive": (set(), False),
    "02-surface": (set(), True),
    "03-states": (LADDER, True),
    "04-states": (RESONANT, True),
    "05-states": (LADDER, True),
    "06-states": (LADDER, True),
    "07-gram": (PAIRED, True),
    "08-reconstruct": (PAIRED, True),
    "09-reconstruct": (RESONANT, True),
    "10-poles": (RESONANT, True),
    "11-poles": (RESONANT, True),
    "12-evolve": (LADDER | {"swanson.dynamics"}, True),
    "13-evolve": (LADDER | {"swanson.dynamics"}, True),
    "14-ep-sweep": (PAIRED | {"swanson.ep_analysis"}, True),
    "15-ep-sweep": (PAIRED | {"swanson.ep_analysis"}, True),
    "16-ep-sweep": (PAIRED | {"swanson.ep_analysis"}, True),
}

# runs `python -m swanson ARGS` in this interpreter, then writes what it imported to REPORT
PROBE = """
import json, runpy, sys
report, sys.argv = sys.argv[1], ["swanson", *sys.argv[2:]]
try:
    runpy.run_module("swanson", run_name="__main__")
except SystemExit as exc:
    code = exc.code
with open(report, "w") as fh:
    json.dump({"code": code, "numpy": "numpy" in sys.modules,
               "swanson": sorted(m for m in sys.modules if m.split(".")[0] == "swanson")}, fh)
"""


def test_all_is_the_set_of_names_the_package_exported():
    assert set(swanson.__all__) == set().union(*EXPORTS.values())
    assert len(swanson.__all__) == len(set(swanson.__all__))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_object_of_its_module(module):
    mod = importlib.import_module(f"swanson.{module}")
    for name in EXPORTS[module]:
        assert getattr(swanson, name) is getattr(mod, name), name


def test_star_import_submodules_and_unknown_names():
    namespace = {}
    exec("from swanson import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(swanson.__all__)
    assert swanson.specfun is sys.modules["swanson.specfun"]
    assert swanson.specfun.gauss_hermite is swanson.gauss_hermite
    assert set(swanson.__all__) | set(EXPORTS) <= set(dir(swanson))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        swanson.no_such_name    # noqa: B018
    assert not hasattr(swanson, "cli_main")


# after each step: the swanson modules, whether numpy is loaded, whether the package still
# has its lookup function, and how many public names it holds
STAGES = """
import json, sys
def stage():
    names = vars(sys.modules["swanson"])
    print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "swanson"),
                      "numpy" in sys.modules, "__getattr__" in names,
                      sum(name in names for name in names["__all__"])]))
import swanson
stage()
swanson.core, swanson.errors
stage()
swanson.classify
stage()
"""


def test_a_module_loads_alone_and_a_public_name_loads_the_library():
    out = subprocess.run([sys.executable, "-c", STAGES], capture_output=True, text=True,
                         check=True)
    imported, modules, name = (json.loads(line) for line in out.stdout.splitlines())
    assert imported == [["swanson"], False, True, 0]
    assert modules == [["swanson", "swanson.core", "swanson.errors"], False, True, 0]
    every_module = sorted({"swanson"} | {f"swanson.{module}" for module in EXPORTS})
    assert name == [every_module, True, False, len(swanson.__all__)]


def test_the_package_never_imports_mpmath():
    # mpmath is a test oracle only; the Weber continuum is the likeliest place to reach for it
    probe = ("import importlib, sys\n"
             f"for module in {sorted(EXPORTS)!r} + ['cli']:\n"
             "    importlib.import_module('swanson.' + module)\n"
             "import swanson as S\n"
             "p = S.ModelParams(1.0, -2.0, -0.5)\n"
             "S.evaluate(S.continuum_state(p, 1.3, '+', 'phi'), [-3.0, 0.0, 2.5], p)\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'swanson'))\n"
             "print('mpmath' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    modules, mpmath_loaded = out.stdout.splitlines()
    assert modules == repr(sorted({"swanson", "swanson.cli"} | {f"swanson.{m}" for m in EXPORTS}))
    assert mpmath_loaded == "False"


def _loads(tmp_path, argv: list[str]) -> tuple[int, set, bool]:
    report = tmp_path / "report.json"
    env = {**os.environ, "SWANSON_OUTDIR": str(tmp_path)}
    subprocess.run([sys.executable, "-c", PROBE, str(report), *argv], env=env,
                   capture_output=True, check=True)
    got = json.loads(report.read_text())
    return got["code"], set(got["swanson"]), got["numpy"]


@pytest.mark.parametrize("name,argv", [(name, argv) for name, argv, _ in readme_cases()],
                         ids=[name for name, _, _ in readme_cases()])
def test_each_readme_command_loads_only_what_it_runs(tmp_path, name, argv):
    extra, numpy = LOADS[name]
    assert _loads(tmp_path, argv) == (0, BASE | extra, numpy)


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0),
    (["classify", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--tol", "nan"], 2),
    (["classify", "--omega", "1", "--alpha", "0.2"], 2),
    (["surface", "--n", "1"], 2),       # the core guards refuse without numpy
], ids=["help", "classify-tol-nan", "missing-flag", "surface-n-1"])
def test_help_and_usage_errors_load_no_numpy(tmp_path, argv, code):
    assert _loads(tmp_path, argv) == (code, BASE, False)


def test_evolve_kind_choices_are_the_observable_kinds(capsys):
    parser = build_parser()
    evolve = parser._subparsers._group_actions[0].choices["evolve"]
    kind = next(action for action in evolve._actions if action.dest == "kind")
    assert list(kind.choices) == [k.value for k in ObservableKind]

    # the message argparse gives for choices built from the enum, as they once were
    reference = argparse.ArgumentParser(prog="swanson evolve")
    reference.add_argument("--kind", choices=[k.value for k in ObservableKind])
    with pytest.raises(SystemExit):
        reference.parse_args(["--kind", "Y"])
    expected = capsys.readouterr().err.splitlines()[-1]
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--kind", "Y"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == expected
