import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


def run_cli(*args: str, env=None, timeout=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "swanson", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)


def test_classify_stdout():
    cp = run_cli("classify", "--omega", "1", "--alpha", "0.2", "--beta", "0.1")
    assert cp.returncode == 0
    assert cp.stdout.strip() == "Region I"


def test_classify_boundary():
    cp = run_cli("classify", "--omega", "1", "--alpha", "0.6", "--beta", "0.4")
    assert cp.returncode == 0
    assert cp.stdout.strip() == "Boundary I-III"


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-12"])
def test_classify_tol_that_is_not_positive_is_a_usage_error(tol):
    cp = run_cli("classify", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", f"--tol={tol}")
    assert cp.returncode == 2
    assert "tol must be positive" in cp.stderr
    assert cp.stdout == ""


def test_usage_error_exit_code():
    cp = run_cli("classify", "--omega", "1", "--alpha", "0.2")
    assert cp.returncode == 2


def test_numerical_error_exit_code():
    # a Gram at an Omega = 0 boundary can never work: a RegionError is a usage error
    cp = run_cli("gram", "--omega", "1", "--alpha", "-0.125", "--beta", "-2", "--nmax", "3")
    assert cp.returncode == 2
    assert "usage error" in cp.stderr


@pytest.mark.parametrize("args", [
    ["gram", "--omega", "1", "--alpha", "0.2", "--beta", "0.1"],
    ["reconstruct", "--omega", "1", "--alpha", "0.2", "--beta", "0.1"],
    ["reconstruct", "--omega", "1", "--alpha", "-2", "--beta", "-0.5", "--sector", "minus"],
], ids=["gram", "reconstruct", "reconstruct-sector"])
def test_nonfinite_quadrature_exits_one(args):
    # order 4 n_max + 40 = 440 is past where the Gauss-Hermite weights turn NaN
    cp = run_cli(*args, "--nmax", "100")
    assert cp.returncode == 1, cp.stdout
    assert "numerical failure" in cp.stderr


@pytest.mark.parametrize("args,name", [
    (["ep-sweep", "--mode", "boundary", "--alpha", "0.75", "--beta", "0.25", "--n", "116",
      "--branch", "minus", "--g-values", "10,100"], "n"),
    (["gram", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--nmax", "116"], "n_max"),
    (["reconstruct", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--nmax", "116"],
     "n_max"),
    (["reconstruct", "--omega", "1", "--alpha", "-2", "--beta", "-0.5", "--sector", "minus",
      "--nmax", "116"], "n_max"),
    (["ep-sweep", "--mode", "boundary", "--n", "171", "--branch", "minus"], "n"),
], ids=["ep-sweep", "gram", "reconstruct", "reconstruct-sector", "ep-sweep-171"])
def test_index_past_the_pairing_rules_names_the_flag(args, name):
    # a degree-116 state would need 504 Gauss-Hermite nodes; the user gave an
    # index, not a rule order, so the message names the index and its reach
    cp = run_cli(*args, "-o", "/dev/null")
    assert cp.returncode == 2, cp.stderr
    assert f"usage error: {name} must be at most 115" in cp.stderr
    assert "order" not in cp.stderr and "Traceback" not in cp.stderr


@pytest.mark.parametrize("args,name", [
    (["states", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--nmax", "301"], "n_max"),
    (["ep-sweep", "--mode", "ep", "--n", "301"], "n"),
    (["ep-sweep", "--mode", "spectrum", "--nmax", "301"], "n_max"),
    (["reconstruct", "--omega", "1", "--alpha", "-2", "--beta", "-0.5", "--sector", "minus",
      "--modes", "301:1"], "n"),
    (["evolve", "--omega", "1", "--alpha", "-2", "--beta", "-0.5",
      "--plus-coeffs", ",".join(["1"] * 302)], "plus-sector index"),
], ids=["states", "ep-sweep-ep", "ep-sweep-spectrum", "reconstruct-modes", "evolve-sector"])
def test_index_past_the_ladder_reach_is_refused_at_once(tmp_path, args, name):
    # 300 is the last n whose Boundary I-III norm 1/sqrt(n!) is a normal float; past it
    # each of these grew memory with the index instead of refusing it
    out = tmp_path / "out.csv"
    cp = run_cli(*args, "-o", str(out), timeout=30)
    assert cp.returncode == 2, cp.stderr
    assert f"usage error: {name} must be at most 300, got 301" in cp.stderr
    assert cp.stdout == "" and not out.exists()


@pytest.mark.parametrize("args,message", [
    (["surface", "--n", "1002"], "n must be at most 1001, got 1002"),
    (["poles", "--omega", "1", "--alpha", "-2", "--beta", "-0.5", "--nscan", "100000"],
     "samples_per_unit * (n_scan + 1) must be at most 1000000, got 200 * 100001 = 20000200"),
], ids=["surface", "poles"])
def test_grid_and_scan_sizes_past_their_tops_are_refused_at_once(tmp_path, args, message):
    # a 1002-point grid side holds about 10^6 rows; the scan asked for about 5 GB
    out = tmp_path / "out.csv"
    cp = run_cli(*args, "-o", str(out), timeout=30)
    assert cp.returncode == 2, cp.stderr
    assert f"usage error: {message}" in cp.stderr
    assert cp.stdout == "" and not out.exists()


def test_gram_far_past_its_reach_is_a_usage_error():
    cp = run_cli("gram", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--nmax", "3000",
                 "-o", "/dev/null", timeout=60)
    assert cp.returncode == 2, cp.stderr
    assert "usage error: n_max must be at most 115" in cp.stderr


@pytest.mark.parametrize("args", [
    ["states", "--omega", "1", "--alpha", "-0.125", "--beta", "-2"],
    ["reconstruct", "--omega", "1", "--alpha", "-2", "--beta", "-0.5"],
    ["poles", "--omega", "1", "--alpha", "0.2", "--beta", "0.1"],
    ["evolve", "--omega", "1", "--alpha", "-0.125", "--beta", "-2"],
], ids=["states-boundary-I-II", "reconstruct-region-II-no-sector", "poles-region-I",
        "evolve-boundary-I-II"])
def test_point_a_command_cannot_serve_exits_two(args):
    cp = run_cli(*args, "-o", "/dev/null")
    assert cp.returncode == 2, cp.stdout
    assert "usage error" in cp.stderr
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("args,name", [
    (["states", "--omega", "1", "--alpha", "-0.125", "--beta", "-2", "--free-energy", "nan"],
     "energy"),
    (["states", "--omega", "1", "--alpha", "-0.125", "--beta", "-2", "--ep", "nan", "0", "1",
      "0"], "c0"),
    (["states", "--omega", "1", "--alpha", "-2", "--beta", "-0.5", "--continuum-energy", "inf"],
     "energy"),
    (["reconstruct", "--omega", "1", "--alpha", "-2", "--beta", "-0.5", "--sector", "minus",
      "--modes=-1:1"], "n"),
    (["reconstruct", "--omega", "1", "--alpha", "-2", "--beta", "-0.5", "--sector", "minus",
      "--nmax", "-1"], "n_max"),
], ids=["free-energy-nan", "ep-nan", "continuum-energy-inf", "negative-mode", "negative-nmax"])
def test_nonfinite_or_negative_state_inputs_exit_two(args, name):
    cp = run_cli(*args, "-o", "/dev/null")
    assert cp.returncode == 2, cp.stderr
    assert cp.stderr.startswith(f"usage error: {name} must be")
    assert "Traceback" not in cp.stderr and cp.stdout == ""


def test_sector_growth_overflow_exits_one():
    cp = run_cli("evolve", "--omega", "1", "--alpha", "-2", "--beta", "-0.5",
                 "--minus-coeffs", "1", "--time", "1000", "-o", "/dev/null")
    assert cp.returncode == 1
    assert "numerical failure" in cp.stderr
    assert "log magnitude" in cp.stderr


@pytest.mark.parametrize("args", [
    ["--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--coeffs", "nan,1"],
    ["--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--coeffs", "inf,1"],
    ["--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--t-max", "inf"],
    ["--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--t-max", "nan"],
    ["--omega", "1", "--alpha", "-2", "--beta", "-0.5", "--plus-coeffs", "nan"],
    ["--omega", "1", "--alpha", "-2", "--beta", "-0.5", "--time", "nan"],
], ids=["coeffs-nan", "coeffs-inf", "t-max-inf", "t-max-nan", "plus-coeffs-nan", "time-nan"])
def test_nonfinite_evolve_inputs_exit_two(tmp_path: Path, args):
    # these printed NaN rows and exited 0
    out = tmp_path / "evolve.csv"
    cp = run_cli("evolve", *args, "-o", str(out))
    assert cp.returncode == 2, cp.stdout
    assert "usage error" in cp.stderr and "must be finite" in cp.stderr
    assert not out.exists()


BARRIER = ["--omega", "1", "--alpha", "-2", "--beta", "-0.5"]
OSCILLATOR = ["--omega", "1", "--alpha", "0.2", "--beta", "0.1"]


@pytest.mark.parametrize("args,name", [
    (["--probe-width", "inf"], "width"),
    (["--probe-width", "nan"], "width"),
    (["--probe-width", "0.346", "--probe-e0", "nan"], "e0"),
    (["--probe-width", "0.346", "--probe-e0", "inf"], "e0"),
], ids=["width-inf", "width-nan", "e0-nan", "e0-inf"])
def test_nonfinite_probe_inputs_exit_two(args, name):
    # these exited 2 with "cannot convert float NaN to integer" (e0 = inf after a warning)
    cp = run_cli("poles", *BARRIER, *args)
    assert cp.returncode == 2, cp.stdout
    assert "usage error" in cp.stderr and f"{name} must be finite" in cp.stderr
    assert "Warning" not in cp.stderr


@pytest.mark.parametrize("args,flag", [
    (["evolve", *BARRIER, "--grid-max", "inf"], "--grid-max"),
    (["evolve", *BARRIER, "--grid-max", "nan"], "--grid-max"),
    (["states", *BARRIER, "--continuum-energy", "1", "--grid-max", "inf"], "--grid-max"),
    (["states", *BARRIER, "--continuum-energy", "1", "--grid-max", "nan"], "--grid-max"),
    (["evolve", *OSCILLATOR, "--t-max", "inf"], "--t-max"),
    (["evolve", *BARRIER, "--grid-points", "0"], "--grid-points"),
    (["states", *BARRIER, "--continuum-energy", "1", "--grid-points", "0"], "--grid-points"),
    (["evolve", *OSCILLATOR, "--t-steps", "0"], "--t-steps"),
    (["reconstruct", *OSCILLATOR, "--width", "0"], "--width"),
], ids=["evolve-grid-inf", "evolve-grid-nan", "states-grid-inf", "states-grid-nan", "t-max-inf",
        "evolve-grid-points-0", "states-grid-points-0", "t-steps-0", "reconstruct-width-0"])
def test_grids_and_targets_are_checked_before_the_library(tmp_path: Path, args, flag):
    # non-finite grids exited 1 after a screen of RuntimeWarnings, empty ones
    # exited 0 with a header-only file, and a zero width divided by zero
    out = tmp_path / "out.csv"
    cp = run_cli(*args, "-o", str(out))
    assert cp.returncode == 2, cp.stdout
    assert "usage error" in cp.stderr and flag in cp.stderr
    assert "Warning" not in cp.stderr
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["reconstruct", *OSCILLATOR, "--format", "json"], "unrecognized arguments"),
    (["evolve", *OSCILLATOR, "--format", "json"], "unrecognized arguments"),
    (["ep-sweep", "--mode", "spectrum", "--format", "json"], "unrecognized arguments"),
    (["states", *BARRIER, "--continuum-energy", "1", "--format", "json"],
     "--format is not used with --continuum-energy"),
    (["states", "--omega", "1", "--alpha", "-0.125", "--beta", "-2", "--ep", "1", "0", "1", "0",
      "--format", "csv"], "--format is not used with --ep"),
    (["states", "--omega", "1", "--alpha", "-0.125", "--beta", "-2", "--free-energy", "1",
      "--format", "json"], "--format is not used with --free-energy"),
    (["states", *BARRIER, "--nmax", "2", "--grid-points", "11"], "--grid-points needs"),
    (["poles", *BARRIER, "--probe-width", "0.346", "--format", "json"],
     "--format is not used with --probe-width"),
    (["poles", *BARRIER, "--probe-width", "0.346", "-o", "probe.csv"],
     "--output is not used with --probe-width"),
    (["poles", *BARRIER, "--probe-e0", "1"], "--probe-e0 needs --probe-width"),
    (["evolve", *BARRIER, "--coeffs", "1,1", "-o", "out.csv"], "--coeffs is not used in Region II"),
    (["evolve", *OSCILLATOR, "--time", "0.5", "-o", "out.csv"], "--time is not used in Region I"),
    (["reconstruct", *OSCILLATOR, "--modes", "0:1", "-o", "out.csv"], "--modes needs --sector"),
    (["reconstruct", *BARRIER, "--sector", "minus", "--center", "0.2", "-o", "out.csv"],
     "--center is not used with --sector"),
    (["ep-sweep", "--mode", "spectrum", "--n", "0", "-o", "out.csv"],
     "--n is not used with --mode spectrum"),
    (["ep-sweep", "--mode", "boundary", "--omega", "1", "-o", "out.csv"],
     "--omega is not used with --mode boundary"),
    (["ep-sweep", "--mode", "ep", "--g-values", "10,100", "-o", "out.csv"],
     "--g-values is not used with --mode ep"),
], ids=["reconstruct-format", "evolve-format", "ep-sweep-format", "states-continuum-format",
        "states-ep-format", "states-free-format", "states-discrete-grid", "probe-format",
        "probe-output", "probe-e0-alone", "evolve-barrier-coeffs", "evolve-oscillator-time",
        "reconstruct-modes", "reconstruct-sector-center", "ep-sweep-spectrum-n",
        "ep-sweep-boundary-omega", "ep-sweep-ep-g-values"])
def test_a_flag_the_mode_does_not_use_is_a_usage_error(tmp_path: Path, args, message):
    # each of these exited 0 and ignored the flag
    cp = run_cli(*args, env={**os.environ, "SWANSON_OUTDIR": str(tmp_path)})
    assert cp.returncode == 2, cp.stdout
    assert message in cp.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,field", [
    (["derive", "--omega", "1e200", "--alpha", "0", "--beta", "0"], "omega_sq"),
    (["derive", "--omega", "5e-324", "--alpha", "0", "--beta", "0"], "m_eff"),
    (["surface", "--range", "1e300", "--n", "3", "--format", "json"], "rows[0].omega_sq"),
    (["surface", "--range", "1e300", "--n", "3"], "omega_sq"),
], ids=["derive-omega-sq", "derive-m-eff", "surface-json", "surface-csv"])
def test_nonfinite_output_exits_one(tmp_path: Path, args, field):
    # these wrote the non-JSON tokens Infinity/-Infinity (or inf in CSV) and exited 0
    out = tmp_path / "out.txt"
    cp = run_cli(*args, "-o", str(out))
    assert cp.returncode == 1, cp.stdout
    assert "numerical failure" in cp.stderr and repr(field) in cp.stderr
    assert not out.exists()


@pytest.mark.parametrize("scale", [["--b0", "1e-170"], ["--hbar", "1e101"]])
def test_length_and_action_scales_outside_the_band_exit_two(scale):
    # b0 = 1e-170 used to end in a ZeroDivisionError traceback from derive
    cp = run_cli("derive", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", *scale)
    assert cp.returncode == 2
    assert "usage error" in cp.stderr and "must lie in" in cp.stderr
    assert "Traceback" not in cp.stderr


def test_states_boundary_i_iii_variants():
    # the two Boundary I-III branches: monomial right states and delta-derivative ones
    cp = run_cli("states", "--omega", "1", "--alpha", "0.6", "--beta", "0.4", "--nmax", "1")
    assert cp.returncode == 0
    rows = [line.split(",") for line in cp.stdout.splitlines()[1:5]]
    assert [(r[0], r[1], r[4]) for r in rows] == [
        ("0", "+", "GaussMonomial"), ("0", "-", "DeltaDeriv"),
        ("1", "+", "GaussMonomial"), ("1", "-", "DeltaDeriv")]


def test_unknown_subcommand():
    cp = run_cli("frobnicate")
    assert cp.returncode == 2


def test_derive_json_schema():
    cp = run_cli("derive", "--omega", "1", "--alpha", "0.2", "--beta", "0.1")
    assert cp.returncode == 0
    obj = json.loads(cp.stdout)
    assert obj["schema"] == 1
    assert abs(obj["omega_sq"] - 0.92) < 1e-15


def test_derive_subnormal_gap_prints_null():
    # omega - alpha - beta is subnormal: within the tolerance of Boundary I-III
    cp = run_cli("derive", "--omega", "1", "--alpha", "1", "--beta", "5e-324")
    assert cp.returncode == 0, cp.stderr
    assert "Infinity" not in cp.stdout and "NaN" not in cp.stdout
    obj = json.loads(cp.stdout)
    for name in ("m_eff", "k_stiff", "sigma", "upsilon_coeff"):
        assert obj[name] is None, name


def test_surface_csv_header_and_determinism(tmp_path: Path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        cp = run_cli("surface", "--range", "2", "--n", "21", "--format", "csv",
                     "-o", str(out))
        assert cp.returncode == 0, cp.stderr
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "alpha_over_omega,beta_over_omega,omega_sq,mass,region"
    assert len(lines) == 21 * 21 + 1


def test_outdir_environment_variable(tmp_path: Path, monkeypatch):
    import os

    env = dict(os.environ, SWANSON_OUTDIR=str(tmp_path))
    cp = run_cli("surface", "--range", "1", "--n", "3", "-o", "grid.csv", env=env)
    assert cp.returncode == 0
    assert (tmp_path / "grid.csv").exists()


def test_states_discrete_json(tmp_path: Path):
    out = tmp_path / "states.json"
    cp = run_cli("states", "--omega", "1", "--alpha", "-2", "--beta", "-0.5",
                 "--nmax", "2", "--format", "json", "-o", str(out))
    assert cp.returncode == 0
    obj = json.loads(out.read_text())
    assert obj["schema"] == 1
    assert len(obj["states"]) == 6
    assert {s["branch"] for s in obj["states"]} == {"+", "-"}


def test_states_continuum_csv(tmp_path: Path):
    out = tmp_path / "cont.csv"
    cp = run_cli("states", "--omega", "1", "--alpha", "-2", "--beta", "-0.5",
                 "--continuum-energy", "0.5", "--grid-points", "11", "-o", str(out))
    assert cp.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,re_value,im_value"
    assert len(lines) == 12


def test_states_ep_and_free():
    cp = run_cli("states", "--omega", "1", "--alpha", "-0.125", "--beta", "-2",
                 "--ep", "1", "0", "0.5", "0.2")
    assert cp.returncode == 0
    obj = json.loads(cp.stdout[: cp.stdout.rindex("}") + 1])
    assert obj["exponent_coefficient"] == 0.6

    cp = run_cli("states", "--omega", "1", "--alpha", "-0.125", "--beta", "-2",
                 "--free-energy", "1.0")
    assert cp.returncode == 0
    assert "k = 0.8" in cp.stdout


def test_gram_json_report():
    cp = run_cli("gram", "--omega", "1", "--alpha", "-2", "--beta", "-0.5",
                 "--nmax", "8", "--format", "json", "-o", "/dev/null")
    assert cp.returncode == 0
    assert "max off-diagonal" in cp.stdout


def test_reconstruct_oscillator_basis():
    cp = run_cli("reconstruct", "--omega", "1", "--alpha", "0.2", "--beta", "0.1",
                 "--nmax", "12", "--center", "0.3", "--width", "1.0", "-o", "/dev/null")
    assert cp.returncode == 0
    assert "sup-error" in cp.stdout


def test_reconstruct_resonant_sector():
    cp = run_cli("reconstruct", "--omega", "1", "--alpha", "-2", "--beta", "-0.5",
                 "--sector", "minus", "--modes", "0:1,3:2", "--nmax", "5", "-o", "/dev/null")
    assert cp.returncode == 0
    assert "sup-error" in cp.stdout


def test_poles_csv_and_probe(tmp_path: Path):
    out = tmp_path / "poles.csv"
    cp = run_cli("poles", "--omega", "1", "--alpha", "-2", "--beta", "-0.5",
                 "--nscan", "1", "--samples", "100", "-o", str(out))
    assert cp.returncode == 0
    assert out.read_text().splitlines()[0] == "im_E,log_abs_gamma"
    detected = [float(tok) for tok in cp.stdout.split(":")[1].split(",")]
    assert abs(detected[0] - 0.5) <= 0.01 and abs(detected[1] - 1.5) <= 0.01

    cp = run_cli("poles", "--omega", "1", "--alpha", "-2", "--beta", "-0.5",
                 "--probe-width", "0.3464")
    assert cp.returncode == 0
    assert "probe" in cp.stdout


def test_evolve_expectation_series(tmp_path: Path):
    out = tmp_path / "evolve.csv"
    cp = run_cli("evolve", "--omega", "1", "--alpha", "0.2", "--beta", "0.1",
                 "--coeffs", "1,1", "--kind", "X", "--t-max", "5", "--t-steps", "11",
                 "-o", str(out))
    assert cp.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,re_value,im_value"
    assert len(lines) == 12
    meta = json.loads(cp.stdout.partition("wrote")[0] or cp.stdout[cp.stdout.index("{"):])
    assert meta["schema"] == 1


def test_evolve_series_is_one_library_call(tmp_path: Path, monkeypatch, capsys):
    from swanson import cli, dynamics

    calls = []
    real = dynamics.evolve_expectation
    monkeypatch.setattr(dynamics, "evolve_expectation",
                        lambda *args: calls.append(args) or real(*args))
    assert cli.main(["evolve", "--omega", "1", "--alpha", "0.2", "--beta", "0.1",
                     "--t-steps", "11", "-o", str(tmp_path / "evolve.csv")]) == 0
    assert len(calls) == 1 and calls[0][3].shape == (11,)


def test_evolve_sector_profile(tmp_path: Path):
    out = tmp_path / "sector.csv"
    cp = run_cli("evolve", "--omega", "1", "--alpha", "-2", "--beta", "-0.5",
                 "--plus-coeffs", "1", "--time", "0.5", "--grid-points", "21",
                 "-o", str(out))
    assert cp.returncode == 0
    assert len(out.read_text().splitlines()) == 22


def test_ep_sweep_modes(tmp_path: Path):
    cp = run_cli("ep-sweep", "--mode", "boundary", "--alpha", "0.75", "--beta", "0.25",
                 "--n", "0", "--branch", "plus", "--g-values", "10,100", "-o", "/dev/null")
    assert cp.returncode == 0
    assert "final distance" in cp.stdout

    out = tmp_path / "ep.csv"
    cp = run_cli("ep-sweep", "--mode", "ep", "--omega", "1", "--beta", "-2",
                 "--n", "0", "--side", "II", "--eps-values", "0.1,0.01", "-o", str(out))
    assert cp.returncode == 0
    assert out.read_text().splitlines()[0] == "param,distance,re_E,im_E"

    cp = run_cli("ep-sweep", "--mode", "spectrum", "--omega", "1", "--beta", "-2",
                 "--nmax", "2", "--eps-values", "0.01", "-o", "/dev/null")
    assert cp.returncode == 0
    assert "spectrum-flow rows" in cp.stdout


@pytest.mark.parametrize("n,branch_args", [("100", ["--g-values", "10,100"])],
                         ids=["nan-weights"])
def test_boundary_sweep_numerical_failures_exit_one(n, branch_args):
    # n = 100 needs Gauss-Hermite order 440, where hermgauss returns NaN weights
    cp = run_cli("ep-sweep", "--mode", "boundary", "--alpha", "0.75", "--beta", "0.25",
                 "--n", n, "--branch", "minus", *branch_args)
    assert cp.returncode == 1
    assert "numerical failure" in cp.stderr
    assert "Traceback" not in cp.stderr and cp.stdout == ""


@pytest.mark.parametrize("args,order", [
    (["gram", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--nmax", "83"], 372),
    (["reconstruct", "--omega", "1", "--alpha", "-2", "--beta", "-0.5", "--sector", "minus",
      "--modes", "0:1,3:2", "--nmax", "90"], 400),
], ids=["gram-83", "sector-90"])
def test_pairings_past_the_finite_rules_exit_one_naming_the_rule(args, order):
    # hermgauss returns NaN weights from order 372; the pairing kernel reports it once
    cp = run_cli(*args)
    assert cp.returncode == 1, cp.stderr
    assert f"numerical failure: Gauss-Hermite pairing of order {order}" in cp.stderr
    assert "RuntimeWarning" not in cp.stderr and "sector mismatch" not in cp.stderr
    assert "Traceback" not in cp.stderr and cp.stdout == ""


@pytest.mark.parametrize("mode", ["ep", "spectrum"])
def test_ep_sweep_beta_zero_is_a_typed_error(mode):
    cp = run_cli("ep-sweep", "--mode", mode, "--omega", "1", "--beta", "0")
    assert cp.returncode == 2
    assert "usage error" in cp.stderr and "beta = 0" in cp.stderr
    assert "Traceback" not in cp.stderr


def test_console_script_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for sub in ("classify", "derive", "surface", "states", "gram", "reconstruct",
                "poles", "evolve", "ep-sweep"):
        assert sub in cp.stdout


# coverage audit: every public module operation must be reachable from at
# least one subcommand invocation exercised above
OPERATION_COVERAGE = {
    "core.derive": "test_derive_json_schema",
    "core.classify": "test_classify_stdout",
    "core.surface_grid": "test_surface_csv_header_and_determinism",
    "specfun.hermite_rows": "test_states_discrete_json (state evaluation)",
    "specfun.log_gamma": "test_poles_csv_and_probe",
    "specfun.parabolic_cylinder_d": "test_states_continuum_csv",
    "specfun.gauss_hermite": "test_gram_json_report",
    "eigensystems.discrete_states": "test_states_discrete_json",
    "eigensystems.ep_states": "test_states_ep_and_free",
    "eigensystems.free_particle_states": "test_states_ep_and_free",
    "eigensystems.evaluate": "test_states_continuum_csv",
    "eigensystems.apply_hamiltonian": "module suites (no CLI grid emission)",
    "pairing.pair": "module suites (gram pairs whole blocks, never one pair)",
    "pairing.metric_pair": "module suites (gram --which metric dresses a whole block instead)",
    "pairing.gram": "test_gram_json_report",
    "pairing.reconstruct": "test_reconstruct_oscillator_basis",
    "continuum.continuum_state": "test_states_continuum_csv",
    "continuum.pole_scan": "test_poles_csv_and_probe",
    "continuum.resonant_expansion": "test_reconstruct_resonant_sector",
    "continuum.delta_normalization_probe": "test_poles_csv_and_probe",
    "dynamics.matrix_element": "test_evolve_expectation_series (the shared band function)",
    "dynamics.evolve_expectation": "test_evolve_expectation_series",
    "dynamics.evolve_sector": "test_evolve_sector_profile",
    "ep_analysis.sweep_to_boundary_i_iii": "test_ep_sweep_modes",
    "ep_analysis.sweep_to_ep": "test_ep_sweep_modes",
    "ep_analysis.ep_spectrum_flow": "test_ep_sweep_modes",
}


def test_operation_coverage_audit():
    here = Path(__file__).read_text()
    for op, covering_test in OPERATION_COVERAGE.items():
        test_name = covering_test.split(" ")[0]
        if test_name.startswith("test_"):
            assert test_name in here, f"{op} claims coverage by a missing test"


def test_gram_metric_via_cli():
    cp = run_cli("gram", "--omega", "1", "--alpha", "0.2", "--beta", "0.1",
                 "--nmax", "4", "--which", "metric", "-o", "/dev/null")
    assert cp.returncode == 0
