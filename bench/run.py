"""Benchmark of the swanson toolkit: four seeded, closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Workloads: oscillator, barrier, survey (warm, in one fresh worker process each)
and cli_cold (every README command line in its own fresh process).  With
``--trace 0`` a run prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-module metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts new failures
only: a job whose input is meant to hit a documented defect is printed by name
and counted in the row's ``failed_frac``, not there.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from common import (BENCH, MIN_PASSES, RESULTS, SRC, THREAD_VARS, SpeedProbe, Tally, environment,
                    median, pin_to_one_core, src_digest)

for _var in THREAD_VARS:
    os.environ[_var] = "1"

WORKLOADS = ("oscillator", "barrier", "survey", "cli_cold")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0        # a run ends, killing what it started, before this
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
             "peak_rss_mb": "MB"}


class RunError(Exception):
    pass


class Deadline:
    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        left = self.end - perf_counter()
        if left <= 0:
            raise RunError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"     # the same dict and set layouts in every process
    env.pop("SWANSON_OUTDIR", None)
    return env


# ---------------------------------------------------------------------------
# warm workloads: one worker process each
# ---------------------------------------------------------------------------

def start_worker(workload: str, seed: int, mode: str, seconds: float, deadline: Deadline,
                 trace_file: Path | None = None):
    """Start a worker and wait until it is ready; returns (process, (start, ready) times)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode, str(seconds)]
    if trace_file is not None:
        cmd.append(str(trace_file))
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=BENCH)
    try:
        line = proc.stdout.readline()
        ready = perf_counter()
        if line.strip() != "READY":
            raise RunError(f"{workload} worker did not start (exit {proc.wait(deadline.left())})")
    except BaseException:
        stop(proc)
        raise
    return proc, (start, ready)


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc: subprocess.Popen, deadline: Deadline) -> str:
    """Wait for a worker; returns its remaining standard output."""
    try:
        out, _ = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise RunError("worker did not finish in time")
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    return out


def run_warm(workload: str, seed: int, seconds: float, trace: bool, deadline: Deadline) -> dict:
    probe = SpeedProbe()
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            probe.calibrate()
            proc, ready = start_worker(workload, seed, "setup", seconds, deadline)
            finish(proc, deadline)
            probe.calibrate()
            setups.append(probe.normalize(*ready))
    trace_file = RESULTS / f"trace-{workload}-seed{seed}.json" if trace else None
    proc, _ = start_worker(workload, seed, "trace" if trace else "measure", seconds, deadline,
                           trace_file)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    result["setups"] = setups
    return result


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m swanson` per job
# ---------------------------------------------------------------------------

def run_cli_job(job, workdir: Path, trace_out: Path | None, job_id: int, deadline: Deadline):
    """Run one command line in an empty directory; returns ((start, end), digest, bytes, reason)."""
    from jobs import nonfinite_text

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    if trace_out is None:
        cmd = [sys.executable, "-m", "swanson", *job.argv]
    else:
        cmd = [sys.executable, str(BENCH / "cli_launch.py"), str(trace_out), str(job_id), *job.argv]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=child_env(), capture_output=True,
                              timeout=min(60.0, deadline.left()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{command(job)} timed out")
    span = (start, perf_counter())
    digest = hashlib.sha256(proc.stdout)
    size = len(proc.stdout)
    reason = None if proc.returncode == 0 else f"exit code {proc.returncode}: {proc.stderr[-200:]!r}"
    texts = [proc.stdout.decode("utf-8", "replace")]
    for name in job.outputs:
        path = workdir / name
        if not path.is_file():
            reason = reason or f"no output file {name}"
            continue
        data = path.read_bytes()
        digest.update(name.encode() + b"\0" + data)
        size += len(data)
        texts.append(data.decode("utf-8", "replace"))
    if reason is None and any(nonfinite_text(t) for t in texts):
        reason = "non-finite value in the output"
    if reason is None:
        reason = job.check(texts[0])
    return span, digest.hexdigest(), size, reason


def run_cli(seed: int, seconds: float, trace: bool, deadline: Deadline) -> dict:
    import jobs as J
    import tracing

    jobs = J.cli_cold(random.Random(seed))
    probe = SpeedProbe()
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            probe.calibrate()
            start = perf_counter()
            subprocess.run([sys.executable, "-m", "swanson", "--help"], env=child_env(), cwd=BENCH,
                           stdout=subprocess.DEVNULL, check=True, timeout=deadline.left())
            end = perf_counter()
            probe.calibrate()
            setups.append(probe.normalize(start, end))

    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=RESULTS))
    tally = Tally([j.name for j in jobs], [None] * len(jobs))
    first_digest: dict[str, str] = {}
    agg, gh = {}, [0, 0]
    import_ms, bytes_out = 0.0, 0
    trace_spans = []
    try:
        start = perf_counter()
        while True:
            traced = trace and tally.passes("traced") < tally.passes("plain")
            first_traced = traced and tally.passes("traced") == 0
            spans, reasons = [], []
            for i, job in enumerate(jobs):
                trace_out = workdir / f"trace-{i}.json" if traced else None
                probe.calibrate()   # between processes only: the child shares the core
                span, digest, size, reason = run_cli_job(job, workdir / "job", trace_out, i,
                                                         deadline)
                if reason is None and first_digest.setdefault(command(job), digest) != digest:
                    reason = "output bytes differ between identical invocations"
                spans.append(span)
                reasons.append(reason)
                if first_traced and trace_out.is_file():
                    part = json.loads(trace_out.read_text())
                    tracing.merge(agg, part["agg"])
                    gh[0] += part["gh_hits"]
                    gh[1] += part["gh_misses"]
                    import_ms += part["import_ms"]
                    bytes_out += size
                    trace_spans.append({"job": i, "names": part["names"], "spans": part["spans"]})
            probe.calibrate()
            tally.record_pass([probe.normalize(*span) for span in spans], reasons, traced)
            done = perf_counter() - start >= seconds
            if done and tally.passes("traced" if trace else "plain") >= MIN_PASSES:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    earlier = earlier_digests(seed, first_digest)
    for i, job in enumerate(jobs):
        if command(job) in earlier and earlier[command(job)] != first_digest.get(command(job)):
            tally.fail(i, "output bytes differ from an earlier run of the same code and seed")
    result = tally.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result["setups"] = setups
    if trace:
        overhead = tally.wall("traced") / tally.wall("plain") - 1.0
        result["per_layer"] = tracing.metrics(agg, gh[0], gh[1], overhead, import_ms, bytes_out)
        with open(RESULTS / f"trace-cli_cold-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump(trace_spans, fh)
    return result


def command(job) -> str:
    return " ".join(["swanson", *job.argv])


def earlier_digests(seed: int, digests: dict[str, str]) -> dict[str, str]:
    """Output digests, by command line, of the first run of this code and seed.

    The digests of this run are stored when it is the first one.
    """
    path = RESULTS / f"cli-digests-{src_digest()}-seed{seed}.json"
    if path.is_file():
        return json.loads(path.read_text())
    path.write_text(json.dumps(digests, indent=1, sort_keys=True))
    return digests


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def end_to_end(result: dict) -> dict:
    return {"setup_s": median(result["setups"]), "wall_s": result["wall_s"],
            "job_p50_ms": result["job_p50_ms"], "job_p90_ms": result["job_p90_ms"],
            "peak_rss_mb": result["peak_rss_mb"]}


def row(workload: str, seed: int, result: dict, values: dict) -> str:
    failed, known, attempted = result["failed"], result["known_failed"], result["attempted"]
    n, passes = result["samples"], result["passes"]
    return (f"{workload:<10} seed={seed}  "
            f"setup_s={values['setup_s']:.4f} s (median of {len(result['setups'])})  "
            f"wall_s={values['wall_s']:.4f} s ({passes} passes of {result['jobs_per_pass']} jobs)  "
            f"job_p50_ms={values['job_p50_ms']:.4f} ms (n={n})  "
            f"job_p90_ms={values['job_p90_ms']:.4f} ms (n={n}, {result['beyond_p90']} beyond)  "
            f"peak_rss_mb={values['peak_rss_mb']:.2f} MB  "
            f"failed_frac={(failed + known) / attempted:.4f} ratio ({failed + known}/{attempted}: "
            f"{known} known defects, {failed} new failures)")


def report_failures(result: dict) -> bool:
    """Print every failed job by name; True when each one hits a documented defect."""
    all_known = True
    for name, f in sorted(result["failures"].items()):
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "NEW FAILURE"
        all_known &= bool(f["known_defect"])
        print(f"  failed x{f['count']}: {name}: {f['reason']} [{tag}]")
    return all_known


def run_one(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    deadline = Deadline(RUN_LIMIT_S)
    if workload == "cli_cold":
        result = run_cli(seed, seconds, trace, deadline)
    else:
        result = run_warm(workload, seed, seconds, trace, deadline)
    correct = report_failures(result)
    if trace:
        from tracing import METRICS

        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in METRICS}
        for name, m in metrics.items():
            print(f"  {workload} {name} = {m['value']:.6g} {m['unit']}")
    else:
        values = end_to_end(result)
        print(row(workload, seed, result, values))
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    if not all(abs(m["value"]) < float("inf") for m in metrics.values()):
        raise RunError(f"non-finite metric in {metrics}")
    summary = {"correct": correct, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    with open(RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "environment": env,
                   **summary, "result": result}, fh, indent=1)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swanson" / "__init__.py").is_file():
        print(f"error: no swanson sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)
    env = environment()
    env["core"] = pin_to_one_core()
    print(f"seed {args.seed}; environment {json.dumps(env)}")
    try:
        summary = run_one(args.workload, args.seed, args.seconds, bool(args.trace), env)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Each workload in its own run.py process, so child resource usage stays apart."""
    summaries, rows = {}, []
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                              str(args.seed), "--seconds", str(args.seconds), "--trace",
                              str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0:
            return out.returncode
        summaries[name] = json.loads(lines[-1])
        rows += [line for line in lines if line.startswith(f"{name} ")]
    print("\n".join(rows))
    print(json.dumps(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
