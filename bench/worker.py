"""Runs one warm workload (oscillator, barrier or survey) in this process.

    python3 bench/worker.py WORKLOAD SEED MODE SECONDS [TRACE_FILE]

MODE is ``setup`` (import, warm-up pass, then exit), ``measure`` (timed passes,
no tracing) or ``trace`` (untraced and traced passes in turn).  The worker
prints ``READY`` once ``import swanson`` and the warm-up pass are done, and its
result as one JSON line at the end.  Outputs are checked after the first pass,
outside the timed region; later passes must reproduce them bit for bit.
"""

from __future__ import annotations

import json
import random
import resource
import sys
from time import perf_counter

from common import MIN_PASSES, SRC, SpeedProbe, Tally

sys.path.insert(0, str(SRC))

import jobs as J  # noqa: E402  (imports swanson from the checkout)
import tracing  # noqa: E402


def timed_pass(jobs: list[J.Job], probe: SpeedProbe, tracer: tracing.Tracer | None = None):
    """Run every job once (``repeat`` times back to back when set).

    Returns (normalized seconds per call, [(output, error)]).
    """
    spans, outputs = [], []
    # a timer reading inside a traced span would count as the library's time
    with probe.sampling(timer=tracer is None):
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
                probe.between_jobs()
            start = perf_counter()
            try:
                for _ in range(job.repeat):
                    out = job.run()
                err = None
            except Exception as exc:  # a raising job is a failed job, not a failed run
                out, err = None, f"{type(exc).__name__}: {exc}"
            spans.append((start, perf_counter()))
            outputs.append((out, err))
    return [probe.normalize(s, e) / j.repeat for (s, e), j in zip(spans, jobs)], outputs


class Verdicts:
    """Checks the first pass; later passes must reproduce its outputs exactly."""

    def __init__(self, jobs: list[J.Job]):
        self.jobs = jobs
        self.first: list[tuple[bytes | None, str | None]] | None = None

    def judge(self, outputs) -> list[str | None]:
        if self.first is None:
            self.first = []
            for job, (out, err) in zip(self.jobs, outputs):
                reason = err
                if reason is None:
                    try:
                        reason = job.check(out)
                    except Exception as exc:  # a check that cannot read the output fails it
                        reason = f"check raised {type(exc).__name__}: {exc}"
                self.first.append((None if err else J.fingerprint(out), reason))
            return [reason for _, reason in self.first]
        reasons = []
        for (digest, reason), (out, err) in zip(self.first, outputs):
            if err is not None:
                reasons.append(err)
            elif digest is None or J.fingerprint(out) != digest:
                reasons.append("output differs from the first pass")
            else:
                reasons.append(reason)
        return reasons


def main(argv: list[str]) -> int:
    workload, seed, mode, seconds = argv[0], int(argv[1]), argv[2], float(argv[3])
    trace_file = argv[4] if len(argv) > 4 else None
    wl = J.WORKLOADS[workload](random.Random(seed))
    for job in wl.warmup:
        job.run()
    print("READY", flush=True)
    if mode == "setup":
        return 0

    verdicts = Verdicts(wl.jobs)
    tally = Tally([j.name for j in wl.jobs], [j.known_defect for j in wl.jobs])
    probe = SpeedProbe()
    per_layer = None
    start = perf_counter()
    while True:
        traced = mode == "trace" and tally.passes("traced") < tally.passes("plain")
        if traced:
            tracer = tracing.Tracer()
            info0 = J.S.specfun.gauss_hermite.cache_info()
            with tracer.installed():
                seconds_taken, outputs = timed_pass(wl.jobs, probe, tracer)
            info1 = J.S.specfun.gauss_hermite.cache_info()
            if per_layer is None:
                per_layer = (tracer.aggregate(), info1.hits - info0.hits,
                             info1.misses - info0.misses)
                if trace_file:
                    tracer.dump(trace_file)
        else:
            seconds_taken, outputs = timed_pass(wl.jobs, probe)
        tally.record_pass(seconds_taken, verdicts.judge(outputs), traced)
        done = perf_counter() - start >= seconds
        if done and tally.passes("traced" if mode == "trace" else "plain") >= MIN_PASSES:
            break

    result = tally.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if per_layer is not None:
        agg, hits, misses = per_layer
        overhead = tally.wall("traced") / tally.wall("plain") - 1.0
        result["per_layer"] = tracing.metrics(agg, hits, misses, overhead)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
