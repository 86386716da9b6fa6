"""Helpers shared by bench/run.py and its worker processes."""

from __future__ import annotations

import bisect
import cmath
import contextlib
import ctypes
import glob
import hashlib
import math
import os
import platform
import signal
import subprocess
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# BLAS stays single-threaded (at most nproc) in every process the benchmark starts
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# a run makes at least this many passes of each kind it measures, even when one
# pass outlasts --seconds, so that every job has a median
MIN_PASSES = 2


def nearest_rank(values: list[float], q: float) -> float:
    """The ceil(q n)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# Time of ``reference_work`` on the baseline machine (2-vCPU x86-64 VM, Python 3.11.7,
# numpy 2.4.6) when nothing else slows its core; it sets the unit of normalized times.
REFERENCE_S = 5.0e-4


def reference_work() -> complex:
    """A fixed computation in the library's style: small-array recurrences and scalar complex math."""
    import numpy as np

    z = np.linspace(-3.0, 3.0, 64) * (1 + 0.1j)
    h0, h1 = np.ones_like(z), 2 * z
    for k in range(1, 120):
        h0, h1 = h1, 2 * z * h1 - 2 * k * h0
    s = 0j
    for k in range(1200):
        s += cmath.exp(1j * k * 0.01) * (k % 7)
    return complex(h1[0]) + s


class SpeedProbe:
    """The current speed of the core, read with a fixed reference computation.

    On a shared VM (the baseline machine: 2 vCPUs, x86-64) a core slows down by
    up to 2x for seconds at a time when other tenants load it, and CPU time
    slows with it.  A reading times
    ``reference_work`` (best of three).  Inside ``sampling()`` a timer signal
    also takes a reading every ``every`` seconds, in the middle of long jobs
    too; the time those readings take is cut out of the job that they
    interrupted.  Where interruptions would distort what is measured (traced
    passes, or a child process sharing the core) readings are taken only
    between jobs.  A job's time is scaled by REFERENCE_S over the mean of the
    readings taken during it and of the last reading before and first after it.
    All processes of a run share one core, so the readings describe the core
    that the job ran on.
    """

    def __init__(self, every: float = 0.02):
        self.every = every
        self._starts: list[float] = []     # start, end and value of every reading
        self._ends: list[float] = []
        self._values: list[float] = []
        self._busy = False

    def calibrate(self) -> None:
        begin = perf_counter()
        best = math.inf
        for _ in range(3):
            start = perf_counter()
            reference_work()
            best = min(best, perf_counter() - start)
        self._starts.append(begin)
        self._values.append(best)
        self._ends.append(perf_counter())

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self.calibrate()
            finally:
                self._busy = False

    def between_jobs(self) -> None:
        """Take a reading if the last one is older than ``every``."""
        if perf_counter() - self._ends[-1] >= self.every:
            self.calibrate()

    @contextlib.contextmanager
    def sampling(self, timer: bool = True):
        """Take readings at both ends of the block and, with ``timer``, every ``every`` s."""
        self.calibrate()
        if timer:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        try:
            yield self
        finally:
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self.calibrate()

    def normalize(self, start: float, end: float) -> float:
        """Seconds at the reference speed of a job that ran from ``start`` to ``end``.

        Needs a reading before ``start`` and one after ``end``.
        """
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_left(self._starts, end)
        paused = sum(self._ends[i] - self._starts[i] for i in range(first, last))
        window = self._values[first - 1:last + 1]
        return (end - start - paused) * REFERENCE_S * len(window) / sum(window)


def pin_to_one_core() -> int:
    """Run this process and its children on one core, so probe and jobs share it."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class Tally:
    """Normalized latencies and verdicts of one job list run pass after pass.

    Plain and traced passes are kept apart; failed jobs enter the percentiles
    as +inf, since they miss any latency limit.  A failed job whose input is
    meant to hit a documented defect counts in ``known_failed``, any other in
    ``failed``.
    """

    def __init__(self, names: list[str], known_defects: list[str | None]):
        self.names, self.known = names, known_defects
        self.samples: list[float] = []
        self.times = {"plain": [[] for _ in names], "traced": [[] for _ in names]}
        self.attempted = self.failed = self.known_failed = 0
        self.failures: dict[str, dict] = {}

    def passes(self, mode: str) -> int:
        return len(self.times[mode][0])

    def record_pass(self, seconds: list[float], reasons: list[str | None], traced: bool) -> None:
        times = self.times["traced" if traced else "plain"]
        for i, (took, reason) in enumerate(zip(seconds, reasons)):
            times[i].append(took)
            self.attempted += 1
            if reason is not None:
                self.fail(i, reason)
            if not traced:
                self.samples.append(took if reason is None else math.inf)

    def fail(self, i: int, reason: str) -> None:
        if self.known[i]:
            self.known_failed += 1
        else:
            self.failed += 1
        entry = self.failures.setdefault(self.names[i], {"reason": reason,
                                                         "known_defect": self.known[i],
                                                         "count": 0})
        entry["count"] += 1

    def wall(self, mode: str = "plain") -> float:
        """Time of one pass, taken job by job: the sum of each job's median time."""
        return sum(median(t) for t in self.times[mode])

    def summary(self) -> dict:
        ms = [1e3 * t for t in self.samples]
        p90 = nearest_rank(ms, 0.9)
        return {"attempted": self.attempted, "failed": self.failed,
                "known_failed": self.known_failed, "failures": self.failures,
                "passes": self.passes("plain"), "jobs_per_pass": len(self.names),
                "wall_s": self.wall(), "job_p50_ms": nearest_rank(ms, 0.5), "job_p90_ms": p90,
                "samples": len(ms), "beyond_p90": sum(1 for v in ms if v > p90)}


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def src_digest() -> str:
    """Digest of the library sources, naming the code under test without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "swanson").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _openblas() -> tuple[str | None, int | None]:
    """(config string, thread count) of the OpenBLAS that numpy loaded, if it can be found."""
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), get_threads()
    return None, None


def environment() -> dict:
    import mpmath
    import numpy

    blas, threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "openblas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "git_commit": _git_commit(),
        "src_digest": src_digest(),
    }
