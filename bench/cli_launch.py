"""Runs one ``swanson`` command line with the benchmark's tracer installed.

    python3 bench/cli_launch.py TRACE_JSON JOB_ID ARGS...

Behaves like ``python -m swanson ARGS...`` (same stdout, files and exit code)
and writes the import time, the per-function aggregates, the Gauss-Hermite
cache counters and the raw spans of this one process to TRACE_JSON.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    out_path, job_id, args = argv[0], int(argv[1]), argv[2:]
    start = perf_counter()
    import swanson.cli

    import_ms = 1e3 * (perf_counter() - start)
    import tracing

    tracer = tracing.Tracer()
    tracer.job = job_id
    cache = swanson.specfun.gauss_hermite
    before = cache.cache_info()
    code = None
    try:
        with tracer.installed():
            code = swanson.cli.main(args)
    finally:
        after = cache.cache_info()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "agg": tracer.aggregate(),
                       "gh_hits": after.hits - before.hits,
                       "gh_misses": after.misses - before.misses,
                       "names": tracer.names, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
