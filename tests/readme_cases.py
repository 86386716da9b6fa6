"""The command lines of the README's "Command line" block, and how to run one in-process.

One parser for the README's examples, read by the golden tests, the per-command import
tests and ``tools/same_results.py``.
"""

import contextlib
import io
import os
import shlex
from pathlib import Path
from unittest import mock

README = Path(__file__).resolve().parents[1] / "README.md"
OUTDIR_TOKEN = "$SWANSON_OUTDIR"


def readme_cases() -> list[tuple[str, list[str], str | None]]:
    """(case name, argv, output file name or None) for each README example, with ``-o``
    added where it writes data and no output file is named."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    cases = []
    for line in block.splitlines():
        if not line.startswith("swanson "):
            continue
        argv = shlex.split(line)[1:]
        name = f"{len(cases):02d}-{argv[0]}"
        writes_data = argv[0] != "classify" and "--probe-width" not in argv
        if writes_data and "-o" not in argv:
            argv += ["-o", f"{name}.out"]
        out = argv[argv.index("-o") + 1] if "-o" in argv else None
        cases.append((name, argv, out))
    return cases


def run_case(main, argv: list[str], outdir: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of main(argv) with $SWANSON_OUTDIR set to outdir, which
    the two texts name as OUTDIR_TOKEN; a usage error's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, SWANSON_OUTDIR=str(outdir)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's own usage errors
            code = exc.code
    return (code, *(text.getvalue().replace(str(outdir), OUTDIR_TOKEN) for text in (out, err)))
