"""The README's command-line examples against checked-in golden outputs.

Every example of the README's "Command line" block runs in-process, with
``-o`` added where it writes data and no output file is named, into a
temporary ``$SWANSON_OUTDIR``.  Each output file and the standard output are
compared with ``tests/golden/<case>/``: numeric tokens within 1e-12 times the
largest magnitude in that text, every other token exactly.  Summary residuals
that round-off dominates (Gram deviations, truncation sup-errors) are checked
against their documented bounds instead of their golden digits.

Regenerate the goldens with ``PYTHONPATH=src python tests/test_readme_goldens.py``.
"""

import re
import sys
from pathlib import Path

import pytest

from readme_cases import readme_cases, run_case
from swanson.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

# round-off dominated summary values and the bounds the acceptance tests document
RESIDUALS = (
    (re.compile(r"max off-diagonal (\S+), max diagonal error (\S+)"), 1e-6),
    (re.compile(r"truncation sup-error (\S+)"), 1e-6),
)


def _check_residuals(text: str) -> str:
    """Check the summary residuals against their bounds and blank them out."""
    for pattern, bound in RESIDUALS:
        for match in pattern.finditer(text):
            for value in match.groups():
                assert 0.0 <= float(value) <= bound, match.group(0)
        text = pattern.sub("<residual within bound>", text)
    return text


def assert_matches(actual: str, golden: str, what: str) -> None:
    got, want = NUMBER.split(actual), NUMBER.split(golden)
    assert len(got) == len(want), f"{what}: token count {len(got)} != {len(want)}"
    assert got[0::2] == want[0::2], f"{what}: non-numeric tokens differ"
    numbers = [(float(a), float(b)) for a, b in zip(got[1::2], want[1::2])]
    scale = max((abs(b) for _, b in numbers), default=0.0)
    worst = max((abs(a - b) for a, b in numbers), default=0.0)
    assert worst <= REL_TOL * scale, f"{what}: deviation {worst:.3e} > {REL_TOL:g} x {scale:.3e}"


CASES = readme_cases()


def test_readme_examples_all_have_goldens():
    assert len(CASES) == 17
    assert sorted(p.name for p in GOLDEN.iterdir()) == [name for name, _, _ in CASES]


@pytest.mark.parametrize("name,argv,out", CASES, ids=[c[0] for c in CASES])
def test_readme_example_matches_golden(name, argv, out, tmp_path):
    code, stdout, _ = run_case(main, argv, tmp_path)
    assert code == 0
    assert_matches(_check_residuals(stdout),
                   _check_residuals((GOLDEN / name / "stdout.txt").read_text(encoding="utf-8")),
                   f"{name} stdout")
    if out is not None:
        assert_matches((tmp_path / out).read_text(encoding="utf-8"),
                       (GOLDEN / name / out).read_text(encoding="utf-8"), f"{name} {out}")


def regenerate() -> None:
    import tempfile

    for name, argv, out in CASES:
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, _ = run_case(main, argv, Path(tmp))
            if code != 0:
                sys.exit(f"{name} exited {code}")
            (target / "stdout.txt").write_text(stdout, encoding="utf-8")
            if out is not None:
                (target / out).write_bytes((Path(tmp) / out).read_bytes())


if __name__ == "__main__":
    regenerate()
