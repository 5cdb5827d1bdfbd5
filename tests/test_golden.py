"""CLI stdout pinned byte for byte.

Each case in golden/cases.json is an argv and its exit code; golden/<name>.out
holds the stdout it printed when recorded.  The files pin this platform's
libm: exp, erfc, log and friends may round differently in the last bit on
another platform, and the %.17g digits printed with them.  When a change of
output is intended, re-record the affected cases with

    PYTHONPATH=src python tests/test_golden.py NAME...

or every case by naming none.  An unknown name records nothing and exits 1.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from halfgilbert import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    code, stdout = run(CASES[name]["argv"])
    assert code == CASES[name]["exit"]
    assert stdout == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden case: {', '.join(unknown)}")
    for name in names:
        CASES[name]["exit"], stdout = run(CASES[name]["argv"])
        (GOLDEN / f"{name}.out").write_text(stdout)
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=2) + "\n")
