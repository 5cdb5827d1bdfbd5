"""Let the CLI subprocesses of the tests import the package under test.

pytest finds the package through ``pythonpath = ["src"]`` in pyproject.toml
even when it is not installed; a child ``python -m halfgilbert.cli`` only
sees PYTHONPATH, so the package's directory is put there too.
"""

import os
from pathlib import Path

import halfgilbert

_ROOT = str(Path(halfgilbert.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_ROOT, os.environ.get("PYTHONPATH")))
)
