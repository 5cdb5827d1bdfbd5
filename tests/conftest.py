"""Let the CLI subprocesses of the tests import the package under test, and
keep hypothesis' files out of the working tree.

pytest finds the package through ``pythonpath = ["src"]`` in pyproject.toml
even when it is not installed; a child ``python -m halfgilbert.cli`` only
sees PYTHONPATH, so the package's directory is put there too.
"""

import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import halfgilbert

_ROOT = str(Path(halfgilbert.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_ROOT, os.environ.get("PYTHONPATH")))
)

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # The properties run with database=None, but hypothesis still caches the
    # constants it reads from local source files, at collection, in its home
    # directory: give it a temporary one.
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)
