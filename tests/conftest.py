"""Test-session set-up: the command-line tests' subprocesses import the
ellbar that the tests themselves import, whether or not PYTHONPATH names
``src``."""

import os
from pathlib import Path

import pytest

import ellbar

_SRC = str(Path(ellbar.__file__).resolve().parents[1])


@pytest.fixture(scope="session", autouse=True)
def _subprocesses_import_this_ellbar():
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield
