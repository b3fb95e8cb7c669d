"""The one way a test starts a fresh wavekit interpreter."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="session")
def launch():
    """``launch(module, *args)`` runs ``python -m module *args`` with this
    checkout's ``src/`` first on PYTHONPATH, so the interpreter imports the
    wavekit under test, installed or not. A traceback on stderr fails the
    test whatever the exit code; the caller asserts the code."""

    def run(module, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        cp = subprocess.run(
            [sys.executable, "-m", module, *args], capture_output=True, text=True, env=env
        )
        assert "Traceback" not in cp.stderr, cp.stderr
        return cp

    return run
