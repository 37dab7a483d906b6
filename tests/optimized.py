"""Run code in a fresh ``python -O`` interpreter, where ``assert`` statements
are stripped, so tests can show that a check is an error and not an assert."""

import os
import subprocess
import sys
from pathlib import Path

import skeinhom


def error_under_optimize(code):
    """The last line of the traceback that code leaves under ``python -O``,
    importing the same package as these tests; '' when it runs cleanly.

    The code is preceded by ``assert False``, so a run where asserts are
    still on fails at that line instead of passing unnoticed.
    """
    package_root = str(Path(skeinhom.__file__).resolve().parents[1])
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "assert False\n" + code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    lines = proc.stderr.strip().splitlines()
    if proc.returncode == 0:
        return ""
    return lines[-1] if lines else f"exit {proc.returncode}"
