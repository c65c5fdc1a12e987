"""Every package imports on its own, in a fresh interpreter.

Inside one test process the packages load in whatever order earlier
tests imported them, which hides import cycles: ``import
repro.serving`` once failed as the first import of a process because
the server imported ``repro.api``, whose ``__init__`` imports
``repro.serving`` while it is only half initialised.  One subprocess
per package catches that.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

PACKAGES = ["repro"] + sorted(
    f"repro.{path.parent.name}"
    for path in (SRC / "repro").glob("*/__init__.py")
)


def test_subpackages_are_discovered():
    assert {"repro.api", "repro.core", "repro.serving"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first(package):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
