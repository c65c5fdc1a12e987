"""Registry semantics."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import Registry, RegistryError


class TestRegistry:
    def test_register_as_decorator_and_call(self):
        reg = Registry("thing")

        @reg.register("a")
        def build_a():
            return "a"

        reg.register("b", lambda: "b")
        assert reg.get("a")() == "a"
        assert reg.get("b")() == "b"
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "c" not in reg
        assert len(reg) == 2

    def test_duplicate_requires_overwrite(self):
        reg = Registry("thing")
        reg.register("x", lambda: 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("x", lambda: 2)
        reg.register("x", lambda: 2, overwrite=True)
        assert reg.get("x")() == 2

    def test_unknown_key_lists_choices(self):
        reg = Registry("axis")
        reg.register("known", lambda: None)
        with pytest.raises(RegistryError, match="known"):
            reg.get("missing")

    def test_invalid_key(self):
        with pytest.raises(ValueError):
            Registry("thing").register("", lambda: None)


def test_importing_the_api_loads_no_baseline():
    """The API layer holds no baseline registry, so importing it does
    not import :mod:`repro.baselines`."""
    src = str(Path(repro.__file__).resolve().parents[1])
    probe = (
        "import sys, repro.api; "
        "print('repro.baselines' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"
