"""The validating writer for benchmark timing artifacts.

Benches call :func:`write_timing_artifact`, which checks the payload
against the one timing schema
(:func:`repro.catalog.schema.validate_timing_payload`) before
writing -- a bench that would emit a malformed artifact fails its own
run rather than polluting CI.  ``tests/contracts`` holds the tier-1
contract tests (schema behaviour, and that every bench file routes
its artifact through this module).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.catalog.schema import validate_timing_payload

#: Default artifact directory, overridable via BENCH_ARTIFACT_DIR
#: (the knob CI uses to collect artifacts from one place).
ARTIFACT_DIR_ENV = "BENCH_ARTIFACT_DIR"
DEFAULT_ARTIFACT_DIR = "benchmarks/artifacts"


def artifact_dir() -> Path:
    directory = Path(
        os.environ.get(ARTIFACT_DIR_ENV, DEFAULT_ARTIFACT_DIR)
    )
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def write_timing_artifact(filename: str, payload: dict) -> Path:
    """Validate ``payload`` against the shared schema and write it.

    Returns the written path; raises ``ValueError`` listing every
    violation when the payload does not conform.
    """
    errors = validate_timing_payload(payload)
    if errors:
        raise ValueError(
            "timing artifact violates the shared schema "
            f"({filename}):\n- " + "\n- ".join(errors)
        )
    path = artifact_dir() / filename
    path.write_text(json.dumps(payload, indent=2))
    return path
