"""AMBIENT-ENV corpus: environment reads in compute code (flagged)."""

import os
from os import environ


def threshold() -> float:
    return float(os.environ["QUALIFIER_THRESHOLD"])  # subscript read


def engine_default() -> str:
    return os.environ.get("REPRO_ENGINE", "auto")


def debug_enabled() -> bool:
    return os.getenv("REPRO_DEBUG") is not None


def snapshot() -> dict:
    return dict(environ)  # bare name imported from os
