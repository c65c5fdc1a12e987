"""The one schema every benchmark timing artifact obeys.

CI uploads each bench's timing JSON as a build artifact; downstream
tooling (the catalog, perf-trajectory plots, regression bots) parses
them blind.  One shared contract keeps that machine-readable as
benches multiply:

* ``"bench"``      -- non-empty string naming the benchmark;
* ``"batch"``      -- positive int, the per-flush/batch work size the
  wall-times describe (1 for single-invocation benches);
* wall-times       -- at least one ``*_seconds`` key; every
  ``*_seconds`` value is a positive finite number;
* speedups         -- at least one ``"speedup"`` / ``"speedup_vs_*"``
  key; every such value is a positive finite number;
* asserted floors  -- every ``"min_*_asserted"`` value is a positive
  finite number (optional keys, but typed when present);
* the whole payload round-trips through JSON.

Both sides of an artifact's life check it with
:func:`validate_timing_payload`: the benches' writer
(``benchmarks/timing_schema.py``) before writing, and
:class:`~repro.catalog.store.CatalogStore` at ingest.
"""

from __future__ import annotations

import json
import math


def _is_positive_finite(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def validate_timing_payload(payload) -> list[str]:
    """All schema violations in ``payload`` (empty list: valid)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be a dict, got {type(payload).__name__}"]
    bench = payload.get("bench")
    if not isinstance(bench, str) or not bench:
        errors.append("'bench' must be a non-empty string")
    batch = payload.get("batch")
    if not isinstance(batch, int) or isinstance(batch, bool) or batch < 1:
        errors.append("'batch' must be a positive int")
    seconds_keys = [k for k in payload if k.endswith("_seconds")]
    if not seconds_keys:
        errors.append("at least one '*_seconds' wall-time key required")
    for key in seconds_keys:
        if not _is_positive_finite(payload[key]):
            errors.append(
                f"{key!r} must be a positive finite number, "
                f"got {payload[key]!r}"
            )
    speedup_keys = [
        k for k in payload
        if k == "speedup" or k.startswith("speedup_vs_")
    ]
    if not speedup_keys:
        errors.append(
            "at least one 'speedup' / 'speedup_vs_*' key required"
        )
    for key in speedup_keys:
        if not _is_positive_finite(payload[key]):
            errors.append(
                f"{key!r} must be a positive finite number, "
                f"got {payload[key]!r}"
            )
    for key in payload:
        if key.startswith("min_") and key.endswith("_asserted"):
            if not _is_positive_finite(payload[key]):
                errors.append(
                    f"{key!r} must be a positive finite number, "
                    f"got {payload[key]!r}"
                )
    try:
        json.dumps(payload)
    except (TypeError, ValueError) as error:
        errors.append(f"payload is not JSON-serializable: {error}")
    return errors
