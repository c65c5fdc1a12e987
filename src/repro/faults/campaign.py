"""Outcome classification for fault-injection campaigns.

A campaign (:func:`repro.campaigns.run_campaign`) repeatedly executes
a protected kernel under a fault model and classifies every trial:

* ``MASKED`` -- faults fired but the output still equals the golden
  (fault-free) result without any detection (e.g. TMR voting, or the
  flip hit a bit that did not change the value);
* ``DETECTED_RECOVERED`` -- qualifiers caught errors and rollback
  produced the golden result;
* ``DETECTED_ABORTED`` -- the leaky bucket overflowed and the kernel
  reported a persistent failure (explicit, safe outcome);
* ``SILENT_CORRUPTION`` -- the output differs from golden with no
  detection: the outcome reliability engineering exists to prevent;
* ``CLEAN`` -- no fault fired at all.

Detection coverage and the SDC rate over these outcomes are computed
by :class:`repro.campaigns.report.CellReport`.
"""

from __future__ import annotations

import enum


class Outcome(enum.Enum):
    CLEAN = "clean"
    MASKED = "masked"
    DETECTED_RECOVERED = "detected_recovered"
    DETECTED_ABORTED = "detected_aborted"
    SILENT_CORRUPTION = "silent_corruption"


def classify_outcome(
    golden: float,
    value: float | None,
    fault_fired: bool,
    errors_detected: int,
    aborted: bool,
    atol: float = 0.0,
) -> Outcome:
    """Map one run's observables to an :class:`Outcome`.

    ``value`` is None when the run aborted.  ``atol`` allows tolerance
    for accumulations whose re-execution order may legitimately differ
    (0.0 for our deterministic kernels).
    """
    if aborted:
        return Outcome.DETECTED_ABORTED
    if value is None:
        raise ValueError("non-aborted run must provide a value")
    correct = abs(value - golden) <= atol
    if not fault_fired:
        return Outcome.CLEAN
    if correct and errors_detected == 0:
        return Outcome.MASKED
    if correct:
        return Outcome.DETECTED_RECOVERED
    if errors_detected > 0:
        # Detected something yet still emitted a wrong value: counts
        # as silent corruption because the wrong value escaped.
        return Outcome.SILENT_CORRUPTION
    return Outcome.SILENT_CORRUPTION
