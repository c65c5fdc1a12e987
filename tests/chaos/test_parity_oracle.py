"""The chaos parity oracle compares every reliable-report counter.

``_bitwise_equal`` is the invariant behind ``delivered_parity``: a
served result must match serial ``infer()`` bit for bit, the
integrated architecture's execution report included.  Each case
changes one report field and must break equality.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.chaos.experiment import _bitwise_equal
from repro.core.hybrid import Decision, HybridResult
from repro.core.qualifier import QualifierVerdict
from repro.reliable.executor import ExecutionReport

REPORT = ExecutionReport(
    operations=120,
    errors_detected=2,
    rollbacks=1,
    persistent_failures=0,
    operator_kind="dmr",
    failed_outputs=[(0, 1, 2)],
)

CHANGED = {
    "operations": 121,
    "errors_detected": 3,
    "rollbacks": 2,
    "persistent_failures": 1,
    "operator_kind": "tmr",
    "failed_outputs": [(0, 1, 3)],
}


def _result(report: ExecutionReport) -> HybridResult:
    return HybridResult(
        probabilities=np.array([0.25, 0.75], dtype=np.float32),
        predicted_class=1,
        verdict=QualifierVerdict(),
        decision=Decision.NOT_SAFETY_CRITICAL,
        reliable_report=report,
    )


def test_identical_reports_compare_equal():
    copy = dataclasses.replace(REPORT)
    assert _bitwise_equal(_result(copy), _result(REPORT))


@pytest.mark.parametrize("field", sorted(CHANGED))
def test_each_report_field_breaks_parity(field):
    changed = dataclasses.replace(REPORT, **{field: CHANGED[field]})
    assert not _bitwise_equal(_result(changed), _result(REPORT))
