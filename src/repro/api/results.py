"""Structured results of batched hybrid inference."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core.hybrid import Decision, HybridResult


@dataclass
class BatchResult:
    """Per-image :class:`~repro.core.hybrid.HybridResult`\\ s plus the
    aggregates a serving system reports per batch.

    Attributes
    ----------
    results:
        One entry per input image, in input order.
    decision_counts:
        ``Decision.value -> count`` over the batch; every decision kind
        appears, zero-count included, so dashboards see a stable key
        set.
    """

    results: list[HybridResult]
    decision_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.decision_counts:
            counts = Counter(r.decision for r in self.results)
            self.decision_counts = {
                decision.value: counts.get(decision, 0)
                for decision in Decision
            }

    # -- container protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[HybridResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> HybridResult:
        return self.results[index]

    # -- aggregates ------------------------------------------------------
    @property
    def n_images(self) -> int:
        return len(self.results)

    @property
    def probabilities(self) -> np.ndarray:
        """Stacked ``(n, classes)`` softmax confidences."""
        if not self.results:
            return np.empty((0, 0), dtype=np.float32)
        return np.stack([r.probabilities for r in self.results])

    @property
    def predicted_classes(self) -> np.ndarray:
        return np.array(
            [r.predicted_class for r in self.results], dtype=int
        )

    @property
    def decisions(self) -> list[Decision]:
        return [r.decision for r in self.results]

    @property
    def confirmed_count(self) -> int:
        """Dependable positives on the safety class."""
        return self.decision_counts.get(Decision.CONFIRMED.value, 0)

    def summary(self) -> str:
        """One-paragraph batch report: the image count and the
        non-zero decision counts."""
        lines = [f"{self.n_images} images"]
        for value, count in self.decision_counts.items():
            if count:
                lines.append(f"  {value:<24} {count}")
        return "\n".join(lines)
