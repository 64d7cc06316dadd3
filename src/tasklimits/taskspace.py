"""Finite task spaces: probability measures over task ids.

Tasks are opaque non-negative integers indexing into a finite, enumerated
space. A :class:`TaskMeasure` fixes the probability of each task; the mass
of a set of tasks is the ``math.fsum`` of their weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

# A task identifier is a plain non-negative integer.
TaskId = int

#: Weights must sum to 1 within this tolerance; construction rejects
#: out-of-tolerance measures instead of silently renormalizing.
WEIGHT_SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class TaskMeasure:
    """Finite-support probability measure over task ids ``0..size-1``."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.weights:
            raise ValidationError("task measure needs at least one task")
        for i, w in enumerate(self.weights):
            if not math.isfinite(w) or w < 0.0:
                raise ValidationError(f"weight of task {i} must be finite and >= 0, got {w}")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ValidationError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOLERANCE}, got {total!r}"
            )

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def support(self) -> frozenset[TaskId]:
        """Tasks with strictly positive weight."""
        return frozenset(i for i, w in enumerate(self.weights) if w > 0.0)

    @classmethod
    def uniform(cls, size: int) -> TaskMeasure:
        if size < 1:
            raise ValidationError("uniform measure needs size >= 1")
        return cls(tuple(1.0 / size for _ in range(size)))


@dataclass(frozen=True)
class TaskSet:
    """One level's solved set, kept only because ``perfbench/tracing.py`` reads its
    ``members`` and ``len()``; it goes when the tracer counts from ``first_level``."""

    members: frozenset[TaskId]

    def __len__(self) -> int:
        return len(self.members)
