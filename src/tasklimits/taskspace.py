"""Finite task spaces: probability measures over task ids.

Tasks are opaque non-negative integers indexing into a finite, enumerated
space. A :class:`TaskMeasure` fixes the probability of each task; the mass
of a set of tasks is the ``math.fsum`` of their weights. It is the toolkit's
one finite measure: a prediction scenario's context weights are one too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

# A task identifier is a plain non-negative integer.
TaskId = int

#: The tolerance of every exact check: sums to 1, Kraft sums and algebraic identities.
#: Construction rejects out-of-tolerance measures instead of renormalizing them.
TOLERANCE = 1e-12


@dataclass(frozen=True)
class TaskMeasure:
    """Finite-support probability measure over ids ``0..size-1``: tasks or contexts."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))
        if not self.weights:
            raise ValidationError("measure needs at least one weight")
        if not all(map(math.isfinite, self.weights)) or min(self.weights) < 0.0:
            # Scan only on failure, to name the first bad weight.
            i, w = next((i, w) for i, w in enumerate(self.weights) if not 0.0 <= w < math.inf)
            raise ValidationError(f"weight {i} must be finite and >= 0, got {w}")
        # Before summing, as weights past 1 can overflow ``fsum``; the sum check
        # below would reject each such measure too.
        top = max(self.weights)
        if top - 1.0 > TOLERANCE:
            raise ValidationError(
                f"weight {self.weights.index(top)} must be at most 1, got {top!r}"
            )
        total = math.fsum(self.weights)
        if abs(total - 1.0) > TOLERANCE:
            raise ValidationError(
                f"weights must sum to 1 within {TOLERANCE}, got {total!r}"
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
