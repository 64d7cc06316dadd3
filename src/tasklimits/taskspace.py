"""Finite task spaces: probability measures over task ids and set operations.

Tasks are opaque non-negative integers indexing into a finite, enumerated
space. A :class:`TaskMeasure` fixes the probability of each task; a
:class:`TaskSet` is an explicit membership set, which keeps measure
arithmetic exact and set differences trivially checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BoundsError, ValidationError

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

    @classmethod
    def point_mass(cls, task: TaskId, size: int) -> TaskMeasure:
        if not 0 <= task < size:
            raise BoundsError(f"task {task} outside space of size {size}")
        return cls(tuple(1.0 if i == task else 0.0 for i in range(size)))


@dataclass(frozen=True)
class TaskSet:
    """Explicit membership set of task ids."""

    members: frozenset[TaskId]

    def __post_init__(self) -> None:
        members = frozenset(int(t) for t in self.members)
        for t in members:
            if t < 0:
                raise ValidationError(f"task ids must be non-negative, got {t}")
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, ids: Iterable[TaskId] = ()) -> TaskSet:
        return cls(frozenset(ids))

    @classmethod
    def empty(cls) -> TaskSet:
        return cls(frozenset())

    def __contains__(self, task: TaskId) -> bool:
        return task in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[TaskId]:
        return iter(sorted(self.members))

    def issubset(self, other: TaskSet) -> bool:
        return self.members <= other.members

    def union(self, other: TaskSet) -> TaskSet:
        return TaskSet(self.members | other.members)


def measure_of(task_set: TaskSet, mu: TaskMeasure) -> float:
    """Total mass of ``task_set`` under ``mu``.

    Uses exact summation (``math.fsum``) so that finite additivity and the
    set-difference identity hold to 1e-12 on any chain of subsets.
    """
    for t in task_set.members:
        if t >= mu.size:
            raise BoundsError(f"task {t} outside space of size {mu.size}")
    return math.fsum(mu.weights[t] for t in task_set.members)


def novelty(next_set: TaskSet, prev_set: TaskSet) -> TaskSet:
    """Tasks in ``next_set`` but not in ``prev_set``."""
    return TaskSet(next_set.members - prev_set.members)

