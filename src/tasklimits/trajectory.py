"""Expanding solved-task trajectories and their utility dynamics.

A trajectory over capacity levels n = 1..N is stored as the level at which
each task is first solved: ``first_level[t]`` is in 1..N, or 0 if task t is
never solved. Level n solves the tasks with ``0 < first_level[t] <= n``, so
the solved sets are nested by construction. Utilities are the measure masses
of those sets; marginal gains are the masses of the tasks first solved at
each level. The scenario loader turns an ``explicit_sets`` chain into first
levels once, with ``_first_solved_levels``: the only nestedness check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence, Union

from .errors import ConfigurationError, NestednessError
from .taskspace import TaskId, TaskMeasure, TaskSet


def _first_solved_levels(sets: Iterable[AbstractSet[TaskId]]) -> dict[TaskId, int]:
    """The level (1-based) at which each task of a chain of sets is first solved.

    Raises :class:`NestednessError` at the first level that drops a task.
    """
    first: dict[TaskId, int] = {}
    solved: AbstractSet[TaskId] = frozenset()
    for n, level in enumerate(sets, 1):
        if not solved <= level:
            raise NestednessError(
                f"solved set at level {n} drops previously solved tasks {sorted(solved - level)}"
            )
        for t in level - solved:
            first[t] = n
        solved = level
    return first


@dataclass(frozen=True)
class DifficultyThreshold:
    """Solve every task whose difficulty is at most the capacity level.

    ``difficulties[t]`` is the difficulty of task ``t`` (a positive integer);
    level n solves exactly the tasks with difficulty <= n.
    """

    difficulties: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "difficulties", tuple(int(d) for d in self.difficulties))
        for t, d in enumerate(self.difficulties):
            if d < 1:
                raise ConfigurationError(f"difficulty of task {t} must be >= 1, got {d}")


@dataclass(frozen=True)
class RandomCoverage:
    """Each level independently adds every unsolved task with a fixed probability.

    The chain starts from the empty set; level 1 is the first coverage round.
    Accumulation makes nestedness hold by construction.
    """

    step_probability: float
    seed: int

    def __post_init__(self) -> None:
        p = float(self.step_probability)
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"step probability must lie in [0, 1], got {p}")
        object.__setattr__(self, "step_probability", p)
        object.__setattr__(self, "seed", int(self.seed))


SolverRule = Union[DifficultyThreshold, RandomCoverage]


@dataclass(frozen=True)
class SystemTrajectory:
    """A nested chain over ``levels`` levels, as the level each task is first solved.

    ``first_level`` holds one entry per task of ``mu``: the level in
    1..``levels`` at which the task joins the solved set, or 0 if it never
    does. :func:`build_trajectory` makes it from a solver rule.
    """

    first_level: tuple[int, ...]
    levels: int
    mu: TaskMeasure

    @property
    def solved_sets(self) -> tuple[TaskSet, ...]:
        """Each level's solved set, derived from ``first_level``; see :class:`TaskSet`."""
        return tuple(
            TaskSet(frozenset(t for t, level in enumerate(self.first_level) if 0 < level <= n))
            for n in range(1, self.levels + 1)
        )


@dataclass(frozen=True)
class LimitDiagnostics:
    """Finite proxies for the limiting behaviour of a trajectory.

    ``first_n_with_gain_below_epsilon`` is the first level n (1-based, over
    gains n = 1..N-1) at which the gain drops below epsilon, or ``None`` if
    that never happens within the run. ``max_tail_gain`` is the largest gain
    over the final quartile of gain indices.
    """

    u_last: float
    first_n_with_gain_below_epsilon: int | None
    max_tail_gain: float


def build_trajectory(rule: SolverRule, n_max: int, mu: TaskMeasure) -> SystemTrajectory:
    """Build the first-solved levels of the ``n_max``-level chain under ``rule``."""
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")

    if isinstance(rule, DifficultyThreshold):
        missing = [t for t in sorted(mu.support) if t >= len(rule.difficulties)]
        if missing:
            raise ConfigurationError(f"no difficulty declared for tasks {missing} in the support")
        padded = rule.difficulties[: mu.size] + (0,) * (mu.size - len(rule.difficulties))
        first_level = tuple(d if d <= n_max else 0 for d in padded)
    elif isinstance(rule, RandomCoverage):
        # Drawing only for unsolved tasks, in task order, keeps the set-by-set RNG stream.
        rng = random.Random(rule.seed)
        levels = [0] * mu.size
        unsolved = range(mu.size)
        for n in range(1, n_max + 1):
            still = []
            for t in unsolved:
                if rng.random() < rule.step_probability:
                    levels[t] = n
                else:
                    still.append(t)
            unsolved = still
        first_level = tuple(levels)
    else:
        raise ConfigurationError(f"unknown solver rule {type(rule).__name__}")

    return SystemTrajectory(first_level, n_max, mu)


def _weights_first_solved(traj: SystemTrajectory) -> list[list[float]]:
    """The weights of the tasks first solved at each level 1..N."""
    runs: list[list[float]] = [[] for _ in range(traj.levels + 1)]
    for weight, level in zip(traj.mu.weights, traj.first_level):
        runs[level].append(weight)
    return runs[1:]


def utility_sequence(traj: SystemTrajectory) -> list[float]:
    """U(n) for n = 1..N: the ``fsum`` of the weights of the tasks with first level <= n.

    ``carry`` holds floats whose exact sum is the mass solved so far, rounded
    sum first. Each level's run joins it in O((|run| + k)·k) work, for k floats
    carried: 2 or 3 for weights of similar size, about 21 at most for any doubles.
    """
    carry: list[float] = []
    utilities = []
    for run in _weights_first_solved(traj):
        terms = carry + run
        carry = [math.fsum(terms)]
        while rest := math.fsum(terms + [-c for c in carry]):
            carry.append(rest)
        utilities.append(carry[0])
    return utilities


def marginal_gains(traj: SystemTrajectory) -> list[float]:
    """Gains as the mass new at each level: the ``fsum`` of the tasks first solved at n + 1.

    Returned as the mass of the newly solved tasks, which is exactly
    non-negative; equality with the utility differences is a tested
    invariant rather than the computation route.
    """
    if traj.levels < 2:
        raise ConfigurationError("marginal gains need a trajectory of length >= 2")
    return [math.fsum(run) for run in _weights_first_solved(traj)[1:]]


def telescoping_residual(utilities: Sequence[float], gains: Sequence[float]) -> float:
    """|U(N) - U(1) - sum of gains| for U(1..N) and the N - 1 gains; contractually <= 1e-12.

    Take both sequences from their own routes (``utility_sequence`` and
    ``marginal_gains``): neither is derived from the other, so the identity
    is a real check.
    """
    if len(utilities) < 2 or len(gains) != len(utilities) - 1:
        raise ConfigurationError("telescoping needs U(1..N) with N >= 2 and its N - 1 gains")
    return abs(utilities[-1] - utilities[0] - math.fsum(gains))


def limit_diagnostics(
    utilities: Sequence[float], gains: Sequence[float], epsilon: float
) -> LimitDiagnostics:
    """Report the last utility, the first sub-epsilon gain, and the tail gain peak.

    ``gains`` is empty for a one-level trajectory.
    """
    if not epsilon > 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    if not gains:
        return LimitDiagnostics(
            u_last=utilities[-1], first_n_with_gain_below_epsilon=None, max_tail_gain=0.0
        )
    first_n = next((i + 1 for i, g in enumerate(gains) if g < epsilon), None)
    tail = gains[-max(1, math.ceil(len(gains) / 4)):]
    return LimitDiagnostics(
        u_last=utilities[-1],
        first_n_with_gain_below_epsilon=first_n,
        max_tail_gain=max(tail),
    )
