"""Predictive mixtures over hypothesis classes and their stability bounds.

A hypothesis's kernel gives a distribution over outcomes per context. The
full mixture blends all kernels with the normalized complexity prior; the
truncated and tail mixtures renormalize over the head and tail of the prior
split at a complexity level. The mixtures obey an exact decomposition
(full = head mass * truncated + tail mass * tail), which drives every bound
verified here: total-variation perturbation, Bayes-risk perturbation, and
the two-sided tail bound on consecutive predictive-utility gains.

Total variation is reported in both conventions: ``tv_dual`` is the
l1 distance (the supremum over test functions bounded by 1 in absolute
value), ``tv_half`` is half of it (so that two distributions are at most 1
apart). Bound checks use ``tv_half``, under which the tail-mass bounds are
tight as stated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .prior import MAX_CODE_LENGTH, HypothesisClass, TruncatedPrior, prior_weights, truncate
from .taskspace import TOLERANCE, TaskMeasure

#: Default additive slack for inequality checks.
BOUND_SLACK = 1e-9


def _as_matrix(table, name: str) -> np.ndarray:
    arr = np.array(table, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValidationError(f"{name} must be a 2-D matrix with at least one column")
    arr.setflags(write=False)
    return arr


def _check_rows_stochastic(arr: np.ndarray, name: str) -> None:
    if arr.shape[0] < 1:
        raise ValidationError(f"{name} must have at least one row")
    if not ((arr >= 0.0).all() and (arr <= 1.0 + TOLERANCE).all()):
        raise ValidationError(f"{name} entries must lie in [0, 1]")
    sums = arr.sum(axis=1)
    bad = np.abs(sums - 1.0) > TOLERANCE
    if bad.any():
        row = int(np.argmax(bad))
        raise ValidationError(f"{name} row {row} sums to {float(sums[row])!r}, expected 1")


@dataclass(frozen=True, eq=False)
class ConditionalKernel:
    """Contexts-by-outcomes matrix of outcome probabilities: a kernel or a mixture of them."""

    table: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_matrix(self.table, "kernel")
        _check_rows_stochastic(arr, "kernel")
        object.__setattr__(self, "table", arr)

    @property
    def n_contexts(self) -> int:
        return self.table.shape[0]

    def row(self, context: int) -> np.ndarray:
        return self.table[context]


@dataclass(frozen=True, eq=False)
class LossTable:
    """Actions-by-outcomes matrix of losses, each entry in [0, 1]."""

    table: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_matrix(self.table, "loss table")
        if arr.size and not ((arr >= 0.0).all() and (arr <= 1.0).all()):
            raise ValidationError("loss entries must lie in [0, 1]")
        object.__setattr__(self, "table", arr)

    @property
    def n_actions(self) -> int:
        return self.table.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class BayesRisk:
    value: float
    argmin_action: int


@dataclass(frozen=True)
class BoundRecord:
    """One verified inequality: lhs <= rhs up to the configured slack."""

    name: str
    level: int
    lhs: float
    rhs: float
    slack: float
    passed: bool

    @classmethod
    def check(
        cls, name: str, level: int, lhs: float, rhs: float, tolerance: float = 0.0
    ) -> BoundRecord:
        """The record of ``lhs <= rhs + tolerance``, with ``slack = rhs - lhs``."""
        return cls(name, level, lhs, rhs, rhs - lhs, lhs <= rhs + tolerance)


@dataclass(frozen=True)
class LevelSummary(TruncatedPrior):
    """A level's prior split and its predictive utility."""

    utility: float


@dataclass(frozen=True)
class PredictionBoundsReport:
    """The levels with a non-empty head, and every record of the sweep."""

    levels: tuple[LevelSummary, ...]
    records: tuple[BoundRecord, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)


KernelStore = Mapping[str, ConditionalKernel]


def _kernel_stack(hclass: HypothesisClass, kernels: KernelStore) -> np.ndarray:
    """Stack the kernel tables in hypothesis order into an (H, C, Y) array."""
    tables = []
    shape: tuple[int, int] | None = None
    for h in hclass.hypotheses:
        kernel = kernels.get(h.kernel_ref)
        if kernel is None:
            raise ValidationError(f"hypothesis {h.id} references unknown kernel {h.kernel_ref!r}")
        if shape is None:
            shape = kernel.table.shape
        elif kernel.table.shape != shape:
            raise ValidationError(
                f"kernel {h.kernel_ref!r} has shape {kernel.table.shape}, expected {shape}"
            )
        tables.append(kernel.table)
    return np.stack(tables)


def _mix(stack: np.ndarray, weights: list[float]) -> ConditionalKernel:
    """The mixture of the stacked kernels under one weight per hypothesis."""
    return ConditionalKernel(np.tensordot(np.array(weights), stack, axes=1))


def full_mixture(hclass: HypothesisClass, kernels: KernelStore) -> ConditionalKernel:
    """Prior-weighted mixture of all hypothesis kernels."""
    return _mix(_kernel_stack(hclass, kernels), prior_weights(hclass))


def truncated_mixture(hclass: HypothesisClass, n: int, kernels: KernelStore) -> ConditionalKernel:
    """Renormalized mixture over hypotheses with code length <= n."""
    if truncate(hclass, n).z_n == 0.0:
        raise ValidationError(f"no hypothesis has code length <= {n}")
    return _mix(_kernel_stack(hclass, kernels), prior_weights(hclass, -1, n))


def tail_mixture(hclass: HypothesisClass, n: int, kernels: KernelStore) -> ConditionalKernel:
    """Renormalized mixture over hypotheses with code length > n."""
    if truncate(hclass, n).tau_n == 0.0:
        raise ValidationError(f"every hypothesis has code length <= {n}")
    return _mix(_kernel_stack(hclass, kernels), prior_weights(hclass, n, MAX_CODE_LENGTH))


def tv_dual(rho, rho_prime) -> float:
    """Total variation as the l1 distance (dual form over |f| <= 1); in [0, 2]."""
    a = np.asarray(rho, dtype=float)
    b = np.asarray(rho_prime, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(f"rows must share one dimension, got {a.shape} and {b.shape}")
    return float(np.abs(a - b).sum())


def tv_half(rho, rho_prime) -> float:
    """Half-l1 total variation; at most 1 between probability distributions."""
    return 0.5 * tv_dual(rho, rho_prime)


def bayes_risk(rho_row, loss: LossTable) -> BayesRisk:
    """Minimum expected loss over actions for one predictive row.

    Ties break toward the smallest action index.
    """
    if loss.n_actions == 0:
        raise ValidationError("loss table declares no actions")
    row = np.asarray(rho_row, dtype=float)
    if row.ndim != 1 or row.size != loss.n_outcomes:
        raise ValidationError(
            f"predictive row has {row.size} outcomes, loss table expects {loss.n_outcomes}"
        )
    expected = loss.table @ row
    action = int(np.argmin(expected))
    return BayesRisk(value=float(expected[action]), argmin_action=action)


def averaged_risk(rho: ConditionalKernel, loss: LossTable, pi: TaskMeasure) -> float:
    """Context-weighted average of the per-context Bayes risk."""
    if rho.n_contexts != pi.size:
        raise ValidationError(
            f"distribution has {rho.n_contexts} contexts, context weights have {pi.size}"
        )
    values = [bayes_risk(rho.row(c), loss).value for c in range(rho.n_contexts)]
    return math.fsum(w * v for w, v in zip(pi.weights, values))


def verify_prediction_bounds(
    hclass: HypothesisClass,
    kernels: KernelStore,
    loss: LossTable,
    pi: TaskMeasure,
    n_max: int,
    slack_tolerance: float = BOUND_SLACK,
) -> PredictionBoundsReport:
    """Check the tail-mass bounds and the decomposition at every truncation level.

    Per level n with a non-empty head (``z_n > 0``):
      * worst per-context tv_half(full, truncated) <= tau_n
      * |risk(full) - risk(truncated)| <= tau_n
      * |utility(n+1) - utility(n)| <= tau_n + tau_{n+1}  (consecutive levels)
      * max entrywise |full - z_n * truncated - tau_n * tail| <= TOLERANCE,
        where the tail is non-empty (``tau_n > 0``)

    One pass: the kernels are stacked and the full mixture built once, and
    each level's split is ``truncate(hclass, n)``, a lookup in the class's
    prefix table. A level's head and tail mixtures are built only where its
    ``z_n`` differs from the previous level's; other levels reuse them. That
    key is exact: heads are whole multiples of ``2**-52`` and the Kraft sum
    is at most ``1 + 1e-12``, so distinct heads give distinct quotients.

    ``levels`` holds only the levels with a non-empty head, which follow a
    prefix of empty ones; the levels with an empty tail are those with
    ``tau_n == 0``. Records come in the order tv and risk per level, then
    gains, then decomposition residuals.
    """
    if n_max < 0:
        raise ValidationError(f"n_max must be >= 0, got {n_max}")
    stack = _kernel_stack(hclass, kernels)
    q = _mix(stack, prior_weights(hclass))
    risk_full = averaged_risk(q, loss, pi)

    levels: list[LevelSummary] = []
    records: list[BoundRecord] = []
    residuals: list[BoundRecord] = []
    z_previous = 0.0

    for n in range(n_max + 1):
        split = truncate(hclass, n)
        z_n, tau_n = split.z_n, split.tau_n
        if z_n == 0.0:
            continue
        if z_n != z_previous:
            z_previous = z_n
            q_n = _mix(stack, prior_weights(hclass, -1, n))
            utility = -averaged_risk(q_n, loss, pi)
            tv_worst = 0.5 * float(np.abs(q.table - q_n.table).sum(axis=1).max())
            if tau_n != 0.0:
                r_n = _mix(stack, prior_weights(hclass, n, MAX_CODE_LENGTH)).table
                residual = float(np.abs(q.table - z_n * q_n.table - tau_n * r_n).max())
        levels.append(LevelSummary(n, z_n, tau_n, utility))
        records.append(BoundRecord.check("tv_vs_tail", n, tv_worst, tau_n, slack_tolerance))
        risk_gap = abs(risk_full - (-utility))
        records.append(BoundRecord.check("risk_vs_tail", n, risk_gap, tau_n, slack_tolerance))
        if tau_n != 0.0:
            residuals.append(
                BoundRecord.check("decomposition_residual", n, residual, TOLERANCE)
            )

    # Only a prefix of levels is skipped, so the summarized levels are consecutive.
    for before, after in zip(levels, levels[1:]):
        gain = abs(after.utility - before.utility)
        rhs = before.tau_n + after.tau_n
        records.append(BoundRecord.check("gain_vs_tails", before.level, gain, rhs, slack_tolerance))

    return PredictionBoundsReport(levels=tuple(levels), records=tuple(records + residuals))
