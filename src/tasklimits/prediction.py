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

from .errors import (
    ConfigurationError,
    EmptyTailError,
    EmptyTruncationError,
    ShapeError,
    ValidationError,
)
from .prior import HypothesisClass, normalize_prior, truncate

ROW_SUM_TOLERANCE = 1e-12
ENTRY_TOLERANCE = 1e-12

#: Half-convention TV between probability distributions is at most 1.
TV_CAP = 1.0

#: Default additive slack for inequality checks (identities get 1e-12).
BOUND_SLACK = 1e-9


def _as_matrix(table, name: str) -> np.ndarray:
    arr = np.array(table, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must be a 2-D matrix with at least one column")
    arr.setflags(write=False)
    return arr


def _check_rows_stochastic(arr: np.ndarray, name: str) -> None:
    if arr.shape[0] < 1:
        raise ShapeError(f"{name} must have at least one row")
    if not ((arr >= 0.0).all() and (arr <= 1.0 + ENTRY_TOLERANCE).all()):
        raise ValidationError(f"{name} entries must lie in [0, 1]")
    sums = arr.sum(axis=1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOLERANCE
    if bad.any():
        row = int(np.argmax(bad))
        raise ValidationError(f"{name} row {row} sums to {sums[row]!r}, expected 1")


@dataclass(frozen=True, eq=False)
class ConditionalKernel:
    """Contexts-by-outcomes matrix of conditional outcome probabilities."""

    table: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_matrix(self.table, "kernel")
        _check_rows_stochastic(arr, "kernel")
        object.__setattr__(self, "table", arr)

    @property
    def n_contexts(self) -> int:
        return self.table.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True, eq=False)
class PredictiveDistribution:
    """Per-context outcome distribution (a mixture or a single kernel)."""

    table: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_matrix(self.table, "predictive distribution")
        _check_rows_stochastic(arr, "predictive distribution")
        object.__setattr__(self, "table", arr)

    @property
    def n_contexts(self) -> int:
        return self.table.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.table.shape[1]

    def row(self, context: int) -> np.ndarray:
        return self.table[context]


@dataclass(frozen=True, eq=False)
class ContextDistribution:
    """Probability weights over contexts."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.weights, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ShapeError("context weights must be a non-empty 1-D vector")
        if (arr < 0.0).any():
            raise ValidationError("context weights must be non-negative")
        total = math.fsum(arr.tolist())
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise ValidationError(f"context weights sum to {total!r}, expected 1")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @property
    def n_contexts(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class LossTable:
    """Actions-by-outcomes matrix of losses, each entry in [0, 1]."""

    table: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.table, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ShapeError("loss table must be a 2-D matrix with at least one outcome")
        if arr.size and not ((arr >= 0.0).all() and (arr <= 1.0).all()):
            raise ValidationError("loss entries must lie in [0, 1]")
        arr.setflags(write=False)
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
class DecompositionCheck:
    """Entrywise residual of the head/tail mixture identity, or why it was skipped."""

    level: int
    residual: float | None
    skipped_reason: str | None = None


@dataclass(frozen=True)
class BoundRecord:
    """One verified inequality: lhs <= rhs up to the configured slack."""

    name: str
    level: int
    lhs: float
    rhs: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class LevelSummary:
    """Per-level prior split and predictive utility."""

    level: int
    z_n: float
    tau_n: float
    utility: float


@dataclass(frozen=True)
class PredictionBoundsReport:
    levels: tuple[LevelSummary, ...]
    records: tuple[BoundRecord, ...]
    skipped: tuple[tuple[int, str], ...]
    all_passed: bool


KernelStore = Mapping[str, ConditionalKernel]


def _kernel_stack(
    hclass: HypothesisClass, kernels: KernelStore
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Stack kernel tables in hypothesis order; returns (H, C, Y) array and ids."""
    tables = []
    shape: tuple[int, int] | None = None
    for h in hclass.hypotheses:
        kernel = kernels.get(h.kernel_ref)
        if kernel is None:
            raise ConfigurationError(f"hypothesis {h.id} references unknown kernel {h.kernel_ref!r}")
        if shape is None:
            shape = kernel.table.shape
        elif kernel.table.shape != shape:
            raise ShapeError(
                f"kernel {h.kernel_ref!r} has shape {kernel.table.shape}, expected {shape}"
            )
        tables.append(kernel.table)
    return np.stack(tables), tuple(h.id for h in hclass.hypotheses)


def full_mixture(hclass: HypothesisClass, kernels: KernelStore) -> PredictiveDistribution:
    """Prior-weighted mixture of all hypothesis kernels."""
    stack, ids = _kernel_stack(hclass, kernels)
    prior = normalize_prior(hclass)
    weights = np.array([prior[i] for i in ids])
    return PredictiveDistribution(np.tensordot(weights, stack, axes=1))


def truncated_mixture(
    hclass: HypothesisClass, n: int, kernels: KernelStore
) -> PredictiveDistribution:
    """Renormalized mixture over hypotheses with code length <= n."""
    split = truncate(hclass, n)
    if not split.weights:
        raise EmptyTruncationError(f"no hypothesis has code length <= {n}")
    stack, ids = _kernel_stack(hclass, kernels)
    weights = np.array([split.weights.get(i, 0.0) for i in ids])
    return PredictiveDistribution(np.tensordot(weights, stack, axes=1))


def tail_mixture(hclass: HypothesisClass, n: int, kernels: KernelStore) -> PredictiveDistribution:
    """Renormalized mixture over hypotheses with code length > n."""
    tail = [h for h in hclass.hypotheses if h.code_length > n]
    if not tail:
        raise EmptyTailError(f"every hypothesis has code length <= {n}")
    tail_raw = math.fsum(h.raw_weight for h in tail)
    stack, ids = _kernel_stack(hclass, kernels)
    tail_weights = {h.id: h.raw_weight / tail_raw for h in tail}
    weights = np.array([tail_weights.get(i, 0.0) for i in ids])
    return PredictiveDistribution(np.tensordot(weights, stack, axes=1))


def decomposition_residual(
    hclass: HypothesisClass, n: int, kernels: KernelStore
) -> DecompositionCheck:
    """Max entrywise gap in full = z_n * truncated + tau_n * tail.

    Degenerate splits (empty head or empty tail) cannot be decomposed and are
    reported as skipped rather than failed.
    """
    split = truncate(hclass, n)
    if split.z_n == 0.0:
        return DecompositionCheck(level=n, residual=None, skipped_reason="empty truncation")
    if split.tau_n == 0.0:
        return DecompositionCheck(level=n, residual=None, skipped_reason="empty tail")
    q = full_mixture(hclass, kernels).table
    q_head = truncated_mixture(hclass, n, kernels).table
    q_tail = tail_mixture(hclass, n, kernels).table
    residual = float(np.abs(q - split.z_n * q_head - split.tau_n * q_tail).max())
    return DecompositionCheck(level=n, residual=residual)


def tv_dual(rho, rho_prime) -> float:
    """Total variation as the l1 distance (dual form over |f| <= 1); in [0, 2]."""
    a = np.asarray(rho, dtype=float)
    b = np.asarray(rho_prime, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"rows must share one dimension, got {a.shape} and {b.shape}")
    return float(np.abs(a - b).sum())


def tv_half(rho, rho_prime) -> float:
    """Half-l1 total variation; at most 1 between probability distributions."""
    return 0.5 * tv_dual(rho, rho_prime)


def bayes_risk(rho_row, loss: LossTable) -> BayesRisk:
    """Minimum expected loss over actions for one predictive row.

    Ties break toward the smallest action index.
    """
    if loss.n_actions == 0:
        raise ConfigurationError("loss table declares no actions")
    row = np.asarray(rho_row, dtype=float)
    if row.ndim != 1 or row.size != loss.n_outcomes:
        raise ShapeError(
            f"predictive row has {row.size} outcomes, loss table expects {loss.n_outcomes}"
        )
    expected = loss.table @ row
    action = int(np.argmin(expected))
    return BayesRisk(value=float(expected[action]), argmin_action=action)


def averaged_risk(rho: PredictiveDistribution, loss: LossTable, pi: ContextDistribution) -> float:
    """Context-weighted average of the per-context Bayes risk."""
    if rho.n_contexts != pi.n_contexts:
        raise ShapeError(
            f"distribution has {rho.n_contexts} contexts, context weights have {pi.n_contexts}"
        )
    values = [bayes_risk(rho.row(c), loss).value for c in range(rho.n_contexts)]
    return math.fsum(w * v for w, v in zip(pi.weights.tolist(), values))


def predictive_utility(
    hclass: HypothesisClass, n: int, kernels: KernelStore, loss: LossTable, pi: ContextDistribution
) -> float:
    """Negated averaged risk of the level-n truncated mixture."""
    return -averaged_risk(truncated_mixture(hclass, n, kernels), loss, pi)


def verify_prediction_bounds(
    hclass: HypothesisClass,
    kernels: KernelStore,
    loss: LossTable,
    pi: ContextDistribution,
    n_max: int,
    slack_tolerance: float = BOUND_SLACK,
) -> PredictionBoundsReport:
    """Check the tail-mass bounds at every defined truncation level.

    Per level n with nonzero head mass:
      * worst per-context tv_half(full, truncated) <= tau_n * TV_CAP
      * |risk(full) - risk(truncated)| <= tau_n
      * |utility(n+1) - utility(n)| <= tau_n + tau_{n+1}  (consecutive levels)
    """
    if n_max < 0:
        raise ConfigurationError(f"n_max must be >= 0, got {n_max}")
    q = full_mixture(hclass, kernels)
    risk_full = averaged_risk(q, loss, pi)

    levels: list[LevelSummary] = []
    records: list[BoundRecord] = []
    skipped: list[tuple[int, str]] = []
    utilities: dict[int, float] = {}
    taus: dict[int, float] = {}

    for n in range(n_max + 1):
        split = truncate(hclass, n)
        if split.z_n == 0.0:
            skipped.append((n, "empty truncation: no hypothesis within the level"))
            continue
        q_n = truncated_mixture(hclass, n, kernels)
        utility = -averaged_risk(q_n, loss, pi)
        utilities[n] = utility
        taus[n] = split.tau_n
        levels.append(LevelSummary(level=n, z_n=split.z_n, tau_n=split.tau_n, utility=utility))

        tv_worst = max(
            tv_half(q.row(c), q_n.row(c)) for c in range(q.n_contexts)
        )
        rhs = split.tau_n * TV_CAP
        records.append(
            BoundRecord(
                name="tv_vs_tail",
                level=n,
                lhs=tv_worst,
                rhs=rhs,
                slack=rhs - tv_worst,
                passed=tv_worst <= rhs + slack_tolerance,
            )
        )

        risk_gap = abs(risk_full - (-utility))
        records.append(
            BoundRecord(
                name="risk_vs_tail",
                level=n,
                lhs=risk_gap,
                rhs=split.tau_n,
                slack=split.tau_n - risk_gap,
                passed=risk_gap <= split.tau_n + slack_tolerance,
            )
        )

    for n in sorted(utilities):
        if n + 1 not in utilities:
            continue
        gain = abs(utilities[n + 1] - utilities[n])
        rhs = taus[n] + taus[n + 1]
        records.append(
            BoundRecord(
                name="gain_vs_tails",
                level=n,
                lhs=gain,
                rhs=rhs,
                slack=rhs - gain,
                passed=gain <= rhs + slack_tolerance,
            )
        )

    return PredictionBoundsReport(
        levels=tuple(levels),
        records=tuple(records),
        skipped=tuple(skipped),
        all_passed=all(r.passed for r in records),
    )
