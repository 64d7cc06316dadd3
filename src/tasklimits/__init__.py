"""Simulation and verification toolkit for expanding task-coverage systems.

Three pillars:

* task-space trajectories: nested solved-task chains over a fixed finite
  measure, stored as the level at which each task is first solved, with
  utility sequences, marginal gains, telescoping identities, and
  diminishing-returns diagnostics;
* complexity-weighted prediction: Kraft-validated hypothesis priors,
  truncated and tail predictive mixtures, and tail-mass bounds on
  total-variation, Bayes-risk, and utility perturbations;
* provability-style modal logic: a validity decision procedure over finite
  transitive irreflexive Kripke frames with re-checkable countermodels.

A scenario-driven CLI (``tasklimits``) ties the pieces into reproducible,
CSV-emitting experiments.
"""

from .taskspace import TaskId, TaskMeasure
from .trajectory import (
    DifficultyThreshold,
    LimitDiagnostics,
    RandomCoverage,
    SolverRule,
    SystemTrajectory,
    build_trajectory,
    limit_diagnostics,
    marginal_gains,
    telescoping_residual,
    utility_sequence,
)
from .prior import (
    HypothesisClass,
    HypothesisDescriptor,
    TruncatedPrior,
    prior_weights,
    truncate,
)
from .prediction import (
    BayesRisk,
    BoundRecord,
    ConditionalKernel,
    ContextDistribution,
    LossTable,
    PredictionBoundsReport,
    PredictiveDistribution,
    averaged_risk,
    bayes_risk,
    full_mixture,
    tail_mixture,
    truncated_mixture,
    tv_dual,
    tv_half,
    verify_prediction_bounds,
)
from .modal import (
    DecisionResult,
    KripkeModel,
    ModalFormula,
    enumerate_frames,
    gl_decide,
    model_check,
    parse_formula,
    print_formula,
)

__version__ = "0.1.0"
