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

__version__ = "0.1.0"
