"""Experiment orchestration: scenario in, report out, deterministically.

Each scenario kind runs the relevant pipeline and folds every check into
inequality records:

* trajectory: utilities and gains per level, the telescoping-identity
  residual, the counting bound on gains of size >= epsilon, and limit
  diagnostics;
* prediction: tail masses, predictive utilities, the three tail-mass
  perturbation bounds and the mixture decomposition residual per level, all
  from one sweep (``verify_prediction_bounds``);
* logic: a validity verdict per formula with a re-checked witness.
"""

from __future__ import annotations

import math

from .modal import gl_decide, model_check
from .prediction import BOUND_SLACK, IDENTITY_TOLERANCE, BoundRecord, verify_prediction_bounds
from .report import CountermodelRecord, Report, StepRecord, VerdictRecord
from .scenario import LogicPayload, PredictionPayload, Scenario, TrajectoryPayload
from .trajectory import (
    build_trajectory,
    limit_diagnostics,
    marginal_gains,
    telescoping_residual,
    utility_sequence,
)


def _run_trajectory(scenario: Scenario, payload: TrajectoryPayload) -> Report:
    traj = build_trajectory(payload.rule, scenario.n_max, payload.mu)
    utilities = utility_sequence(traj)
    gains = marginal_gains(traj) if traj.levels >= 2 else []

    steps = tuple(
        StepRecord(
            n=i + 1,
            utility=utilities[i],
            delta=gains[i] if i < len(gains) else None,
        )
        for i in range(traj.levels)
    )

    bounds: list[BoundRecord] = []
    if gains:
        residual = telescoping_residual(utilities, gains)
        bounds.append(
            BoundRecord.check("telescoping_residual", traj.levels, residual, IDENTITY_TOLERANCE)
        )
        count = float(sum(1 for g in gains if g >= scenario.epsilon))
        cap = float(math.ceil(1.0 / scenario.epsilon))
        bounds.append(BoundRecord.check("gains_at_or_above_epsilon", traj.levels, count, cap))

    diag = limit_diagnostics(utilities, gains, scenario.epsilon)
    notes = (
        f"epsilon={scenario.epsilon!r}",
        f"u_last={diag.u_last!r}",
        f"first_n_with_gain_below_epsilon={diag.first_n_with_gain_below_epsilon}",
        f"max_tail_gain={diag.max_tail_gain!r}",
    )

    return Report(
        scenario=scenario.name,
        kind=scenario.kind,
        passed=all(b.passed for b in bounds),
        steps=steps,
        bounds=tuple(bounds),
        notes=notes,
    )


def _run_prediction(scenario: Scenario, payload: PredictionPayload, slack: float) -> Report:
    result = verify_prediction_bounds(
        payload.hypotheses,
        payload.kernels,
        payload.loss,
        payload.contexts,
        scenario.n_max,
        slack_tolerance=slack,
    )

    notes = [f"level {n}: skipped ({reason})" for n, reason in result.skipped]
    notes += [
        f"level {n}: decomposition skipped ({reason})" for n, reason in result.decomposition_skipped
    ]

    by_level: dict[int, list[BoundRecord]] = {}
    for record in result.records:
        by_level.setdefault(record.level, []).append(record)

    utilities = {summary.level: summary.utility for summary in result.levels}
    steps = []
    for summary in result.levels:
        # Every summarized level has at least its tv and risk records.
        n, level_records = summary.level, by_level[summary.level]
        worst = min(level_records, key=lambda r: r.slack)
        steps.append(
            StepRecord(
                n=n,
                utility=summary.utility,
                delta=(utilities[n + 1] - utilities[n]) if n + 1 in utilities else None,
                tau=summary.tau_n,
                bound_lhs=worst.lhs,
                bound_rhs=worst.rhs,
                slack=worst.slack,
                passed=all(r.passed for r in level_records),
            )
        )

    return Report(
        scenario=scenario.name,
        kind=scenario.kind,
        passed=result.all_passed,
        steps=tuple(steps),
        bounds=result.records,
        notes=tuple(notes),
    )


def _run_logic(scenario: Scenario, payload: LogicPayload) -> Report:
    verdicts = []
    steps = []
    for i, (text, phi) in enumerate(zip(payload.texts, payload.formulas)):
        result = gl_decide(phi)
        if result.is_valid:
            witness_ok = True
            countermodel = None
            search_levels = tuple(
                (lvl.world_count, lvl.frames_checked, lvl.valuations_per_frame)
                for lvl in result.trace.levels
            )
        else:
            cm = result.countermodel
            # The witness is good iff the formula really is false at the named world.
            witness_ok = model_check(phi, cm.model, cm.world) is False
            search_levels = None
            countermodel = CountermodelRecord(
                worlds=tuple(sorted(cm.model.worlds)),
                relation=tuple(sorted(cm.model.relation)),
                valuation=tuple(
                    (w, tuple(sorted(atoms))) for w, atoms in cm.model.valuation
                ),
                refuting_world=cm.world,
            )
        verdicts.append(
            VerdictRecord(
                index=i + 1,
                formula=text,
                verdict=result.verdict,
                witness_ok=witness_ok,
                countermodel=countermodel,
                search_levels=search_levels,
            )
        )
        steps.append(StepRecord(n=i + 1, passed=witness_ok))

    return Report(
        scenario=scenario.name,
        kind=scenario.kind,
        passed=all(v.witness_ok for v in verdicts),
        steps=tuple(steps),
        verdicts=tuple(verdicts),
    )


def run_experiment(scenario: Scenario, slack_tolerance: float = BOUND_SLACK) -> Report:
    """Run one scenario to a report; deterministic given the scenario contents."""
    payload = scenario.payload
    if isinstance(payload, TrajectoryPayload):
        return _run_trajectory(scenario, payload)
    if isinstance(payload, PredictionPayload):
        return _run_prediction(scenario, payload, slack_tolerance)
    return _run_logic(scenario, payload)
