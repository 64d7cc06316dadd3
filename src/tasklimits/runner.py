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

import itertools
import math

from .modal import KripkeModel, atom_indices, gl_decide, model_check
from .prediction import BOUND_SLACK, BoundRecord, verify_prediction_bounds
from .report import CountermodelRecord, Report, StepRecord, VerdictRecord
from .scenario import LogicPayload, PredictionPayload, Scenario, TrajectoryPayload
from .taskspace import TOLERANCE
from .trajectory import (
    DifficultyThreshold,
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

    # The last level has no gain.
    steps = tuple(map(StepRecord, range(1, traj.levels + 1), utilities, [*gains, None]))

    bounds: list[BoundRecord] = []
    if gains:
        # U(1) and U(N) from the definition, apart from the level buckets both sequences read.
        weights, first_level = traj.mu.weights, traj.first_level
        u_first = math.fsum(itertools.compress(weights, map((1).__eq__, first_level)))
        u_last = math.fsum(itertools.compress(weights, first_level))
        ends = [abs(u_first - utilities[0]), abs(u_last - utilities[-1])]
        if isinstance(payload.rule, DifficultyThreshold):
            # U(N) once more, from the rule's own difficulties rather than the first levels.
            solved = map(traj.levels.__ge__, payload.rule.difficulties)
            u_rule = math.fsum(itertools.compress(weights, solved))
            ends.append(abs(u_rule - utilities[-1]))
        residual = max(telescoping_residual(utilities, gains), *ends)
        bounds.append(
            BoundRecord.check("telescoping_residual", traj.levels, residual, TOLERANCE)
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

    # The levels before the first summarized one are those with an empty head.
    empty_heads = range(result.levels[0].level if result.levels else scenario.n_max + 1)
    empty_tails = [summary.level for summary in result.levels if summary.tau_n == 0.0]
    notes = [
        f"level {n}: skipped (empty truncation: no hypothesis within the level)" for n in empty_heads
    ]
    notes += [f"level {n}: decomposition skipped (empty truncation)" for n in empty_heads]
    notes += [f"level {n}: decomposition skipped (empty tail)" for n in empty_tails]

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

    # The records' layout, from the code lengths and n_max alone rather than the sweep's loop.
    lengths = [h.code_length for h in payload.hypotheses.hypotheses]
    levels = range(min(lengths), scenario.n_max + 1)
    layout = [(name, n) for n in levels for name in ("tv_vs_tail", "risk_vs_tail")]
    layout += [("gain_vs_tails", n) for n in levels[:-1]]
    layout += [("decomposition_residual", n) for n in levels if n < max(lengths)]
    pairs = list(itertools.zip_longest([(r.name, r.level) for r in result.records], layout))
    wrong = [i for i, (got, want) in enumerate(pairs) if got != want]
    bounds = list(result.records)
    if wrong:
        got, want = pairs[wrong[0]]
        bounds.append(BoundRecord.check("record_layout", (want or got)[1], float(len(wrong)), 0.0))
        notes.append(f"record layout: record {wrong[0]} is {got}, expected {want}")

    return Report(
        scenario=scenario.name,
        kind=scenario.kind,
        passed=all(b.passed for b in bounds),
        steps=tuple(steps),
        bounds=tuple(bounds),
        notes=tuple(notes),
    )


def _run_logic(scenario: Scenario, payload: LogicPayload) -> Report:
    verdicts = []
    steps = []
    for i, (text, phi) in enumerate(zip(payload.texts, payload.formulas)):
        result = gl_decide(phi)
        if result.is_valid:
            # A sound but incomplete probe: a valid formula holds at every one-world model,
            # here world w with no relation, where the atoms of the set bits of w are true.
            atoms = atom_indices(phi)
            true = {
                w: {atom for bit, atom in enumerate(atoms) if w >> bit & 1}
                for w in range(1 << len(atoms))
            }
            model = KripkeModel(true, (), true)
            witness_ok = all(model_check(phi, model, w) for w in true)
            countermodel = None
            search_levels = result.trace.levels
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
