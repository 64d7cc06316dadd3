"""Each report check fails when one route it compares is broken.

A case injects one fault into one route of one check and runs a bundled or
golden scenario: that check's record must fail, and ``verify`` on a copy of
the scenario must exit 1. Its control runs the same scenario unpatched and
passes, so the fault, not the scenario, is what makes the check fail. A case
may put its own formulas in the bundled scenario's place. No bundled scenario
reaches the witness DAG unpatched: one case takes a formula past the sweep's
cap, and one patches the sweep to find nothing, with one more control: with
only that patch, ``logic_basics`` passes.
"""

import json
import shutil
from dataclasses import dataclass, replace
from types import SimpleNamespace
from pathlib import Path
from typing import Callable

import pytest

import tasklimits.modal.decide as decide
import tasklimits.scenario as loader
from tasklimits import prediction, runner, trajectory
from tasklimits.cli import main
from tasklimits.modal import (
    Countermodel,
    DecisionResult,
    Implies,
    KripkeModel,
    Or,
    SearchLevel,
    ValidityTrace,
    atom_indices,
)
from tasklimits.prior import MAX_CODE_LENGTH, TruncatedPrior
from tasklimits.runner import run_experiment
from tasklimits.scenario import parse_scenario
from support import SCENARIO_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def drop_a_weight_at_the_last_level(monkeypatch):
    """U(N) misses the weight of one task first solved at level N."""
    utility_sequence = runner.utility_sequence

    def faulty(traj):
        utilities = utility_sequence(traj)
        weights = zip(traj.mu.weights, traj.first_level)
        dropped = next(w for w, level in weights if level == traj.levels)
        return utilities[:-1] + [utilities[-1] - dropped]

    monkeypatch.setattr(runner, "utility_sequence", faulty)


def drop_a_solved_weight(monkeypatch):
    """Both sequences miss the weight of one task first solved at level 3, so they agree."""
    weights_first_solved = trajectory._weights_first_solved

    def faulty(traj):
        runs = weights_first_solved(traj)
        runs[2] = runs[2][1:]
        return runs

    monkeypatch.setattr(trajectory, "_weights_first_solved", faulty)


def book_every_task_a_level_late(monkeypatch):
    """Both sequences see each task one level after it is solved, the last level's never."""
    weights_first_solved = trajectory._weights_first_solved
    monkeypatch.setattr(
        trajectory, "_weights_first_solved", lambda traj: [[], *weights_first_solved(traj)[:-1]]
    )


def solve_the_tasks_past_the_horizon_first(monkeypatch):
    """A task whose difficulty is past ``n_max`` is booked at level 1, not left unsolved.

    Both sequences and both endpoint sums read the same first levels, so they agree.
    """
    build_trajectory = runner.build_trajectory

    def faulty(rule, n_max, mu):
        traj = build_trajectory(rule, n_max, mu)
        pairs = zip(rule.difficulties, traj.first_level)
        return replace(traj, first_level=tuple(1 if d > n_max else n for d, n in pairs))

    monkeypatch.setattr(runner, "build_trajectory", faulty)


def inflate_the_gains(monkeypatch):
    marginal_gains = runner.marginal_gains
    monkeypatch.setattr(runner, "marginal_gains", lambda traj: [g + 1.0 for g in marginal_gains(traj)])


def halve_the_tail_mass(monkeypatch):
    """Every split keeps its ``z_n`` but reports half its ``tau_n``."""
    truncate = prediction.truncate

    def faulty(hclass, n):
        split = truncate(hclass, n)
        return TruncatedPrior(split.level, split.z_n, split.tau_n / 2)

    monkeypatch.setattr(prediction, "truncate", faulty)


class _TailWeights(list):
    """Prior weights over a tail band, the code lengths past a level."""


def perturb_one_tail_cell(monkeypatch):
    """Each tail mixture is 1e-9 off in one cell; the full and head mixtures are exact."""
    prior_weights, mix = prediction.prior_weights, prediction._mix

    def tagged(hclass, lo=-1, hi=MAX_CODE_LENGTH):
        weights = prior_weights(hclass, lo, hi)
        return _TailWeights(weights) if lo >= 0 else weights

    def faulty(stack, weights):
        mixture = mix(stack, weights)
        if not isinstance(weights, _TailWeights):
            return mixture
        table = mixture.table.copy()
        table[0, 0] += 1e-9
        # Its row no longer sums to 1 within 1e-12, so it cannot be a
        # ``ConditionalKernel``; the sweep reads only the table.
        return SimpleNamespace(table=table)

    monkeypatch.setattr(prediction, "prior_weights", tagged)
    monkeypatch.setattr(prediction, "_mix", faulty)


def write_the_residuals_at_the_empty_tail_levels(monkeypatch):
    """The decomposition residual records go to the levels whose tail is empty, not the others.

    Each carries the residual of the last level with a non-empty tail, as the sweep
    does when its ``tau_n != 0.0`` guard before the residual records is negated.
    """
    verify_prediction_bounds = runner.verify_prediction_bounds

    def faulty(*args, **kwargs):
        result = verify_prediction_bounds(*args, **kwargs)
        kept = [r for r in result.records if r.name != "decomposition_residual"]
        last = [r for r in result.records if r.name == "decomposition_residual"][-1]
        moved = [replace(last, level=s.level) for s in result.levels if s.tau_n == 0.0]
        return replace(result, records=tuple(kept + moved))

    monkeypatch.setattr(runner, "verify_prediction_bounds", faulty)


def stop_the_sweep_two_levels_short(monkeypatch):
    """The sweep runs ``range(n_max - 1)``: its last two levels have no records at all."""
    verify_prediction_bounds = runner.verify_prediction_bounds

    def faulty(hclass, kernels, loss, pi, n_max, **kwargs):
        return verify_prediction_bounds(hclass, kernels, loss, pi, n_max - 2, **kwargs)

    monkeypatch.setattr(runner, "verify_prediction_bounds", faulty)


def claim_a_countermodel_where_the_formula_holds(monkeypatch):
    """Every formula is called invalid, at a lone world where every atom is true.

    Each box holds there vacuously, so each ``logic_basics`` formula holds too.
    """

    def faulty(phi, walk):
        model = KripkeModel(frozenset({0}), frozenset(), ((0, frozenset(atom_indices(phi))),))
        return DecisionResult("invalid", countermodel=Countermodel(model, 0))

    monkeypatch.setattr(runner, "gl_decide", faulty)


def call_every_formula_valid(monkeypatch):
    """Every formula is called valid, after a search of one frame at one world."""
    trace = ValidityTrace((SearchLevel(1, 1, 1),))
    monkeypatch.setattr(runner, "gl_decide", lambda phi, walk: DecisionResult("valid", trace=trace))


def eliminate_every_type(monkeypatch):
    """Elimination calls every formula valid; the frame sweep is never asked."""
    eliminate = decide._eliminate
    monkeypatch.setattr(decide, "_eliminate", lambda walk: eliminate(walk)._replace(failing=0))


def realise_a_failing_type(monkeypatch):
    """Elimination calls every realisable type failing, so every formula invalid.

    No frame of the sweep refutes a valid formula, so the witness DAG names one
    whose root, a realisable type, holds the formula.
    """
    eliminate = decide._eliminate

    def faulty(walk):
        types = eliminate(walk)
        return types._replace(failing=types.realized)

    monkeypatch.setattr(decide, "_eliminate", faulty)


def refute_nothing_by_sweep(monkeypatch):
    """The sweep finds no countermodel, so every invalid formula gets the witness DAG."""
    monkeypatch.setattr(decide, "_least_countermodel", lambda *args: None)


def flip_each_witness_dag_valuation(monkeypatch):
    """Every invalid formula gets the witness DAG, with every atom flipped at every world."""
    refute_nothing_by_sweep(monkeypatch)
    witness_dag = decide._witness_dag

    def faulty(types, atoms):
        cm = witness_dag(types, atoms)
        flipped = {w: set(atoms) - cm.model.true_atoms(w) for w in cm.model.worlds}
        return Countermodel(KripkeModel(cm.model.worlds, cm.model.relation, flipped), cm.world)

    monkeypatch.setattr(decide, "_witness_dag", faulty)


def pick_witnesses_outside_the_keep_cells(monkeypatch):
    """The witness DAG picks each witness among all realisable types that hold ``[]A_j`` and
    fail ``A_j``, not only those that keep the box set of the type it witnesses for."""
    witness_dag = decide._witness_dag

    def faulty(types, atoms):
        return witness_dag(types._replace(keep=[-1] * len(types.keep)), atoms)

    monkeypatch.setattr(decide, "_witness_dag", faulty)


def read_each_atoms_complement(monkeypatch):
    """The frame sweep reads each atom's complement, so it names flipped valuations."""
    frame_cells = decide._frame_cells

    def faulty(walk, succ_masks, atom_rows, full):
        flipped = {atom: [full ^ cell for cell in row] for atom, row in atom_rows.items()}
        return frame_cells(walk, succ_masks, flipped, full)

    monkeypatch.setattr(decide, "_frame_cells", faulty)


def swap_each_implications_operands(monkeypatch):
    """``decide`` reads ``A -> B`` as ``B -> A``; ``model_check`` walks the nodes themselves.

    The loader's ``check_limits`` takes the swapped walk, and the runner decides from it.
    """
    walk = decide._postorder

    def faulty(phi):
        nodes, operands = walk(phi)
        swapped = [ops[::-1] if isinstance(f, Implies) else ops for f, ops in zip(nodes, operands)]
        return nodes, swapped

    monkeypatch.setattr(decide, "_postorder", faulty)


def pair_each_formula_with_the_next_walk(monkeypatch):
    """The loader hands each formula the walk of the one after it, the last the first's."""
    logic_payload = loader.LogicPayload

    def faulty(texts, formulas, walks):
        return logic_payload(texts, formulas, walks[1:] + walks[:1])

    monkeypatch.setattr(loader, "LogicPayload", faulty)


def read_each_implication_as_a_disjunction(monkeypatch):
    """The connective table reads ``A -> B`` as ``A | B`` in elimination and in the sweep.

    ``model_check`` and the one-world probe evaluate the nodes themselves, not the table.
    """
    monkeypatch.setitem(decide._CONNECTIVES, Implies, decide._CONNECTIVES[Or])


@dataclass(frozen=True)
class Case:
    scenario: str
    #: A bound record's name, or ``witness_ok`` for the verdict of formula ``level``.
    check: str
    level: int
    inject: Callable[[pytest.MonkeyPatch], None]
    epsilon: float | None = None
    n_max: int | None = None
    #: Formulas in place of the scenario's own, if any.
    formulas: tuple[str, ...] = ()
    #: Where the scenario file is read from.
    directory: Path = SCENARIO_DIR


CASES = {
    "telescoping": Case(
        "uniform_threshold.json", "telescoping_residual", 5, drop_a_weight_at_the_last_level
    ),
    # Each fault is in the buckets that both the utilities and the gains read.
    "utility-endpoints-drop": Case(
        "uniform_threshold.json", "telescoping_residual", 5, drop_a_solved_weight
    ),
    "utility-endpoints-late": Case(
        "uniform_threshold.json", "telescoping_residual", 5, book_every_task_a_level_late
    ),
    # At n_max 3 the tasks of difficulty 4 and 5, mass 0.4, lie past the horizon.
    "horizon": Case(
        "uniform_threshold.json",
        "telescoping_residual",
        3,
        solve_the_tasks_past_the_horizon_first,
        n_max=3,
    ),
    # At epsilon 0.5 at most two gains may reach epsilon; the scenario has four.
    "epsilon-count": Case(
        "uniform_threshold.json", "gains_at_or_above_epsilon", 5, inflate_the_gains, epsilon=0.5
    ),
    "tv": Case("bernoulli_pair.json", "tv_vs_tail", 1, halve_the_tail_mass),
    "risk": Case("bernoulli_pair.json", "risk_vs_tail", 1, halve_the_tail_mass),
    "gain": Case("bernoulli_pair.json", "gain_vs_tails", 1, halve_the_tail_mass),
    "decomposition": Case(
        "bernoulli_pair.json", "decomposition_residual", 1, perturb_one_tail_cell
    ),
    # Levels 12-14 have an empty tail; the layout wants residual records at 1-11.
    "layout-residuals": Case(
        "spread_prediction.scenario.json",
        "record_layout",
        1,
        write_the_residuals_at_the_empty_tail_levels,
        directory=GOLDEN_DIR,
    ),
    # The first record missing is level 13's tv record.
    "layout-levels": Case(
        "spread_prediction.scenario.json",
        "record_layout",
        13,
        stop_the_sweep_two_levels_short,
        directory=GOLDEN_DIR,
    ),
    "witness": Case(
        "logic_basics.json", "witness_ok", 1, claim_a_countermodel_where_the_formula_holds
    ),
    # Formula 3 is ``[]p0 -> p0``, false at a lone world where p0 is false.
    "valid-verdict": Case("logic_basics.json", "witness_ok", 3, call_every_formula_valid),
    # The same formula, called valid by ``gl_decide``'s own elimination.
    "elimination-valid": Case("logic_basics.json", "witness_ok", 3, eliminate_every_type),
    # The same formula, refuted by the sweep at a lone world where p0 is true.
    "sweep-valuation": Case("logic_basics.json", "witness_ok", 3, read_each_atoms_complement),
    # The same formula, refuted by the witness DAG at a lone world where p0 is true.
    "witness-dag-valuation": Case(
        "logic_basics.json", "witness_ok", 3, flip_each_witness_dag_valuation
    ),
    # 6 atoms over 3 worlds, 18 valuation bits: past the sweep's cap, so the witness DAG
    # refutes it. Its root holds []p0 and its one witness must keep p0 true, where the
    # fault picks the witness with no atom true: []p0 then fails at the root.
    "witness-dag-keep": Case(
        "logic_basics.json",
        "witness_ok",
        1,
        pick_witnesses_outside_the_keep_cells,
        formulas=("[]p0 -> []p1 | (p2 & p3 & p4 & p5 & ~p2)",),
    ),
    # The same formula, decided as ``p0 -> []p0``: refuted where p0 holds and []p0 fails.
    "implication-operands": Case(
        "logic_basics.json", "witness_ok", 3, swap_each_implications_operands
    ),
    # Formula 1, Löb's, decided as ``[]([]p0 | p0) | []p0``: refuted where Löb's holds.
    "connective-table": Case(
        "logic_basics.json", "witness_ok", 1, read_each_implication_as_a_disjunction
    ),
    # Formula 3, ``[]p0 -> p0``, decided from formula 4's walk: called valid, and the
    # one-world probe finds it false where p0 is false.
    "walk-pairing": Case(
        "logic_basics.json", "witness_ok", 3, pair_each_formula_with_the_next_walk
    ),
    # The same formula, called invalid by elimination: the witness DAG's root holds it.
    "elimination-invalid": Case("logic_basics.json", "witness_ok", 1, realise_a_failing_type),
}


def scenario_copy(case: Case, directory) -> Path:
    """The case's scenario file, written into ``directory``."""
    path = directory / case.scenario
    if case.formulas:
        data = json.loads((case.directory / case.scenario).read_text())
        data["payload"]["formulas"] = list(case.formulas)
        path.write_text(json.dumps(data))
    else:
        shutil.copy(case.directory / case.scenario, path)
    return path


def check_passed(case: Case, directory) -> bool:
    scenario = parse_scenario(
        scenario_copy(case, directory), n_max=case.n_max, epsilon=case.epsilon
    )
    report = run_experiment(scenario)
    if case.check == "witness_ok":
        return report.verdicts[case.level - 1].witness_ok
    records = [r for r in report.bounds if (r.name, r.level) == (case.check, case.level)]
    if case.check == "record_layout":
        # The layout record is written only where the layout differs.
        return not records
    [record] = records
    return record.passed


def verify_copy(case: Case, tmp_path, capsys) -> int:
    scenario_copy(case, tmp_path)
    flags = [] if case.epsilon is None else ["--epsilon", repr(case.epsilon)]
    flags += [] if case.n_max is None else ["--n-max", str(case.n_max)]
    code = main(["verify", str(tmp_path), *flags])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_control_passes(case, tmp_path, capsys):
    assert check_passed(case, tmp_path)
    assert verify_copy(case, tmp_path, capsys) == 0


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_fault_fails_the_check(case, monkeypatch, tmp_path, capsys):
    case.inject(monkeypatch)
    assert not check_passed(case, tmp_path)
    assert verify_copy(case, tmp_path, capsys) == 1


def test_witness_dag_alone_passes(monkeypatch, tmp_path, capsys):
    """The control of ``witness-dag-valuation``: the witness DAG with no fault in it."""
    refute_nothing_by_sweep(monkeypatch)
    scenario = parse_scenario(SCENARIO_DIR / "logic_basics.json")
    assert run_experiment(scenario).passed
    assert verify_copy(CASES["witness-dag-valuation"], tmp_path, capsys) == 0
