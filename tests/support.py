"""Shared fixtures-in-code for the test suite: randomized scenario and
formula generators plus independent brute-force oracles.

Everything here is seeded and deterministic. The oracles deliberately avoid
the implementation paths they check: the frame-validity oracle evaluates
with numpy boolean arrays over the full labeled frame enumeration, while
the decision procedure uses bigint masks over canonical representatives;
the Bayes-risk oracle is a plain double loop; the reference trajectory
chain builds every level as a whole frozenset, where the library stores the
level at which each task is first solved, and for an explicit chain it is
the very sets the case generated, not anything read back from the loaded
rule. A set's mass is one ``fsum`` over its members, and the tasks new at a
level are a set difference. The
reference utilities re-sum every prefix of the solved weights with one
``fsum`` each, where the library carries an exact running sum, and the
reference structured report goes through ``json.dumps``, where the library
writes the text directly. The reference representative frames are marked by
relabeling orbits over every labelled order, where the library reads a
literal table, and the reference frame table evaluates every subformula at
every world, where the library evaluates only what the root reads.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import is_dataclass
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import numpy as np

from tasklimits.modal import (
    And,
    Atom,
    Box,
    Implies,
    ModalFormula,
    Not,
    Or,
    atom_indices,
    box_subformulas,
    count_nodes,
    enumerate_frames,
)
from tasklimits.modal.kripke import successor_mask_orders
from tasklimits.prediction import ConditionalKernel, ContextDistribution, LossTable
from tasklimits.prior import HypothesisClass, HypothesisDescriptor
from tasklimits.scenario import scenario_from_dict
from tasklimits.taskspace import TaskMeasure
from tasklimits.trajectory import (
    DifficultyThreshold,
    RandomCoverage,
    SolverRule,
    SystemTrajectory,
    build_trajectory,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MAX_RANDOM_CODE_LENGTH = 12


def random_stochastic_rows(rng: random.Random, rows: int, cols: int) -> list[list[float]]:
    table = []
    for _ in range(rows):
        raw = [rng.random() + 1e-9 for _ in range(cols)]
        total = sum(raw)
        table.append([x / total for x in raw])
    return table


def random_kraft_lengths(rng: random.Random, count: int) -> list[int]:
    """Code lengths <= 12 bits whose Kraft sum is <= 1 by construction."""
    budget = 1 << MAX_RANDOM_CODE_LENGTH
    lengths = []
    for i in range(count):
        remaining_after = count - i - 1
        max_cost = budget - remaining_after
        shortest = MAX_RANDOM_CODE_LENGTH - (max_cost.bit_length() - 1)
        length = rng.randint(max(0, shortest), MAX_RANDOM_CODE_LENGTH)
        lengths.append(length)
        budget -= 1 << (MAX_RANDOM_CODE_LENGTH - length)
    return lengths


def random_prediction_scenario(seed: int):
    """(hypothesis class, kernels, loss, contexts) within the randomized-suite limits."""
    rng = random.Random(seed)
    n_outcomes = rng.randint(2, 5)
    n_contexts = rng.randint(1, 10)
    n_hypotheses = rng.randint(1, 64)
    n_actions = rng.randint(1, 8)

    lengths = random_kraft_lengths(rng, n_hypotheses)
    descriptors = tuple(
        HypothesisDescriptor(id=i, code_length=lengths[i], kernel_ref=f"k{i}")
        for i in range(n_hypotheses)
    )
    hclass = HypothesisClass(descriptors)
    kernels = {
        f"k{i}": ConditionalKernel(random_stochastic_rows(rng, n_contexts, n_outcomes))
        for i in range(n_hypotheses)
    }
    loss = LossTable([[rng.random() for _ in range(n_outcomes)] for _ in range(n_actions)])
    contexts = ContextDistribution(random_stochastic_rows(rng, 1, n_contexts)[0])
    return hclass, kernels, loss, contexts


def brute_force_bayes_risk(rho_row, loss_table) -> tuple[float, int]:
    """Minimum expected loss by explicit double loop; ties to the lowest action."""
    best_value = None
    best_action = -1
    for u, action_row in enumerate(loss_table):
        expected = sum(l * p for l, p in zip(action_row, rho_row))
        if best_value is None or expected < best_value:
            best_value = expected
            best_action = u
    return best_value, best_action


def random_formula(
    rng: random.Random,
    max_nodes: int = 15,
    n_atoms: int = 2,
    max_box_depth: int = 3,
    max_distinct_boxes: int = 3,
) -> ModalFormula:
    """Random formula within the corpus limits (retries until all hold)."""

    def gen(budget: int, box_depth: int) -> ModalFormula:
        if budget <= 1:
            return Atom(rng.randrange(n_atoms))
        roll = rng.random()
        if roll < 0.25:
            return Atom(rng.randrange(n_atoms))
        if roll < 0.40:
            return Not(gen(budget - 1, box_depth))
        if roll < 0.62 and box_depth > 0:
            return Box(gen(budget - 1, box_depth - 1))
        left_budget = rng.randint(1, budget - 2) if budget > 2 else 1
        left = gen(left_budget, box_depth)
        right = gen(budget - 1 - left_budget, box_depth)
        kind = rng.randrange(3)
        if kind == 0:
            return And(left, right)
        if kind == 1:
            return Or(left, right)
        return Implies(left, right)

    while True:
        phi = gen(max_nodes, max_box_depth)
        if count_nodes(phi) <= max_nodes and len(box_subformulas(phi)) <= max_distinct_boxes:
            return phi


def frame_validity_oracle(phi: ModalFormula, world_bound: int) -> bool:
    """True iff ``phi`` holds at every world of every labeled frame up to the bound,
    under every valuation. Batched over valuations with numpy booleans."""
    atoms = atom_indices(phi)
    position = {atom: i for i, atom in enumerate(atoms)}
    for world_count in range(1, world_bound + 1):
        n_valuations = 2 ** (len(atoms) * world_count)
        index = np.arange(n_valuations, dtype=np.int64)
        atom_truth = {
            atom: np.stack(
                [
                    (index >> (position[atom] * world_count + w)) & 1
                    for w in range(world_count)
                ],
                axis=1,
            ).astype(bool)
            for atom in atoms
        }
        for relation in enumerate_frames(world_count):
            successors = [
                [v for (u, v) in relation if u == w] for w in range(world_count)
            ]
            cache: dict[ModalFormula, np.ndarray] = {}

            def evaluate(node: ModalFormula) -> np.ndarray:
                if node in cache:
                    return cache[node]
                if isinstance(node, Atom):
                    value = atom_truth[node.index]
                elif isinstance(node, Not):
                    value = ~evaluate(node.operand)
                elif isinstance(node, And):
                    value = evaluate(node.left) & evaluate(node.right)
                elif isinstance(node, Or):
                    value = evaluate(node.left) | evaluate(node.right)
                elif isinstance(node, Implies):
                    value = ~evaluate(node.left) | evaluate(node.right)
                else:
                    child = evaluate(node.operand)
                    columns = []
                    for w in range(world_count):
                        if successors[w]:
                            columns.append(child[:, successors[w]].all(axis=1))
                        else:
                            columns.append(np.ones(n_valuations, dtype=bool))
                    value = np.stack(columns, axis=1)
                cache[node] = value
                return value

            if not evaluate(phi).all():
                return False
    return True


@lru_cache(maxsize=None)
def reference_representative_frames(world_count: int) -> tuple[tuple[int, ...], ...]:
    """The first frame of each relabeling class, in ``successor_mask_orders`` order.

    A frame is kept unless an earlier kept frame relabels to it; keeping one
    marks its whole class.
    """
    seen: set[tuple[int, ...]] = set()
    reps: list[tuple[int, ...]] = []
    perms = list(permutations(range(world_count)))
    for masks in successor_mask_orders(world_count):
        if masks in seen:
            continue
        reps.append(masks)
        for perm in perms:
            relabeled = [0] * world_count
            for w in range(world_count):
                mask = 0
                succ = masks[w]
                while succ:
                    low = succ & -succ
                    mask |= 1 << perm[low.bit_length() - 1]
                    succ ^= low
                relabeled[perm[w]] = mask
            seen.add(tuple(relabeled))
    return tuple(reps)


def reference_frame_table(
    ops: list[tuple],
    atom_position: dict[int, int],
    succ_masks: tuple[int, ...],
    world_count: int,
    atom_masks: list[list[int]],
    full: int,
) -> list[list[int]]:
    """Truth bitmask of every subformula at every world, batched over valuations."""
    table: list[list[int]] = []
    for op in ops:
        kind = op[0]
        if kind == "atom":
            row = atom_masks[atom_position[op[1]]]
        elif kind == "not":
            child = table[op[1]]
            row = [full ^ child[w] for w in range(world_count)]
        elif kind == "box":
            child = table[op[1]]
            row = []
            for w in range(world_count):
                acc = full
                succ = succ_masks[w]
                while succ:
                    low = succ & -succ
                    acc &= child[low.bit_length() - 1]
                    succ ^= low
                row.append(acc)
        elif kind == "and":
            a, b = table[op[1]], table[op[2]]
            row = [a[w] & b[w] for w in range(world_count)]
        elif kind == "or":
            a, b = table[op[1]], table[op[2]]
            row = [a[w] | b[w] for w in range(world_count)]
        else:  # implies
            a, b = table[op[1]], table[op[2]]
            row = [(full ^ a[w]) | b[w] for w in range(world_count)]
        table.append(row)
    return table


def explicit_chain_dict(sets, n_max: int, mu: TaskMeasure) -> dict:
    """A trajectory scenario whose rule is the explicit chain ``sets`` over ``mu``."""
    return {
        "name": "explicit",
        "kind": "trajectory",
        "seed": 0,
        "n_max": n_max,
        "epsilon": 0.1,
        "payload": {
            "task_weights": list(mu.weights),
            "rule": {"kind": "explicit_sets", "sets": [sorted(s) for s in sets]},
        },
    }


def explicit_trajectory(sets, mu: TaskMeasure) -> SystemTrajectory:
    """The trajectory of the chain ``sets``, one level per set, loaded as a scenario file is."""
    rule = scenario_from_dict(explicit_chain_dict(sets, len(sets), mu)).payload.rule
    return build_trajectory(rule, len(sets), mu)


def reference_mass(solved: frozenset[int], mu: TaskMeasure) -> float:
    """The mass of a set of tasks under ``mu``, as one ``fsum``."""
    return math.fsum(mu.weights[t] for t in solved)


def reference_chain(
    rule: SolverRule, n_max: int, mu: TaskMeasure, sets=None
) -> tuple[frozenset[int], ...]:
    """The solved set of every level 1..n_max under ``rule``, each built whole.

    For a rule loaded from an explicit chain, pass the chain as ``sets``.
    """
    if sets is not None:
        return tuple(frozenset(s) for s in sets[:n_max])
    if isinstance(rule, DifficultyThreshold):
        return tuple(
            frozenset(t for t, d in enumerate(rule.difficulties) if d <= n and t < mu.size)
            for n in range(1, n_max + 1)
        )
    rng = random.Random(rule.seed)
    solved: set[int] = set()
    chain = []
    for _ in range(n_max):
        for t in range(mu.size):
            if t not in solved and rng.random() < rule.step_probability:
                solved.add(t)
        chain.append(frozenset(solved))
    return tuple(chain)


def random_trajectory_case(
    seed: int,
) -> tuple[SolverRule, int, TaskMeasure, list[frozenset[int]] | None]:
    """A rule, n_max, measure of up to 40 tasks (some with zero weight) and chain.

    The chain is the list of sets an ``explicit_sets`` rule was loaded from, or
    ``None`` for the other rules.
    """
    rng = random.Random(seed)
    size = rng.randint(1, 40)
    n_max = rng.randint(1, 30)
    raw = [rng.random() if rng.random() < 0.8 else 0.0 for _ in range(size)]
    raw[rng.randrange(size)] = 1.0
    total = sum(raw)
    mu = TaskMeasure(tuple(w / total for w in raw))
    kind = seed % 3
    if kind == 0:
        # Difficulties may run past n_max, past the space, or stop short of zero-weight tasks.
        declared = max(max(mu.support) + 1, size + rng.randint(-3, 3))
        rule: SolverRule = DifficultyThreshold(
            tuple(rng.randint(1, n_max + 5) for _ in range(declared))
        )
        return rule, n_max, mu, None
    if kind == 1:
        probability = rng.choice([0.0, 1.0, rng.random() * 0.4])
        return RandomCoverage(step_probability=probability, seed=seed), n_max, mu, None
    solved: frozenset[int] = frozenset()
    sets = []
    for _ in range(n_max + rng.randint(0, 3)):
        solved |= {t for t in range(size) if rng.random() < 0.1}
        sets.append(solved)
    rule = scenario_from_dict(explicit_chain_dict(sets, n_max, mu)).payload.rule
    return rule, n_max, mu, sets


def reference_utilities(traj: SystemTrajectory) -> list[float]:
    """U(n) for n = 1..N as one ``fsum`` over all the weights solved by level n."""
    solved = list(zip(traj.mu.weights, traj.first_level))
    return [
        math.fsum(w for w, level in solved if 0 < level <= n) for n in range(1, traj.levels + 1)
    ]


def _to_json(value):
    """Records become objects of their fields, tuples and lists become lists; the rest stays."""
    if isinstance(value, (tuple, list)):
        return [_to_json(item) for item in value]
    if is_dataclass(value):
        return {name: _to_json(item) for name, item in vars(value).items()}
    return value


def reference_structured(report) -> bytes:
    """The structured report as ``json.dumps`` writes it, with a trailing newline."""
    text = json.dumps(_to_json(report), sort_keys=True, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")
