"""Shared fixtures-in-code for the test suite: randomized scenario and
formula generators plus independent brute-force oracles.

Everything here is seeded and deterministic. The oracles deliberately avoid
the implementation paths they check: the frame-validity oracle evaluates
with numpy boolean arrays over the full labeled frame enumeration, while
the decision procedure uses bigint masks over canonical representatives;
the reference subformula walk tells equal nodes apart by hashing them, where
the library compares integer keys;
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
literal table. The Hintikka-type reference decides validity by evaluating each type one
subformula at a time and searching each box set's witnesses type by type,
where the library computes one bitmask cell per subformula over all types;
it builds its countermodels from witness types, not from any frame the
library's sweep visits.
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
    KripkeModel,
    ModalFormula,
    Not,
    Or,
    atom_indices,
    box_subformulas,
    count_nodes,
    enumerate_frames,
)
from tasklimits.modal.kripke import successor_mask_orders
from tasklimits.prediction import ConditionalKernel, LossTable
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
    contexts = TaskMeasure(random_stochastic_rows(rng, 1, n_contexts)[0])
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


def reference_subformulas(phi: ModalFormula) -> list[ModalFormula]:
    """Distinct subformulas in postorder, told apart by a dict keyed by the nodes themselves.

    Each node object is opened once, by ``id``, and enters ``seen`` after its children;
    an equal node met later keeps the first one's place.
    """
    seen: dict[ModalFormula, None] = {}
    opened, stack = set(), [phi]  # ids of the nodes opened; nodes to visit
    while stack:
        node = stack.pop()
        if isinstance(node, Atom) or id(node) in opened:
            seen.setdefault(node)
        else:  # the node goes back under its children, the left one on top
            opened.add(id(node))
            unary = isinstance(node, (Not, Box))
            stack += node, *((node.operand,) if unary else (node.right, node.left))
    return list(seen)


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


def hintikka_type_reference(phi: ModalFormula) -> tuple[bool, tuple[KripkeModel, int] | None]:
    """Validity of ``phi`` over finite transitive irreflexive frames by elimination of
    Hintikka types (Pratt 1979; Boolos 1993), with a countermodel when invalid.

    A type is an integer: bit ``i`` makes the ``i``-th atom true and bit
    ``atoms + j`` the ``j``-th boxed subformula ``[]A_j``; every other subformula
    follows. A type with box set ``B`` is realisable iff, for each ``j`` outside
    ``B``, some realisable type holds ``A_k`` and ``[]A_k`` for every ``k`` in
    ``B``, holds ``[]A_j`` and fails ``A_j``: in a conversely well-founded frame
    a world that fails ``[]A_j`` sees a last world that fails ``A_j``. Witnesses
    have strictly larger box sets, so types go from the largest box set down.
    ``phi`` is valid iff it holds at every realisable type. Otherwise the
    countermodel's worlds are a failing type and the types reachable from it
    through each type's witnesses, where each pick takes the highest box set
    and within it the lowest atom bits; its relation is the transitive closure
    of the witness edges, and ``phi`` fails at the returned root.
    """
    atoms = atom_indices(phi)
    boxes = {box: j for j, box in enumerate(box_subformulas(phi))}
    n_atoms = len(atoms)
    position = {atom: i for i, atom in enumerate(atoms)}

    def holds(node: ModalFormula, t: int) -> bool:
        if isinstance(node, Atom):
            return bool(t >> position[node.index] & 1)
        if isinstance(node, Box):
            return bool(t >> (n_atoms + boxes[node]) & 1)
        if isinstance(node, Not):
            return not holds(node.operand, t)
        if isinstance(node, And):
            return holds(node.left, t) and holds(node.right, t)
        if isinstance(node, Or):
            return holds(node.left, t) or holds(node.right, t)
        return not holds(node.left, t) or holds(node.right, t)

    def highest_box_set_first(t: int) -> tuple[int, int]:
        return -(t >> n_atoms), t

    types = range(1 << (n_atoms + len(boxes)))
    # Bit j of inner[t]: the operand A_j of the j-th box holds at t.
    inner = {t: sum(holds(box.operand, t) << j for box, j in boxes.items()) for t in types}
    below: dict[int, frozenset[int]] = {}  # realisable type -> the types its witnesses reach
    for t in sorted(types, key=lambda t: -bin(t >> n_atoms).count("1")):
        kept = t >> n_atoms
        reach: set[int] = set()
        for j in range(len(boxes)):
            if kept >> j & 1:
                continue
            need = kept | 1 << j
            witness = min(
                (
                    u
                    for u in below
                    if u >> n_atoms & need == need and inner[u] & kept == kept
                    and not inner[u] >> j & 1
                ),
                key=highest_box_set_first,
                default=None,
            )
            if witness is None:
                break
            reach |= below[witness] | {witness}
        else:
            below[t] = frozenset(reach)
    root = min((t for t in below if not holds(phi, t)), key=highest_box_set_first, default=None)
    if root is None:
        return True, None
    worlds = below[root] | {root}
    model = KripkeModel(
        worlds,
        ((u, v) for u in worlds for v in below[u]),
        {u: {atom for i, atom in enumerate(atoms) if u >> i & 1} for u in worlds},
    )
    return False, (model, root)


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


def plain_form(value):
    """Records become objects of their fields, tuples and lists become lists; the rest stays."""
    if isinstance(value, (tuple, list)):
        return [plain_form(item) for item in value]
    if is_dataclass(value):
        return {name: plain_form(item) for name, item in vars(value).items()}
    return value


def reference_structured(report) -> bytes:
    """The structured report as ``json.dumps`` writes it, with a trailing newline."""
    text = json.dumps(plain_form(report), sort_keys=True, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")
