"""Validity decision over finite transitive irreflexive frames.

The decision method is exhaustive semantic search: a formula with ``b``
distinct boxed subformulas is valid over the frame class iff it holds in
every model with at most ``b + 1`` worlds, so the search sweeps all frames
up to that size (one representative per relabeling class) and, per frame,
all valuations at once. Valuations are batched as bitmasks: the truth of a
subformula at a world is one big integer whose bit ``v`` says whether the
subformula holds at that world under valuation ``v``.

An invalid verdict carries a concrete countermodel, re-checkable with
``model_check``; a valid verdict carries the exhaustive search trace
(frames and valuations swept per world count).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from ..errors import ResourceLimitError
from .formula import (
    DEFAULT_MAX_NODES,
    And,
    Atom,
    Box,
    ModalFormula,
    Not,
    Or,
    atom_indices,
    box_subformulas,
    count_nodes,
    subformulas,
)
from .kripke import MAX_ENUM_WORLDS, KripkeModel, successor_mask_orders

MAX_ATOMS = 8
#: atoms * worlds may not exceed this; the valuation space has 2**(atoms*worlds) points.
MAX_VALUATION_BITS = 24


@dataclass(frozen=True)
class SearchLevel:
    """One sweep of the exhaustive search: every frame of a given size."""

    world_count: int
    frames_checked: int
    valuations_per_frame: int


@dataclass(frozen=True)
class ValidityTrace:
    """Witness for a valid verdict: the completed search, level by level."""

    world_bound: int
    levels: tuple[SearchLevel, ...]


@dataclass(frozen=True)
class Countermodel:
    """Witness for an invalid verdict: the formula fails at ``world``."""

    model: KripkeModel
    world: int


@dataclass(frozen=True)
class DecisionResult:
    verdict: str  # "valid" | "invalid"
    trace: ValidityTrace | None = None
    countermodel: Countermodel | None = None

    @property
    def is_valid(self) -> bool:
        return self.verdict == "valid"


@lru_cache(maxsize=None)
def _representative_frames(world_count: int) -> tuple[tuple[int, ...], ...]:
    """One frame per relabeling class; validity is invariant under relabeling."""
    seen: set[tuple[int, ...]] = set()
    reps: list[tuple[int, ...]] = []
    perms = list(permutations(range(world_count)))
    for masks in successor_mask_orders(world_count):
        canonical = masks
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
            candidate = tuple(relabeled)
            if candidate < canonical:
                canonical = candidate
        if canonical not in seen:
            seen.add(canonical)
            reps.append(masks)
    return tuple(reps)


def _postorder_ops(phi: ModalFormula) -> list[tuple]:
    """Unique subformulas as (kind, operand indices or atom index), children first."""
    order = subformulas(phi)
    index = {node: i for i, node in enumerate(order)}
    ops: list[tuple] = []
    for node in order:
        if isinstance(node, Atom):
            ops.append(("atom", node.index))
        elif isinstance(node, Not):
            ops.append(("not", index[node.operand]))
        elif isinstance(node, Box):
            ops.append(("box", index[node.operand]))
        elif isinstance(node, And):
            ops.append(("and", index[node.left], index[node.right]))
        elif isinstance(node, Or):
            ops.append(("or", index[node.left], index[node.right]))
        else:
            ops.append(("implies", index[node.left], index[node.right]))
    return ops


def _atom_bit_mask(bit: int, total_bits: int) -> int:
    """Bitmask over all valuation indices whose ``bit`` is set."""
    block = 1 << bit
    period = block << 1
    repeats = (1 << total_bits) // period
    segment = ((1 << block) - 1) << block
    return segment * (((1 << (repeats * period)) - 1) // ((1 << period) - 1))


def _evaluate_frame(
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


def _extract_countermodel(
    succ_masks: tuple[int, ...],
    world_count: int,
    atoms: list[int],
    valuation_index: int,
    world: int,
) -> Countermodel:
    relation = frozenset(
        (w, v)
        for w in range(world_count)
        for v in range(world_count)
        if succ_masks[w] >> v & 1
    )
    valuation = tuple(
        (
            w,
            frozenset(
                atom
                for i, atom in enumerate(atoms)
                if valuation_index >> (i * world_count + w) & 1
            ),
        )
        for w in range(world_count)
    )
    model = KripkeModel(
        worlds=frozenset(range(world_count)), relation=relation, valuation=valuation
    )
    return Countermodel(model=model, world=world)


def gl_decide(phi: ModalFormula, max_nodes: int = DEFAULT_MAX_NODES) -> DecisionResult:
    """Decide validity of ``phi`` over finite transitive irreflexive frames.

    Searches every frame with up to ``b + 1`` worlds (``b`` = distinct boxed
    subformulas) and every valuation of the formula's atoms. Countermodels
    therefore never exceed the formula's subformula count in worlds.
    """
    size = count_nodes(phi)
    if size > max_nodes:
        raise ResourceLimitError(f"formula has {size} nodes, limit is {max_nodes}")
    atoms = atom_indices(phi)
    if len(atoms) > MAX_ATOMS:
        raise ResourceLimitError(f"formula uses {len(atoms)} atoms, limit is {MAX_ATOMS}")
    bound = len(box_subformulas(phi)) + 1
    if bound > MAX_ENUM_WORLDS:
        raise ResourceLimitError(
            f"needs frames of up to {bound} worlds; enumeration is capped at {MAX_ENUM_WORLDS}"
        )

    ops = _postorder_ops(phi)
    root = len(ops) - 1
    atom_position = {atom: i for i, atom in enumerate(atoms)}
    levels: list[SearchLevel] = []

    for world_count in range(1, bound + 1):
        total_bits = len(atoms) * world_count
        if total_bits > MAX_VALUATION_BITS:
            raise ResourceLimitError(
                f"valuation space needs {total_bits} bits per world set, "
                f"limit is {MAX_VALUATION_BITS}"
            )
        full = (1 << (1 << total_bits)) - 1
        atom_masks = [
            [_atom_bit_mask(i * world_count + w, total_bits) for w in range(world_count)]
            for i in range(len(atoms))
        ]
        frames = _representative_frames(world_count)
        for succ_masks in frames:
            table = _evaluate_frame(ops, atom_position, succ_masks, world_count, atom_masks, full)
            for w in range(world_count):
                failing = full ^ table[root][w]
                if failing:
                    valuation_index = (failing & -failing).bit_length() - 1
                    return DecisionResult(
                        verdict="invalid",
                        countermodel=_extract_countermodel(
                            succ_masks, world_count, atoms, valuation_index, w
                        ),
                    )
        levels.append(
            SearchLevel(
                world_count=world_count,
                frames_checked=len(frames),
                valuations_per_frame=1 << total_bits,
            )
        )

    return DecisionResult(
        verdict="valid", trace=ValidityTrace(world_bound=bound, levels=tuple(levels))
    )
