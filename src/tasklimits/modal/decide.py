"""Validity decision over finite transitive irreflexive frames.

Validity is decided by elimination of Hintikka types (Pratt 1979; Boolos,
*The Logic of Provability*, 1993), complete by construction: no world bound
enters the verdict. A type is an atom valuation plus the set ``B`` of boxed
subformulas true at a world; every other subformula follows. Each
subformula's cell is one integer over all ``2**(atoms + boxes)`` types,
whose bit ``t`` says whether the subformula holds at type ``t``. A box set
``B`` is realisable iff, for each box ``[]A_j`` outside it, some realisable
type holds ``A_k`` and ``[]A_k`` for every ``[]A_k`` in ``B``, holds
``[]A_j`` and fails ``A_j``: in a conversely well-founded frame a world
that fails ``[]A_j`` sees a last world that fails ``A_j``. Such a witness
has a strictly larger box set, so box sets are walked from the largest
down. The formula is valid iff it holds at every type of every realisable
box set.

Elimination and the countermodel scan below read the one subformula walk's
nodes and operand positions: an atom or a box is read off its node, and every
other connective's cell comes from one table, ``_CONNECTIVES``.

Only the limits on nodes, atoms and boxes refuse a formula, all checked by
``check_limits`` before any work. Every invalid verdict carries a concrete
countermodel, re-checkable with ``model_check``, from one of two routes:

* The frame sweep names the least countermodel of at most ``b + 1`` worlds,
  for ``b`` distinct boxed subformulas, when the valuation space of that
  many worlds fits ``MAX_VALUATION_BITS``. The sweep goes up world counts,
  one rooted frame per relabeling class, built from a literal table of 0 to
  4 worlds: the first frame of each class in ``successor_mask_orders``
  order. The tests check it against orbit marking over every labelled
  order, so no process enumerates orders or relabelings to decide a
  formula. Valuations are batched as bitmasks: the truth of a subformula at
  a world is one integer whose bit ``v`` says whether the subformula holds
  at that world under valuation ``v``.
* Any other invalid formula, past that cap or with no countermodel within
  ``b + 1`` worlds, gets the witness DAG of the types elimination kept: the
  failing type, and per missing box a witness, of the highest box set.

Only rooted frames are evaluated, and only at their root. A world's truth
depends only on the subframe it generates (the generated-subframe lemma,
Boolos 1993). Once every smaller world count has held at every world under
every valuation, a world of a ``k``-world frame that does not see every
other world generates a subframe of fewer than ``k`` worlds, isomorphic to
a frame already swept, so it cannot fail. Only a root, the one world that
sees every other, can. Every world's successors carry lower labels, so a
root is the last world, and a rooted frame of ``k`` worlds is a table frame
of ``k - 1`` worlds under that root: the table's rooted frames of ``k``
worlds are exactly these, in the order of the row of ``k - 1`` worlds.

The scan is frame-major: rooted frames in that order, each evaluated whole
over every valuation, every subformula at every world. The first frame whose
root fails, with its lowest failing index, is the answer: the frame, world
and valuation index that a sweep of every frame at every world would find
first.

A valid verdict carries a ``ValidityTrace`` whose levels name the frames
and valuations of up to ``b + 1`` worlds that its validity covers: the text
a ``searched m worlds`` report line gives. Its frame counts come from a
tuple of the class counts, and no frame is evaluated for a valid formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..errors import ResourceLimitError
from .formula import (
    DEFAULT_MAX_NODES,
    And,
    Atom,
    Box,
    Implies,
    ModalFormula,
    Not,
    Or,
    Walk,
    _node_count,
    _postorder,
)
from .kripke import MAX_ENUM_WORLDS, KripkeModel

MAX_ATOMS = 8
#: The sweep names an invalid formula's countermodel only when atoms * (boxes + 1), the bits
#: of its valuation space, is at most this, so no cell is an integer of more than 8 KiB; past
#: it the witness DAG names one. No formula is refused for it.
MAX_VALUATION_BITS = 16


class SearchLevel(NamedTuple):
    """Every representative frame of one size, with every valuation of the formula's atoms.

    A valid verdict's report keeps it as its ``(world_count, frames, valuations)`` triple.
    """

    world_count: int
    frames_checked: int
    valuations_per_frame: int


@dataclass(frozen=True)
class ValidityTrace:
    """Witness for a valid verdict: the frames and valuations its validity covers.

    Elimination decides validity with no world bound, so a valid formula holds
    in every finite model; the levels name, world count by world count up to
    ``b + 1``, the frames and valuations the sweep would have covered. No frame
    is evaluated to produce them.
    """

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


#: Relabeling classes (unlabeled strict partial orders) per world count, 1..``MAX_ENUM_WORLDS``.
_FRAME_COUNTS = (1, 2, 5, 16, 63)

#: The first frame of each relabeling class per world count, 0..``MAX_ENUM_WORLDS - 1``,
#: in ``successor_mask_orders`` order. The rooted frames of ``k`` worlds are, in the same
#: order, those of ``k - 1`` worlds under a last world that sees every other.
_REPRESENTATIVE_FRAMES: dict[int, tuple[tuple[int, ...], ...]] = {
    0: ((),),
    1: ((0,),),
    2: ((0, 0), (0, 1)),
    3: ((0, 0, 0), (0, 0, 1), (0, 0, 3), (0, 1, 1), (0, 1, 3)),
    4: (
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 3), (0, 0, 0, 7), (0, 0, 1, 1), (0, 0, 1, 2),
        (0, 0, 1, 3), (0, 0, 1, 5), (0, 0, 1, 7), (0, 0, 3, 3), (0, 0, 3, 7), (0, 1, 1, 1),
        (0, 1, 1, 3), (0, 1, 1, 7), (0, 1, 3, 3), (0, 1, 3, 7),
    ),
}


def _representative_frames(world_count: int) -> tuple[tuple[int, ...], ...]:
    """The first frame of each relabeling class, in ``successor_mask_orders`` order.

    Validity is invariant under relabeling, so one frame per class covers them all.
    """
    return _REPRESENTATIVE_FRAMES[world_count]


#: A connective's cell from ``full``, the all-true cell, and its operands' cells.
_CONNECTIVES = {
    Not: lambda full, a: full ^ a,
    And: lambda full, a, b: a & b,
    Or: lambda full, a, b: a | b,
    Implies: lambda full, a, b: (full ^ a) | b,
}


def _atom_bit_mask(bit: int, total_bits: int) -> int:
    """Bitmask over all valuation indices whose ``bit`` is set.

    Built by doubling one period of the pattern; a single multiply by the
    repunit would need a bigint division quadratic in its size.
    """
    block = 1 << bit
    period = block << 1
    end = 1 << total_bits
    mask = ((1 << block) - 1) << block
    while period < end:
        mask |= mask << period
        period <<= 1
    return mask


class _Types(NamedTuple):
    """What elimination keeps: the realisable types and the cells a witness is read from."""

    realized: int  # bit ``t``: type ``t`` is realisable
    failing: int  # bit ``t``: type ``t`` is realisable and the formula fails there
    keep: list[int]  # per box ``[]A_j``: ``[]A_j & A_j``
    wit: list[int]  # per box ``[]A_j``: ``[]A_j & ~A_j``


def _keeping(keep: list[int], box_set: int, cell: int) -> int:
    """``cell`` and the ``keep`` cell of every box in ``box_set``."""
    for k, kept in enumerate(keep):
        if box_set >> k & 1:
            cell &= kept
    return cell


def _eliminate(walk: Walk) -> _Types:
    """Every realisable Hintikka type of the formula, the last node of ``walk``.

    Bit ``t`` of a cell is the node's truth at type ``t``: the ``i``-th atom
    sets type bit ``i`` and the ``j``-th box type bit ``atoms + j``, so the
    types of one box set ``B`` are one run of ``2**atoms`` bits from bit
    ``B << atoms``. A strict superset of ``B`` is a larger integer, so walking
    box sets down from the largest meets every possible witness of ``B`` first.
    The conjunction of the ``keep`` cells of ``B`` is recomputed per box set:
    kept for every box set, those cells would take ``2**boxes`` times the
    memory of one. The formula is valid iff no realisable type fails it.
    """
    nodes, operands = walk
    atom_count = sum(isinstance(node, Atom) for node in nodes)
    type_bits = atom_count + sum(isinstance(node, Box) for node in nodes)
    full = (1 << (1 << type_bits)) - 1
    cells: list[int] = []
    keep: list[int] = []
    wit: list[int] = []
    atoms_seen = 0
    for node, ops in zip(nodes, operands):
        if isinstance(node, Atom):
            cell = _atom_bit_mask(atoms_seen, type_bits)
            atoms_seen += 1
        elif isinstance(node, Box):
            cell = _atom_bit_mask(atom_count + len(keep), type_bits)
            keep.append(cell & cells[ops[0]])
            wit.append(cell & ~cells[ops[0]])
        else:
            cell = _CONNECTIVES[type(node)](full, *[cells[i] for i in ops])
        cells.append(cell)
    run = (1 << (1 << atom_count)) - 1
    realized = 0
    for box_set in range((1 << len(keep)) - 1, -1, -1):
        seen = _keeping(keep, box_set, realized)
        if all(seen & wit[j] for j in range(len(wit)) if not box_set >> j & 1):
            realized |= run << (box_set << atom_count)
    return _Types(realized, realized & ~cells[-1], keep, wit)


def _highest(cell: int, atom_count: int) -> int:
    """The type of ``cell`` whose box set is highest, and within it the lowest atom bits."""
    top = (cell.bit_length() - 1) >> atom_count
    run = cell >> (top << atom_count)
    return top << atom_count | (run & -run).bit_length() - 1


def _witness_dag(types: _Types, atoms: list[int]) -> Countermodel:
    """A failing realisable type, refuted at the root of its witness DAG.

    ``atoms`` are the formula's atom indices in type-bit order, the walk's. A
    world is a realisable type, whose true atoms are those of its set atom
    bits. Each pick takes the highest box set, which needs the fewest
    witnesses, and in it the lowest atom bits: the root among the failing
    types and, per box ``[]A_j`` outside a type's box set ``B``, its witness
    among the realisable types that keep ``B``, hold ``[]A_j`` and fail
    ``A_j``. Witnesses are memoised by type. The relation is the transitive
    closure of the witness edges, irreflexive because box sets strictly grow
    along it. A witness's larger box set makes it a larger integer, so the
    worlds are numbered from the largest type down: every world's successors
    carry lower labels, and the root is the last world.
    """
    witnesses: dict[int, list[int]] = {}
    stack = [_highest(types.failing, len(atoms))]
    while stack:
        t = stack.pop()
        if t in witnesses:
            continue
        box_set = t >> len(atoms)
        kept = _keeping(types.keep, box_set, types.realized)
        cells = [kept & cell for j, cell in enumerate(types.wit) if not box_set >> j & 1]
        witnesses[t] = [_highest(cell, len(atoms)) for cell in cells]
        stack += witnesses[t]
    label = {t: w for w, t in enumerate(sorted(witnesses, reverse=True))}
    below: dict[int, set[int]] = {}  # world -> the worlds it sees
    for t, w in label.items():
        below[w] = set()
        for u in witnesses[t]:
            below[w] |= below[label[u]] | {label[u]}
    model = KripkeModel(
        range(len(label)),
        ((w, v) for w, seen in below.items() for v in seen),
        {w: {a for i, a in enumerate(atoms) if t >> i & 1} for t, w in label.items()},
    )
    return Countermodel(model=model, world=len(label) - 1)


def _frame_cells(
    walk: Walk, succ_masks: tuple[int, ...], atom_rows: dict[int, list[int]], full: int
) -> list[list[int]]:
    """Every node's cell at every world of the frame ``succ_masks``, in one postorder pass.

    ``atom_rows`` gives each atom's cells, one per world; ``full`` is the
    all-true cell of the valuation space. A box's cell at a world is the
    conjunction of its operand's cells at the world's successors.
    """
    table: list[list[int]] = []
    fulls = [full] * len(succ_masks)  # the connectives' first argument, world by world
    for node, ops in zip(*walk):
        if isinstance(node, Atom):
            row = atom_rows[node.index]
        elif isinstance(node, Box):
            child = table[ops[0]]
            row = []
            for succ in succ_masks:
                acc = full
                while succ:
                    low = succ & -succ
                    acc &= child[low.bit_length() - 1]
                    succ ^= low
                row.append(acc)
        else:
            row = list(map(_CONNECTIVES[type(node)], fulls, *[table[i] for i in ops]))
        table.append(row)
    return table


def _least_countermodel(walk: Walk, atoms: list[int], bound: int) -> Countermodel | None:
    """The sweep's least countermodel of at most ``bound`` worlds, refuted at its root.

    Returns ``None`` past ``MAX_VALUATION_BITS`` or if no rooted frame fails.
    World counts go up; the rooted frames of ``k`` worlds are the frames of
    ``k - 1`` worlds in table order under a last world that sees them all,
    each evaluated once over every valuation. The first frame whose root
    fails is the answer, under its lowest failing valuation index.
    """
    if len(atoms) * bound > MAX_VALUATION_BITS:
        return None
    for k in range(1, bound + 1):
        worlds = range(k)
        total_bits = len(atoms) * k
        full = (1 << (1 << total_bits)) - 1
        cells = [_atom_bit_mask(bit, total_bits) for bit in range(total_bits)]
        atom_rows = {atom: cells[i * k : (i + 1) * k] for i, atom in enumerate(atoms)}
        for frame in _representative_frames(k - 1):
            masks = (*frame, (1 << k - 1) - 1)
            failing = full ^ _frame_cells(walk, masks, atom_rows, full)[-1][k - 1]
            if failing:
                index = (failing & -failing).bit_length() - 1
                model = KripkeModel(
                    worlds,
                    ((w, v) for w in worlds for v in worlds if masks[w] >> v & 1),
                    {w: {a for a in atoms if atom_rows[a][w] >> index & 1} for w in worlds},
                )
                return Countermodel(model=model, world=k - 1)
    return None


def check_limits(phi: ModalFormula) -> Walk:
    """The walk of ``phi``; a ``ResourceLimitError`` names a node, atom or box limit it breaks."""
    walk = nodes, operands = _postorder(phi)
    size = _node_count(operands)
    if size > DEFAULT_MAX_NODES:
        raise ResourceLimitError(f"formula has {size} nodes, limit is {DEFAULT_MAX_NODES}")
    atom_count = sum(isinstance(node, Atom) for node in nodes)
    if atom_count > MAX_ATOMS:
        raise ResourceLimitError(f"formula uses {atom_count} atoms, limit is {MAX_ATOMS}")
    bound = sum(isinstance(node, Box) for node in nodes) + 1
    if bound > MAX_ENUM_WORLDS:
        raise ResourceLimitError(
            f"needs frames of up to {bound} worlds; enumeration is capped at {MAX_ENUM_WORLDS}"
        )
    return walk


def gl_decide(phi: ModalFormula, walk: Walk | None = None) -> DecisionResult:
    """Decide validity of ``phi`` over finite transitive irreflexive frames.

    Elimination of Hintikka types decides validity, complete by construction.
    A valid verdict's trace names the frames of up to ``b + 1`` worlds
    (``b`` = distinct boxed subformulas) and the valuations its validity
    covers, counted by ``_FRAME_COUNTS``; no frame is evaluated for it. An invalid
    formula whose sweep fits ``MAX_VALUATION_BITS`` gets the sweep's least
    countermodel within ``b + 1`` worlds, over rooted frames built from the
    table row of one world fewer, if it finds one; any other gets the witness
    DAG of the types elimination kept. Only the node, atom and box limits of
    ``check_limits`` refuse a formula, by ``ResourceLimitError`` before any work.
    A caller that has checked ``phi`` passes ``check_limits(phi)`` as ``walk``.
    """
    walk = nodes, _ = check_limits(phi) if walk is None else walk
    walk_atoms = [node.index for node in nodes if isinstance(node, Atom)]
    types = _eliminate(walk)
    atoms = sorted(walk_atoms)
    bound = len(types.keep) + 1
    if not types.failing:
        levels = tuple(
            SearchLevel(k, _FRAME_COUNTS[k - 1], 1 << (len(atoms) * k)) for k in range(1, bound + 1)
        )
        return DecisionResult(verdict="valid", trace=ValidityTrace(levels))
    countermodel = _least_countermodel(walk, atoms, bound) or _witness_dag(types, walk_atoms)
    return DecisionResult(verdict="invalid", countermodel=countermodel)
