"""Finite Kripke models on transitive irreflexive frames, and their enumeration.

On a finite world set, transitivity plus irreflexivity makes the relation a
strict partial order (hence conversely well-founded), which is exactly the
frame class whose validities this package decides.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache

from ..errors import ResourceLimitError, ValidationError
from .formula import And, Atom, Box, Implies, ModalFormula, Not, Or

#: Frame enumeration is exhaustive and capped at this many worlds.
MAX_ENUM_WORLDS = 5


@dataclass(frozen=True, eq=True)
class KripkeModel:
    """Worlds, a transitive irreflexive relation, and per-world true atoms.

    Takes any iterables of worlds and of world pairs, and the valuation as
    ``(world, atoms)`` pairs or as a mapping from world to atoms; the fields
    hold them as frozensets and as a sorted tuple of pairs.
    """

    worlds: frozenset[int]
    relation: frozenset[tuple[int, int]]
    valuation: tuple[tuple[int, frozenset[int]], ...] = ()

    def __post_init__(self) -> None:
        worlds = frozenset(int(w) for w in self.worlds)
        if not worlds:
            raise ValidationError("model needs at least one world")
        relation = frozenset((int(a), int(b)) for a, b in self.relation)
        successors: dict[int, set[int]] = {w: set() for w in worlds}
        for a, b in relation:
            if a not in worlds or b not in worlds:
                raise ValidationError(f"relation pair ({a}, {b}) mentions an unknown world")
            if a == b:
                raise ValidationError(f"relation must be irreflexive, found ({a}, {a})")
            successors[a].add(b)
        # Transitive iff every successor's successors are the world's own.
        for a, b in sorted(relation):
            if not successors[b] <= successors[a]:
                d = min(successors[b] - successors[a])
                raise ValidationError(
                    f"relation must be transitive, missing ({a}, {d}) given ({a}, {b}), ({b}, {d})"
                )
        pairs = self.valuation.items() if isinstance(self.valuation, Mapping) else self.valuation
        valuation = tuple(sorted((int(w), frozenset(int(i) for i in atoms)) for w, atoms in pairs))
        for w, _ in valuation:
            if w not in worlds:
                raise ValidationError(f"valuation mentions unknown world {w}")
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "_successors", {w: frozenset(s) for w, s in successors.items()})
        object.__setattr__(self, "_atoms", dict(valuation))

    def successors(self, world: int) -> frozenset[int]:
        return self._successors[world]

    def true_atoms(self, world: int) -> frozenset[int]:
        return self._atoms.get(world, frozenset())


def model_check(phi: ModalFormula, model: KripkeModel, world: int) -> bool:
    """Evaluate ``phi`` at ``world``; a boxed formula holds iff it holds at every successor."""
    if world not in model.worlds:
        raise ValidationError(f"world {world} not in the model")
    memo: dict[tuple[int, int], bool] = {}

    def ev(node: ModalFormula, w: int) -> bool:
        key = (id(node), w)
        if key in memo:
            return memo[key]
        if isinstance(node, Atom):
            value = node.index in model.true_atoms(w)
        elif isinstance(node, Not):
            value = not ev(node.operand, w)
        elif isinstance(node, And):
            value = ev(node.left, w) and ev(node.right, w)
        elif isinstance(node, Or):
            value = ev(node.left, w) or ev(node.right, w)
        elif isinstance(node, Implies):
            value = (not ev(node.left, w)) or ev(node.right, w)
        elif isinstance(node, Box):
            value = all(ev(node.operand, v) for v in model.successors(w))
        else:
            raise ValidationError(f"unknown formula node {type(node).__name__}")
        memo[key] = value
        return value

    return ev(phi, world)


@lru_cache(maxsize=None)
def successor_mask_orders(world_count: int) -> tuple[tuple[int, ...], ...]:
    """All strict partial orders on ``world_count`` worlds as per-world successor bitmasks.

    Generated by assigning successor sets world by world and pruning any
    prefix that already breaks transitivity.
    """
    results: list[tuple[int, ...]] = []
    masks = [0] * world_count

    def consistent(w: int) -> bool:
        # Check constraints among assigned worlds 0..w that involve w.
        for v in range(w + 1):
            if masks[w] >> v & 1 and masks[v] & ~masks[w]:
                return False
            if v != w and masks[v] >> w & 1 and masks[w] & ~masks[v]:
                return False
        return True

    def assign(w: int) -> None:
        if w == world_count:
            results.append(tuple(masks))
            return
        for candidate in range(1 << world_count):
            if candidate >> w & 1:
                continue
            masks[w] = candidate
            if consistent(w):
                assign(w + 1)
        masks[w] = 0

    assign(0)
    return tuple(results)


def enumerate_frames(world_count: int) -> Iterator[frozenset[tuple[int, int]]]:
    """Yield every transitive irreflexive relation on worlds ``0..world_count-1``."""
    if world_count < 1:
        raise ValidationError(f"world count must be >= 1, got {world_count}")
    if world_count > MAX_ENUM_WORLDS:
        raise ResourceLimitError(
            f"frame enumeration is capped at {MAX_ENUM_WORLDS} worlds, got {world_count}"
        )
    for masks in successor_mask_orders(world_count):
        yield frozenset(
            (w, v) for w in range(world_count) for v in range(world_count) if masks[w] >> v & 1
        )
