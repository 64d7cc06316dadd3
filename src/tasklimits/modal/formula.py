"""Modal formula syntax: AST nodes, a parser, and a round-tripping printer.

Grammar::

    formula := unary (BINARY unary)*
    unary   := UNARY unary | ATOM | '(' formula ')'
    ATOM    := 'p' DIGITS                    # ASCII 0-9 only

One table, ``_BINARY`` and ``_UNARY``, spells each connective once; the
tokenizer, the parser, the printer and every walk read it. Binding strength is
1 for ``->`` (Implies), 2 for ``|`` (Or) and 3 for ``&`` (And); a higher one
binds tighter, and the unary ``~`` (Not) and ``[]`` (Box) bind tightest. Only
``->`` groups to the right. Whitespace is exactly space, tab, CR and LF.

Nodes are plain frozen dataclasses. The one subformula walk tells equal subformulas
apart by integer keys, an atom's index or the positions of a node's operands, so no
walk hashes a node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from ..errors import FormulaSyntaxError, ResourceLimitError, ValidationError

#: Largest formula the decision procedure takes, in AST nodes; also the deepest
#: nesting the parser follows.
DEFAULT_MAX_NODES = 200


@dataclass(frozen=True)
class Atom:
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValidationError(f"atom index must be non-negative, got {self.index}")


@dataclass(frozen=True)
class Not:
    operand: ModalFormula


@dataclass(frozen=True)
class Box:
    operand: ModalFormula


@dataclass(frozen=True)
class And:
    left: ModalFormula
    right: ModalFormula


@dataclass(frozen=True)
class Or:
    left: ModalFormula
    right: ModalFormula


@dataclass(frozen=True)
class Implies:
    left: ModalFormula
    right: ModalFormula


ModalFormula = Union[Atom, Not, Box, And, Or, Implies]
Walk = tuple[list[ModalFormula], list[tuple[int, ...]]]

#: Binary connectives by symbol: node class and binding strength. Only ``Implies`` groups right.
_BINARY = {"->": (Implies, 1), "|": (Or, 2), "&": (And, 3)}
#: Unary connectives by symbol; they bind tighter than every binary one.
_UNARY = {"~": Not, "[]": Box}

#: Symbol and binding strength by node class, for the printer.
_SYNTAX = {cls: (symbol, strength) for symbol, (cls, strength) in _BINARY.items()}
_SYNTAX.update((cls, (symbol, len(_BINARY) + 1)) for symbol, cls in _UNARY.items())


def _postorder(phi: ModalFormula) -> Walk:
    """Distinct subformulas of ``phi`` in postorder, and the positions of each one's operands.

    One walk with its own stack opens each node object once, by ``id``. A node's key is
    ``(Atom, index)`` or its class and operand positions, all plain ints, so equal
    subformulas share a position and the first node object met keeps it; no node is hashed.
    """
    nodes: list[ModalFormula] = []
    operands: list[tuple[int, ...]] = []
    positions: dict[tuple, int] = {}
    closed: dict[int, int] = {}  # id of each node walked -> its position
    opened, stack = set(), [phi]  # ids of the nodes opened; nodes to visit
    while stack:
        node = stack.pop()
        if id(node) in closed:
            continue
        if isinstance(node, Atom):
            key, ops = (Atom, node.index), ()
        elif id(node) not in opened:  # the node goes back under its children, the left one on top
            opened.add(id(node))
            stack += node, *reversed(vars(node).values())  # its fields are its operands
            continue
        else:
            ops = tuple([closed[id(child)] for child in vars(node).values()])
            key = (type(node), *ops)
        closed[id(node)] = position = positions.setdefault(key, len(nodes))
        if position == len(nodes):
            nodes.append(node)
            operands.append(ops)
    return nodes, operands


def subformulas(phi: ModalFormula) -> list[ModalFormula]:
    """Distinct subformulas of ``phi`` in postorder (children first), without recursion."""
    return _postorder(phi)[0]


def box_subformulas(phi: ModalFormula) -> list[Box]:
    return [f for f in subformulas(phi) if isinstance(f, Box)]


def atom_indices(phi: ModalFormula) -> list[int]:
    """Sorted distinct atom indices occurring in ``phi``."""
    return sorted({f.index for f in subformulas(phi) if isinstance(f, Atom)})


def _node_count(operands: list[tuple[int, ...]]) -> int:
    """The walked formula's node count, each shared subformula counted per occurrence."""
    sizes: list[int] = []
    for ops in operands:
        sizes.append(1 + sum(sizes[i] for i in ops))
    return sizes[-1]


def count_nodes(phi: ModalFormula) -> int:
    """Total AST node count (shared structure counted per occurrence), in one walk."""
    return _node_count(_postorder(phi)[1])


def print_formula(phi: ModalFormula) -> str:
    """Render with minimal parentheses; ``parse_formula`` inverts it exactly.

    Each distinct subformula's text and binding strength are built once, children first.
    An operand gets parentheses when it binds looser than its side's context; atoms and
    unary nodes bind tightest, so they never do.
    """
    texts: list[str] = []
    strengths: list[int] = []
    for node, ops in zip(*_postorder(phi)):
        symbol, strength = _SYNTAX.get(type(node), ("", len(_BINARY) + 1))
        groups_right = isinstance(node, Implies)
        contexts = (strength + groups_right, strength + (not groups_right))
        parts = [texts[i] if strengths[i] >= c else f"({texts[i]})" for i, c in zip(ops, contexts)]
        if isinstance(node, Atom):
            texts.append(f"p{node.index}")
        else:
            texts.append(f" {symbol} ".join(parts) if len(parts) == 2 else symbol + parts[0])
        strengths.append(strength)
    return texts[-1]


_SYMBOLS = [*_BINARY, *_UNARY, "(", ")"]
#: A two-character symbol by its first character, for the message when the second is missing.
_PREFIXES = {symbol[0]: symbol for symbol in _SYMBOLS if len(symbol) > 1}
#: Whitespace, then an atom, a symbol, another character or the end: no search ever rescans.
_LEXEME = re.compile(r"[ \t\r\n]*(p[0-9]*|" + "|".join(map(re.escape, _SYMBOLS)) + r"|.|\Z)")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """Tokens as (kind, position, atom_index): kind is the symbol, ``"p"`` or ``""`` at the end."""
    tokens: list[tuple[str, int, int]] = []
    for match in _LEXEME.finditer(text):
        token = match[1]
        if not token:
            break
        position = match.start(1)
        if token[0] == "p":
            if len(token) == 1:
                raise FormulaSyntaxError("expected digits after 'p'", position + 1)
            try:
                index = int(token[1:])
            except ValueError as exc:  # past the int conversion digit limit
                raise FormulaSyntaxError(f"unreadable atom index: {exc}", position) from exc
            tokens.append(("p", position, index))
        elif token in _SYMBOLS:
            tokens.append((token, position, -1))
        elif token in _PREFIXES:
            raise FormulaSyntaxError(f"expected {_PREFIXES[token]!r}", position)
        else:
            raise FormulaSyntaxError(f"unexpected character {token!r}", position)
    tokens.append(("", len(text), -1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int, int]]):
        self.tokens = tokens
        self.pos = 0
        # Levels open on the way down bound the parser's recursion; the height of the node
        # built last bounds the tree's, which an ``&`` or ``|`` chain grows with no descent.
        self.depth = 0
        self.height = 0

    def limit(self, levels: int, position: int) -> int:
        """``levels`` if it is within the nesting limit; refuse before any stack runs out."""
        if levels > DEFAULT_MAX_NODES:
            raise ResourceLimitError(
                f"formula nests deeper than {DEFAULT_MAX_NODES} levels (position {position})"
            )
        return levels

    def binary(self, minimum: int) -> ModalFormula:
        """Unary formulas joined by binary connectives binding with at least ``minimum``."""
        node = self.unary()
        while True:
            kind, position, _ = self.tokens[self.pos]
            cls, strength = _BINARY.get(kind, (None, 0))
            if strength < minimum:
                return node
            self.pos += 1
            # A right-grouping connective opens a level and takes the rest of its chain at once.
            groups_right = cls is Implies
            self.depth = self.limit(self.depth + groups_right, position)
            height = self.height
            node = cls(node, self.binary(strength + (not groups_right)))
            self.depth -= groups_right
            self.height = self.limit(1 + max(height, self.height), position)

    def unary(self) -> ModalFormula:
        kind, position, atom = self.tokens[self.pos]
        self.pos += 1
        if kind == "p":
            self.height = 0
            return Atom(atom)
        if kind not in _UNARY and kind != "(":
            raise FormulaSyntaxError("expected a formula", position)
        self.depth = self.limit(self.depth + 1, position)
        if kind in _UNARY:
            node = _UNARY[kind](self.unary())
            self.height = self.limit(self.height + 1, position)
        else:
            node = self.binary(1)
            closing, close_pos, _ = self.tokens[self.pos]
            if closing != ")":
                raise FormulaSyntaxError("expected ')'", close_pos)
            self.pos += 1
        self.depth -= 1
        return node


def parse_formula(text: str) -> ModalFormula:
    """Parse formula text; raises :class:`FormulaSyntaxError` with a position."""
    parser = _Parser(_tokenize(text))
    node = parser.binary(1)
    kind, position, _ = parser.tokens[parser.pos]
    if kind:
        raise FormulaSyntaxError("unexpected trailing input", position)
    return node
