"""Modal formula syntax: AST nodes, a parser, and a round-tripping printer.

Grammar::

    formula := unary (BINARY unary)*
    unary   := UNARY unary | ATOM | '(' formula ')'
    ATOM    := 'p' DIGITS                    # ASCII 0-9 only

One table, ``_BINARY`` and ``_UNARY``, spells each connective once; the
lexer, the parser, the printer and every walk read it. Binding strength is
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
from typing import Iterator, Union

from ..errors import FormulaSyntaxError, ResourceLimitError, ValidationError

#: Largest formula the parser builds and the decision procedure takes, in AST nodes;
#: also the deepest nesting the parser follows.
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


def _tokens(text: str) -> Iterator[tuple[str, int, int]]:
    """Each token as (kind, position, atom): kind is the symbol, ``"p"`` or ``""`` at the end."""
    for match in _LEXEME.finditer(text):
        token, position = match[1], match.start(1)
        if token[:1] == "p":
            if len(token) == 1:
                raise FormulaSyntaxError("expected digits after 'p'", position + 1)
            try:
                index = int(token[1:])
            except ValueError as exc:  # past the int conversion digit limit
                raise FormulaSyntaxError(f"unreadable atom index: {exc}", position) from exc
            yield "p", position, index
        elif token in _SYMBOLS or not token:
            yield token, position, -1
        elif token in _PREFIXES:
            raise FormulaSyntaxError(f"expected {_PREFIXES[token]!r}", position)
        else:
            raise FormulaSyntaxError(f"unexpected character {token!r}", position)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.token = next(self.tokens)  # one token ahead, no more
        # Open levels bound the parser's recursion; parentheses open levels but build no node.
        self.depth = 0
        self.nodes = 0

    def limit(self, count: int, position: int, unit: str = "levels") -> int:
        """``count`` levels or nodes if within the limit; refuse before any stack runs out."""
        if count > DEFAULT_MAX_NODES:
            excess = "nests deeper than" if unit == "levels" else "has more than"
            raise ResourceLimitError(
                f"formula {excess} {DEFAULT_MAX_NODES} {unit} (position {position})"
            )
        return count

    def take(self) -> tuple[str, int, int]:
        """The current token, reading the next; a token other than a parenthesis is a node."""
        token = kind, position, _ = self.token
        if kind != "(" and kind != ")":
            self.nodes = self.limit(self.nodes + 1, position, "nodes")
        self.token = next(self.tokens)
        return token

    def binary(self, minimum: int) -> ModalFormula:
        """Unary formulas joined by binary connectives binding with at least ``minimum``."""
        node = self.unary()
        while True:
            cls, strength = _BINARY.get(self.token[0], (None, 0))
            if strength < minimum:
                return node
            _, position, _ = self.take()
            # A right-grouping connective opens a level and takes the rest of its chain at once.
            groups_right = cls is Implies
            self.depth = self.limit(self.depth + groups_right, position)
            node = cls(node, self.binary(strength + (not groups_right)))
            self.depth -= groups_right

    def unary(self) -> ModalFormula:
        kind, position, atom = self.token
        if kind != "p" and kind != "(" and kind not in _UNARY:
            raise FormulaSyntaxError("expected a formula", position)
        self.take()
        if kind == "p":
            return Atom(atom)
        self.depth = self.limit(self.depth + 1, position)
        if kind in _UNARY:
            node = _UNARY[kind](self.unary())
        else:
            node = self.binary(1)
            if self.token[0] != ")":
                raise FormulaSyntaxError("expected ')'", self.token[1])
            self.take()
        self.depth -= 1
        return node


def parse_formula(text: str) -> ModalFormula:
    """Parse formula text; raises :class:`FormulaSyntaxError` with a position, and
    ``ResourceLimitError`` at the 201st node or open level, before reading on."""
    parser = _Parser(text)
    node = parser.binary(1)
    kind, position, _ = parser.token
    if kind:
        raise FormulaSyntaxError("unexpected trailing input", position)
    return node
