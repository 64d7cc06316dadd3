"""Modal formula syntax: AST nodes, a parser, and a round-tripping printer.

Grammar (whitespace insensitive)::

    formula     := implication
    implication := disjunction ('->' implication)?      # right associative
    disjunction := conjunction ('|' conjunction)*
    conjunction := unary ('&' unary)*
    unary       := '~' unary | '[]' unary | ATOM | '(' formula ')'
    ATOM        := 'p' DIGITS                           # ASCII 0-9 only

Precedence from loosest to tightest: ``->``, ``|``, ``&``, then the unary
operators ``~`` and ``[]``.
"""

from __future__ import annotations

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


def subformulas(phi: ModalFormula) -> list[ModalFormula]:
    """Distinct subformulas of ``phi`` in postorder (children first)."""
    seen: dict[ModalFormula, None] = {}

    def walk(node: ModalFormula) -> None:
        if node in seen:
            return
        if isinstance(node, (Not, Box)):
            walk(node.operand)
        elif isinstance(node, (And, Or, Implies)):
            walk(node.left)
            walk(node.right)
        seen[node] = None

    walk(phi)
    return list(seen)


def box_subformulas(phi: ModalFormula) -> list[Box]:
    return [f for f in subformulas(phi) if isinstance(f, Box)]


def atom_indices(phi: ModalFormula) -> list[int]:
    """Sorted distinct atom indices occurring in ``phi``."""
    return sorted({f.index for f in subformulas(phi) if isinstance(f, Atom)})


def count_nodes(phi: ModalFormula) -> int:
    """Total AST node count (shared structure counted per occurrence)."""
    if isinstance(phi, Atom):
        return 1
    if isinstance(phi, (Not, Box)):
        return 1 + count_nodes(phi.operand)
    return 1 + count_nodes(phi.left) + count_nodes(phi.right)


_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4
_PREC_ATOM = 5


def _prec(phi: ModalFormula) -> int:
    if isinstance(phi, Atom):
        return _PREC_ATOM
    if isinstance(phi, (Not, Box)):
        return _PREC_UNARY
    if isinstance(phi, And):
        return _PREC_AND
    if isinstance(phi, Or):
        return _PREC_OR
    return _PREC_IMPLIES


def print_formula(phi: ModalFormula) -> str:
    """Render with minimal parentheses; ``parse_formula`` inverts it exactly."""

    def render(node: ModalFormula, context: int) -> str:
        text: str
        if isinstance(node, Atom):
            text = f"p{node.index}"
        elif isinstance(node, Not):
            text = f"~{render(node.operand, _PREC_UNARY)}"
        elif isinstance(node, Box):
            text = f"[]{render(node.operand, _PREC_UNARY)}"
        elif isinstance(node, And):
            text = f"{render(node.left, _PREC_AND)} & {render(node.right, _PREC_AND + 1)}"
        elif isinstance(node, Or):
            text = f"{render(node.left, _PREC_OR)} | {render(node.right, _PREC_OR + 1)}"
        else:
            text = f"{render(node.left, _PREC_IMPLIES + 1)} -> {render(node.right, _PREC_IMPLIES)}"
        if _prec(node) < context:
            return f"({text})"
        return text

    return render(phi, 0)


_TOKEN_ATOM = "atom"
_TOKEN_NOT = "~"
_TOKEN_AND = "&"
_TOKEN_OR = "|"
_TOKEN_IMPLIES = "->"
_TOKEN_BOX = "[]"
_TOKEN_LPAREN = "("
_TOKEN_RPAREN = ")"
_TOKEN_END = "end"


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """Tokens as (kind, position, atom_index)."""
    tokens: list[tuple[str, int, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == "p":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j == i + 1:
                raise FormulaSyntaxError("expected digits after 'p'", i + 1)
            try:
                index = int(text[i + 1 : j])
            except ValueError as exc:  # past the int conversion digit limit
                raise FormulaSyntaxError(f"unreadable atom index: {exc}", i) from exc
            tokens.append((_TOKEN_ATOM, i, index))
            i = j
        elif ch == "~":
            tokens.append((_TOKEN_NOT, i, -1))
            i += 1
        elif ch == "&":
            tokens.append((_TOKEN_AND, i, -1))
            i += 1
        elif ch == "|":
            tokens.append((_TOKEN_OR, i, -1))
            i += 1
        elif ch == "-":
            if i + 1 < n and text[i + 1] == ">":
                tokens.append((_TOKEN_IMPLIES, i, -1))
                i += 2
            else:
                raise FormulaSyntaxError("expected '->'", i)
        elif ch == "[":
            if i + 1 < n and text[i + 1] == "]":
                tokens.append((_TOKEN_BOX, i, -1))
                i += 2
            else:
                raise FormulaSyntaxError("expected '[]'", i)
        elif ch == "(":
            tokens.append((_TOKEN_LPAREN, i, -1))
            i += 1
        elif ch == ")":
            tokens.append((_TOKEN_RPAREN, i, -1))
            i += 1
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append((_TOKEN_END, n, -1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int, int]]):
        self.tokens = tokens
        self.pos = 0
        # Levels open on the way down bound the parser's recursion; the height of the node
        # built last bounds the tree's, which an ``&`` or ``|`` chain grows with no descent.
        self.depth = 0
        self.height = 0

    def peek(self) -> tuple[str, int, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, int, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def limit(self, levels: int, position: int) -> int:
        """``levels`` if it is within the nesting limit; refuse before any stack runs out."""
        if levels > DEFAULT_MAX_NODES:
            raise ResourceLimitError(
                f"formula nests deeper than {DEFAULT_MAX_NODES} levels (position {position})"
            )
        return levels

    def implication(self) -> ModalFormula:
        left = self.disjunction()
        kind, position, _ = self.peek()
        if kind == _TOKEN_IMPLIES:
            self.advance()
            self.depth = self.limit(self.depth + 1, position)
            height = self.height
            node = Implies(left, self.implication())
            self.depth -= 1
            self.height = self.limit(1 + max(height, self.height), position)
            return node
        return left

    def disjunction(self) -> ModalFormula:
        node = self.conjunction()
        while self.peek()[0] == _TOKEN_OR:
            position = self.advance()[1]
            height = self.height
            node = Or(node, self.conjunction())
            self.height = self.limit(1 + max(height, self.height), position)
        return node

    def conjunction(self) -> ModalFormula:
        node = self.unary()
        while self.peek()[0] == _TOKEN_AND:
            position = self.advance()[1]
            height = self.height
            node = And(node, self.unary())
            self.height = self.limit(1 + max(height, self.height), position)
        return node

    def unary(self) -> ModalFormula:
        kind, position, atom = self.peek()
        if kind == _TOKEN_ATOM:
            self.advance()
            self.height = 0
            return Atom(atom)
        if kind not in (_TOKEN_NOT, _TOKEN_BOX, _TOKEN_LPAREN):
            raise FormulaSyntaxError("expected a formula", position)
        self.advance()
        self.depth = self.limit(self.depth + 1, position)
        if kind != _TOKEN_LPAREN:
            node = (Not if kind == _TOKEN_NOT else Box)(self.unary())
            self.height = self.limit(self.height + 1, position)
        else:
            node = self.implication()
            closing, close_pos, _ = self.peek()
            if closing != _TOKEN_RPAREN:
                raise FormulaSyntaxError("expected ')'", close_pos)
            self.advance()
        self.depth -= 1
        return node


def parse_formula(text: str) -> ModalFormula:
    """Parse formula text; raises :class:`FormulaSyntaxError` with a position."""
    parser = _Parser(_tokenize(text))
    node = parser.implication()
    kind, position, _ = parser.peek()
    if kind != _TOKEN_END:
        raise FormulaSyntaxError("unexpected trailing input", position)
    return node
