"""Propositional modal logic with a provability-style box operator.

``formula`` defines the AST, parser, and printer; ``kripke`` the finite
transitive irreflexive models and their evaluation; ``decide`` the validity
decision over that frame class.
"""

from .formula import (
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
    parse_formula,
    print_formula,
    subformulas,
)
from .kripke import KripkeModel, enumerate_frames, model_check
from .decide import Countermodel, DecisionResult, SearchLevel, ValidityTrace, check_limits, gl_decide
