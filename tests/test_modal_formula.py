"""Parser, printer, and structural helpers for modal formulas."""

import copy
import dataclasses
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tasklimits
from tasklimits.errors import FormulaSyntaxError, ResourceLimitError
from tasklimits.modal import (
    And,
    Atom,
    Box,
    Implies,
    Not,
    Or,
    atom_indices,
    box_subformulas,
    count_nodes,
    gl_decide,
    parse_formula,
    print_formula,
    subformulas,
)
from tasklimits.cli import main
from tasklimits.modal.formula import DEFAULT_MAX_NODES
from support import SCENARIO_DIR, random_formula


class TestParsing:
    def test_lob_axiom_structure(self):
        phi = parse_formula("[]([]p0 -> p0) -> []p0")
        p = Atom(0)
        assert phi == Implies(Box(Implies(Box(p), p)), Box(p))

    def test_atom_implication(self):
        assert parse_formula("p0 -> p0") == Implies(Atom(0), Atom(0))

    def test_precedence_chain(self):
        # ~ and [] bind tighter than &, & tighter than |, | tighter than ->
        phi = parse_formula("~p0 & p1 | p2 -> p3")
        assert phi == Implies(Or(And(Not(Atom(0)), Atom(1)), Atom(2)), Atom(3))

    def test_implication_is_right_associative(self):
        phi = parse_formula("p0 -> p1 -> p2")
        assert phi == Implies(Atom(0), Implies(Atom(1), Atom(2)))

    def test_conjunction_folds_left(self):
        phi = parse_formula("p0 & p1 & p2")
        assert phi == And(And(Atom(0), Atom(1)), Atom(2))

    def test_multi_digit_atoms(self):
        assert parse_formula("p12") == Atom(12)

    def test_whitespace_is_insignificant(self):
        assert parse_formula(" []p0->p0 ") == parse_formula("[] p0 -> p0")

    def test_whitespace_runs_are_read_in_linear_time(self):
        """Trailing whitespace is read once, not rescanned from each of its positions."""
        start = time.perf_counter()
        for text in ("p0" + " " * 50_000, " " * 50_000 + "p0", "p0" + " \t\r\n" * 12_500 + "& p1"):
            parse_formula(text)
        assert time.perf_counter() - start < 1.0


class TestSyntaxErrors:
    def test_unclosed_box_paren_reports_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("[](")
        assert err.value.position == 3

    def test_bare_p_needs_digits(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("p")
        assert err.value.position == 1

    def test_unexpected_character(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("p0 -> q1")
        assert err.value.position == 6

    def test_trailing_input(self):
        with pytest.raises(FormulaSyntaxError, match="trailing"):
            parse_formula("p0 p1")

    def test_missing_close_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(p0 -> p1")

    def test_dash_without_arrow(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p0 - p1")


class TestNestingLimit:
    """The parser refuses the 201st open level or the 201st node, well before the call
    stack runs out; a chain builds a node per level, so the node limit refuses it first."""

    @pytest.mark.parametrize(
        "opening, closing, levels",
        [
            ("~", "", 1),
            ("[]", "", 1),
            ("(", ")", 1),
            ("p0 -> ", "", 1),
            ("~(", ")", 2),
            ("p0 & ", "", 1),
            ("p0 | ", "", 1),
        ],
    )
    def test_nesting_at_the_limit_parses_and_past_it_is_refused(self, opening, closing, levels):
        repeats, refusal = DEFAULT_MAX_NODES // levels, "nests deeper than 200 levels"
        nodes = count_nodes(parse_formula(opening + "p0" + closing)) - 1  # per repeat
        if nodes * repeats >= DEFAULT_MAX_NODES:  # a chain: the node limit comes first
            repeats, refusal = (DEFAULT_MAX_NODES - 1) // nodes, "more than 200 nodes"
        parse_formula(opening * repeats + "p0" + closing * repeats)
        with pytest.raises(ResourceLimitError, match=refusal):
            parse_formula(opening * (repeats + 1) + "p0" + closing * (repeats + 1))
        with pytest.raises(ResourceLimitError, match=refusal):
            parse_formula(opening * 600 + "p0" + closing * 600)

    def test_the_201st_node_is_refused_at_its_position_before_the_rest_is_read(self):
        # The text after the 201st node is never read, so its bad character is not met.
        text = " & ".join(["p0"] * 101) + " & $"
        with pytest.raises(ResourceLimitError) as err:
            parse_formula(text)
        assert str(err.value) == "formula has more than 200 nodes (position 500)"


class TestPrinting:
    def test_lob_round_trips_verbatim(self):
        text = "[]([]p0 -> p0) -> []p0"
        assert print_formula(parse_formula(text)) == text

    def test_minimal_parentheses(self):
        assert print_formula(parse_formula("(p0 & p1) | p2")) == "p0 & p1 | p2"
        assert print_formula(parse_formula("p0 & (p1 | p2)")) == "p0 & (p1 | p2)"
        assert print_formula(parse_formula("~(p0 & p1)")) == "~(p0 & p1)"
        assert print_formula(parse_formula("p0 -> (p1 -> p2)")) == "p0 -> p1 -> p2"
        assert print_formula(parse_formula("(p0 -> p1) -> p2")) == "(p0 -> p1) -> p2"

    @pytest.mark.parametrize(
        "phi, text",
        [
            (Implies(Implies(Atom(0), Atom(1)), Atom(2)), "(p0 -> p1) -> p2"),
            (Implies(Or(Atom(0), Atom(1)), Atom(2)), "p0 | p1 -> p2"),
            (Implies(And(Atom(0), Atom(1)), Atom(2)), "p0 & p1 -> p2"),
            (Or(Implies(Atom(0), Atom(1)), Atom(2)), "(p0 -> p1) | p2"),
            (Or(Or(Atom(0), Atom(1)), Atom(2)), "p0 | p1 | p2"),
            (Or(And(Atom(0), Atom(1)), Atom(2)), "p0 & p1 | p2"),
            (And(Implies(Atom(0), Atom(1)), Atom(2)), "(p0 -> p1) & p2"),
            (And(Or(Atom(0), Atom(1)), Atom(2)), "(p0 | p1) & p2"),
            (And(And(Atom(0), Atom(1)), Atom(2)), "p0 & p1 & p2"),
            (Implies(Atom(0), Implies(Atom(1), Atom(2))), "p0 -> p1 -> p2"),
            (Implies(Atom(0), Or(Atom(1), Atom(2))), "p0 -> p1 | p2"),
            (Implies(Atom(0), And(Atom(1), Atom(2))), "p0 -> p1 & p2"),
            (Or(Atom(0), Implies(Atom(1), Atom(2))), "p0 | (p1 -> p2)"),
            (Or(Atom(0), Or(Atom(1), Atom(2))), "p0 | (p1 | p2)"),
            (Or(Atom(0), And(Atom(1), Atom(2))), "p0 | p1 & p2"),
            (And(Atom(0), Implies(Atom(1), Atom(2))), "p0 & (p1 -> p2)"),
            (And(Atom(0), Or(Atom(1), Atom(2))), "p0 & (p1 | p2)"),
            (And(Atom(0), And(Atom(1), Atom(2))), "p0 & (p1 & p2)"),
        ],
    )
    def test_each_pair_of_binary_connectives_nested_left_and_right(self, phi, text):
        assert print_formula(phi) == text
        assert parse_formula(text) == phi

    def test_round_trip_on_random_formulas(self):
        rng = random.Random(2024)
        for _ in range(300):
            phi = random_formula(rng, max_nodes=20, n_atoms=3, max_box_depth=4)
            assert parse_formula(print_formula(phi)) == phi


class TestStructure:
    def test_count_nodes(self):
        assert count_nodes(parse_formula("[]([]p0 -> p0) -> []p0")) == 8

    def test_atom_indices_and_boxes(self):
        phi = parse_formula("[]p1 & ([]p1 -> p0)")
        assert atom_indices(phi) == [0, 1]
        assert box_subformulas(phi) == [Box(Atom(1))]

    def test_subformulas_are_unique_and_postordered(self):
        phi = parse_formula("[]p0 -> []p0")
        subs = subformulas(phi)
        assert len(subs) == 3
        assert subs.index(Atom(0)) < subs.index(Box(Atom(0))) < subs.index(phi)

    def test_a_chain_deeper_than_the_recursion_limit_is_walked(self):
        phi = Atom(0)
        for _ in range(2000):
            phi = Box(phi)
        subs = subformulas(phi)
        assert len(subs) == 2001 and subs[0] == Atom(0) and subs[-1] is phi
        assert count_nodes(phi) == 2001
        assert print_formula(phi) == "[]" * 2000 + "p0"

    def test_count_nodes_counts_shared_subformulas_without_walking_each(self):
        # 23 distinct nodes, 2**23 - 1 occurrences.
        phi = Atom(0)
        for _ in range(22):
            phi = And(phi, phi)
        start = time.perf_counter()
        assert count_nodes(phi) == 2**23 - 1
        assert time.perf_counter() - start < 1.0


class TestHashing:
    """No walk hashes a node; a node's own hash is the frozen dataclass's, never kept."""

    def test_no_walk_hashes_a_node(self, monkeypatch):
        def refuse(node):
            raise AssertionError(f"hashed {node!r}")

        for cls in (Atom, Not, Box, And, Or, Implies):
            monkeypatch.setattr(cls, "__hash__", refuse)
        lob = "[]([]p0 -> p0) -> []p0"
        phi = parse_formula(f"({lob}) & ([]p1 | ~[]p1)")
        assert len(subformulas(phi)) == 10 and subformulas(phi)[-1] is phi
        assert count_nodes(phi) == 15 and atom_indices(phi) == [0, 1]
        assert len(box_subformulas(phi)) == 3
        assert print_formula(phi) == "([]([]p0 -> p0) -> []p0) & ([]p1 | ~[]p1)"
        assert gl_decide(phi).is_valid and not gl_decide(parse_formula("[]p0 -> p0")).is_valid
        assert main(["logic", str(SCENARIO_DIR / "logic_basics.json")]) == 0
        assert main(["logic", lob]) == 0

    def test_copies_and_replacements_equal_and_hash_as_the_original(self):
        phi = parse_formula("[]([]p0 -> p0) -> []p0")
        kept = hash(phi)
        for other in (copy.copy(phi), copy.deepcopy(phi), dataclasses.replace(phi)):
            assert other == phi and hash(other) == kept and repr(other) == repr(phi)

    def test_a_node_pickled_in_another_process_hashes_as_a_fresh_one(self):
        text = "[]([]p0 -> p0) -> [](p1 & ~p0)"
        script = f"""
import pickle, sys
sys.path[:0] = [{str(Path(tasklimits.__file__).parents[1])!r}]
from tasklimits.modal import parse_formula, subformulas
phi = parse_formula({text!r})
subformulas(phi)
sys.stdout.buffer.write(pickle.dumps(phi))
"""
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        loaded, fresh = pickle.loads(done.stdout), parse_formula(text)
        assert loaded == fresh and hash(loaded) == hash(fresh)
        assert set(subformulas(loaded)) == set(subformulas(fresh))
