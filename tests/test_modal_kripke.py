"""Kripke model invariants, evaluation, and frame enumeration counts."""

import time

import pytest

from tasklimits.errors import ResourceLimitError, ValidationError
from tasklimits.modal import (
    And,
    Atom,
    Box,
    KripkeModel,
    Not,
    enumerate_frames,
    model_check,
    parse_formula,
)


def chain_model(p_true_at=(1,)):
    """Two worlds with w0 -> w1."""
    return KripkeModel(
        worlds=[0, 1],
        relation=[(0, 1)],
        valuation={w: {0} for w in p_true_at},
    )


class TestModelValidation:
    def test_reflexive_pair_rejected(self):
        message = r"^relation must be irreflexive, found \(0, 0\)$"
        with pytest.raises(ValidationError, match=message):
            KripkeModel([0], [(0, 0)])

    def test_intransitive_relation_rejected(self):
        message = r"^relation must be transitive, missing \(0, 2\) given \(0, 1\), \(1, 2\)$"
        with pytest.raises(ValidationError, match=message):
            KripkeModel([0, 1, 2], [(0, 1), (1, 2)])

    def test_transitive_chain_accepted(self):
        KripkeModel([0, 1, 2], [(0, 1), (1, 2), (0, 2)])

    def test_unknown_world_in_relation(self):
        message = r"^relation pair \(0, 1\) mentions an unknown world$"
        with pytest.raises(ValidationError, match=message):
            KripkeModel([0], [(0, 1)])

    def test_unknown_world_in_valuation(self):
        with pytest.raises(ValidationError, match="^valuation mentions unknown world 1$"):
            KripkeModel([0], [], valuation={1: {0}})

    def test_empty_model_rejected(self):
        with pytest.raises(ValidationError, match="^model needs at least one world$"):
            KripkeModel([], [])

    def test_transitivity_names_the_least_missing_pair(self):
        # (1, 0) is closed; (2, 1) misses (2, 0) before (3, 2) misses (3, 1) and (3, 0).
        with pytest.raises(ValidationError) as exc:
            KripkeModel(range(4), [(3, 2), (2, 1), (1, 0)])
        assert str(exc.value) == "relation must be transitive, missing (2, 0) given (2, 1), (1, 0)"
        # (0, 1) misses both (0, 2) and (0, 3); the lesser is named.
        with pytest.raises(ValidationError) as exc:
            KripkeModel(range(4), [(1, 3), (0, 1), (1, 2)])
        assert str(exc.value) == "relation must be transitive, missing (0, 2) given (0, 1), (1, 2)"

    def test_valuation_as_pairs_or_mapping(self):
        pairs = KripkeModel([0, 1], [(1, 0)], [(1, [2, 0]), (0, ())])
        mapping = KripkeModel(frozenset({0, 1}), {(1, 0)}, {0: set(), 1: {0, 2}})
        assert pairs == mapping
        assert pairs.valuation == ((0, frozenset()), (1, frozenset({0, 2})))
        assert pairs.successors(1) == frozenset({0}) and pairs.successors(0) == frozenset()
        assert pairs.true_atoms(1) == frozenset({0, 2})
        assert KripkeModel([0], []).valuation == ()

    def test_long_chain_builds_quickly(self):
        """A 120-world strict chain, 7 140 pairs, checked in one pass per pair."""
        n = 120
        relation = [(a, b) for a in range(n) for b in range(a)]
        start = time.perf_counter()
        model = KripkeModel(range(n), relation)
        elapsed = time.perf_counter() - start
        assert len(model.relation) == 7140
        assert all(model.successors(a) == frozenset(range(a)) for a in range(n))
        assert elapsed < 0.5
        message = r"^relation must be transitive, missing \(119, 0\) given \(119, 1\), \(1, 0\)"
        with pytest.raises(ValidationError, match=message):
            KripkeModel(range(n), [pair for pair in relation if pair != (119, 0)])


class TestModelCheck:
    def test_box_is_vacuously_true_at_terminal_world(self):
        model = KripkeModel([0], [])
        for text in ("[]p0", "[](p0 & ~p0)", "[][]p5"):
            assert model_check(parse_formula(text), model, 0)

    def test_box_looks_one_step_ahead(self):
        model = chain_model(p_true_at=(1,))
        assert model_check(parse_formula("[]p0"), model, 0)
        assert not model_check(parse_formula("p0"), model, 0)
        assert model_check(parse_formula("[]p0"), model, 1)  # vacuous at terminal w1

    def test_boolean_connectives(self):
        model = chain_model(p_true_at=(0,))
        assert model_check(parse_formula("p0 | ~p0"), model, 0)
        assert not model_check(parse_formula("p0 & ~p0"), model, 0)
        assert model_check(parse_formula("~p0 -> p0"), model, 0)

    def test_unknown_world_is_an_error(self):
        model = chain_model()
        with pytest.raises(ValidationError, match="^world 7 not in the model$"):
            model_check(parse_formula("p0"), model, 7)

    @pytest.mark.parametrize("depth, expected", [(2000, True), (2001, False)])
    def test_a_chain_deeper_than_the_recursion_limit_is_evaluated(self, depth, expected):
        phi = Box(Atom(0))
        for _ in range(depth):
            phi = Not(phi)
        assert model_check(phi, chain_model(p_true_at=(1,)), 0) is expected

    def test_a_shared_subformula_is_evaluated_once_per_world(self):
        # 2**40 occurrences of p0 under one box: evaluating each occurrence would not finish.
        phi = Atom(0)
        for _ in range(40):
            phi = And(phi, phi)
        model = chain_model(p_true_at=(1,))
        assert model_check(Box(phi), model, 0)
        assert not model_check(phi, model, 0)

    def test_lob_axiom_true_on_every_small_frame(self):
        lob = parse_formula("[]([]p0 -> p0) -> []p0")
        for world_count in range(1, 5):
            for relation in enumerate_frames(world_count):
                for valuation_bits in range(1 << world_count):
                    valuation = {
                        w: {0} for w in range(world_count) if valuation_bits >> w & 1
                    }
                    model = KripkeModel(range(world_count), relation, valuation)
                    for w in range(world_count):
                        assert model_check(lob, model, w)


class TestEnumerateFrames:
    def test_counts_match_strict_partial_orders(self):
        assert sum(1 for _ in enumerate_frames(1)) == 1
        assert sum(1 for _ in enumerate_frames(2)) == 3
        assert sum(1 for _ in enumerate_frames(3)) == 19
        assert sum(1 for _ in enumerate_frames(4)) == 219

    def test_two_world_frames_listed_exactly(self):
        frames = set(enumerate_frames(2))
        assert frames == {frozenset(), frozenset({(0, 1)}), frozenset({(1, 0)})}

    def test_single_world_frame_is_empty_relation(self):
        assert list(enumerate_frames(1)) == [frozenset()]

    def test_every_frame_is_transitive_and_irreflexive(self):
        for relation in enumerate_frames(4):
            assert all(a != b for a, b in relation)
            for a, b in relation:
                for c, d in relation:
                    if b == c:
                        assert (a, d) in relation

    def test_no_duplicates(self):
        frames = list(enumerate_frames(4))
        assert len(frames) == len(set(frames))

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_frames(6))

    def test_world_count_must_be_positive(self):
        with pytest.raises(ValidationError, match="^world count must be >= 1, got 0$"):
            list(enumerate_frames(0))
