"""Validity decisions: named axioms, witnesses, closure rules, the
independent frame-enumeration oracle and type reference, the elimination
against the sweep, and the sweep's work and order."""

import importlib.util
import json
import random
import re
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

import pytest

import tasklimits.modal.decide as decide_module
import tasklimits.modal.formula as formula_module
from tasklimits.errors import ResourceLimitError
from tasklimits.modal import (
    And,
    Atom,
    Box,
    KripkeModel,
    atom_indices,
    box_subformulas,
    count_nodes,
    gl_decide,
    model_check,
    parse_formula,
    print_formula,
    subformulas,
)
from tasklimits.modal.decide import SearchLevel, ValidityTrace
from tasklimits.modal.kripke import MAX_ENUM_WORLDS, successor_mask_orders
from support import (
    frame_validity_oracle,
    hintikka_type_reference,
    random_formula,
    reference_representative_frames,
    reference_subformulas,
)


def decide(text):
    return gl_decide(parse_formula(text))


class TestNamedFormulas:
    def test_lob_axiom_is_valid(self):
        result = decide("[]([]p0 -> p0) -> []p0")
        assert result.is_valid
        assert result.trace is not None and len(result.trace.levels) == 3

    def test_distribution_axiom_is_valid(self):
        assert decide("[](p0 -> p1) -> ([]p0 -> []p1)").is_valid

    def test_transitivity_axiom_is_valid(self):
        assert decide("[]p0 -> [][]p0").is_valid

    def test_reflection_is_invalid_with_terminal_countermodel(self):
        result = decide("[]p0 -> p0")
        assert result.verdict == "invalid"
        cm = result.countermodel
        assert cm.model.worlds == frozenset({0})
        assert cm.model.relation == frozenset()
        assert cm.model.true_atoms(0) == frozenset()

    def test_density_is_invalid(self):
        assert decide("[][]p0 -> []p0").verdict == "invalid"

    def test_propositional_tautology(self):
        assert decide("p0 -> p0").is_valid
        assert decide("p0 | ~p0").is_valid

    def test_atom_alone_is_invalid(self):
        assert decide("p0").verdict == "invalid"

    def test_consistency_is_invalid(self):
        # The frame class contains terminal worlds, where []( p & ~p ) holds.
        assert decide("~[](p0 & ~p0)").verdict == "invalid"

    def test_linearity_schema_fails_on_branching_frames(self):
        # Valid on linear orders only; a root with two incomparable
        # successors refutes it, so it must come back invalid here.
        result = decide("[](([]p0 & p0) -> p1) | [](([]p1 & p1) -> p0)")
        assert result.verdict == "invalid"
        cm = result.countermodel
        succ = cm.model.successors(cm.world)
        incomparable = [
            (a, b)
            for a in succ
            for b in succ
            if a < b and (a, b) not in cm.model.relation and (b, a) not in cm.model.relation
        ]
        assert incomparable


class TestWitnesses:
    def test_invalid_witness_recheck_fails_at_named_world(self):
        rng = random.Random(8)
        rechecked = 0
        for _ in range(200):
            phi = random_formula(rng)
            result = gl_decide(phi)
            if result.verdict == "invalid":
                cm = result.countermodel
                assert model_check(phi, cm.model, cm.world) is False
                assert len(cm.model.worlds) <= len(subformulas(phi))
                rechecked += 1
        assert rechecked > 20

    def test_valid_trace_reports_every_size_swept(self):
        result = decide("[]([]p0 -> p0) -> []p0")
        assert [lvl.world_count for lvl in result.trace.levels] == [1, 2, 3]
        assert all(lvl.frames_checked >= 1 for lvl in result.trace.levels)


class TestResourceLimits:
    def test_node_limit(self):
        with pytest.raises(ResourceLimitError, match="nodes"):
            gl_decide(parse_formula("p0" + " & p0" * 100))

    def test_node_limit_counts_shared_subformulas_without_walking_each(self):
        # 25 distinct nodes, 2**25 - 1 occurrences: a walk per occurrence
        # would not finish.
        phi = Atom(0)
        for _ in range(24):
            phi = And(phi, phi)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="^formula has 33554431 nodes, limit is 200$"):
            gl_decide(phi)
        assert time.perf_counter() - start < 1.0

    def test_chain_deeper_than_the_recursion_limit_is_refused_by_size(self):
        phi = Atom(0)
        for _ in range(2000):
            phi = Box(phi)
        with pytest.raises(ResourceLimitError, match="^formula has 2001 nodes, limit is 200$"):
            gl_decide(phi)

    def test_atom_limit(self):
        phi = Atom(0)
        for i in range(1, 9):
            phi = And(phi, Atom(i))
        with pytest.raises(ResourceLimitError, match="atoms"):
            gl_decide(phi)

    def test_box_count_limit(self):
        # Five distinct boxed subformulas need a six-world sweep.
        texts = ["[]p0", "[]p1", "[](p0 & p1)", "[](p0 | p1)", "[]~p0"]
        phi = parse_formula(" & ".join(texts))
        assert len(box_subformulas(phi)) == 5
        with pytest.raises(ResourceLimitError, match="worlds"):
            gl_decide(phi)

    def test_atom_limit_is_checked_before_box_limit(self):
        phi = parse_formula(" & ".join(f"[]p{i}" for i in range(9)))
        with pytest.raises(ResourceLimitError, match="9 atoms"):
            gl_decide(phi)

    @pytest.mark.parametrize("text", ["[]([]p0 -> p0) -> []p0", "[]p0 -> p0", "p1 & ~p1"])
    def test_one_subformula_walk_per_decision(self, text, monkeypatch):
        """Atoms, the box count and the evaluation order all come from one walk."""
        calls = []
        walk = formula_module._postorder

        def counted(phi):
            calls.append(phi)
            return walk(phi)

        monkeypatch.setattr(formula_module, "_postorder", counted)
        monkeypatch.setattr(decide_module, "_postorder", counted)
        phi = parse_formula(text)
        gl_decide(phi)
        assert calls == [phi]


class TestAgainstFrameOracle:
    def test_agreement_on_random_corpus(self):
        rng = random.Random(4242)
        seen_valid = seen_invalid = 0
        for _ in range(120):
            phi = random_formula(rng)
            bound = len(box_subformulas(phi)) + 1
            mine = gl_decide(phi).is_valid
            oracle = frame_validity_oracle(phi, bound)
            assert mine == oracle, print_formula(phi)
            seen_valid += mine
            seen_invalid += not mine
        assert seen_valid > 5 and seen_invalid > 5

    def test_agreement_on_named_formulas(self):
        for text, expected in [
            ("[]([]p0 -> p0) -> []p0", True),
            ("[](p0 -> p1) -> ([]p0 -> []p1)", True),
            ("[]p0 -> p0", False),
            ("[]p0 -> [][]p0", True),
            ("[][]p0 -> []p0", False),
        ]:
            phi = parse_formula(text)
            bound = len(box_subformulas(phi)) + 1
            assert frame_validity_oracle(phi, bound) == expected
            assert gl_decide(phi).is_valid == expected


class TestHintikkaTypeReference:
    """The type elimination of ``tests/support.py`` against the frame sweep and the oracle.

    Its countermodels come from the witness DAG, not from any frame the sweep
    visits, and each is built through ``KripkeModel`` and re-checked.
    """

    def test_agreement_on_random_corpus(self):
        rng = random.Random(1979)
        seen = {True: 0, False: 0}
        for i in range(1000):
            phi = random_formula(rng)
            valid, countermodel = hintikka_type_reference(phi)
            assert valid == gl_decide(phi).is_valid, print_formula(phi)
            if i < 120:
                bound = len(box_subformulas(phi)) + 1
                assert valid == frame_validity_oracle(phi, bound), print_formula(phi)
            assert (countermodel is None) == valid
            if countermodel is not None:
                model, root = countermodel
                assert not model_check(phi, model, root), print_formula(phi)
            seen[valid] += 1
        assert seen[True] > 50 and seen[False] > 50

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("[]([]p0 -> p0) -> []p0", True),
            ("[]p0 -> [][]p0", True),
            ("[]p0 -> p0", False),
            ("[][]p0 -> []p0", False),
            ("~[]p0 -> ~[]~[]p0", True),
            ("[]p0 | []~p0", False),
        ],
    )
    def test_named_formulas(self, text, expected):
        phi = parse_formula(text)
        valid, countermodel = hintikka_type_reference(phi)
        assert valid == expected == gl_decide(phi).is_valid
        if countermodel is not None:
            assert not model_check(phi, *countermodel)

    def test_decides_past_the_sweep_cap(self):
        # Three Löb instances need 7-world frames, which the sweep refuses.
        lob = parse_formula(" & ".join(f"([]([]p{i} -> p{i}) -> []p{i})" for i in range(3)))
        with pytest.raises(ResourceLimitError):
            gl_decide(lob)
        assert hintikka_type_reference(lob) == (True, None)
        # Refuted where no []p_i holds: one witness, with every box and no atom true, serves all.
        boxes = parse_formula(" | ".join(f"[]p{i}" for i in range(5)))
        valid, (model, root) = hintikka_type_reference(boxes)
        assert not valid and len(model.worlds) == 2
        assert not model_check(boxes, model, root)


def eliminate(phi):
    return not decide_module._eliminate(formula_module._postorder(phi)).failing


def witness_dag(phi):
    """The witness-DAG countermodel of an invalid ``phi``, built straight from elimination."""
    walk = formula_module._postorder(phi)
    atoms = [node.index for node in walk[0] if isinstance(node, Atom)]
    return decide_module._witness_dag(decide_module._eliminate(walk), atoms)


def sweep(text):
    """The sweep's least countermodel within the search bound, or ``None``."""
    phi = parse_formula(text)
    walk = formula_module._postorder(phi)
    bound = len(box_subformulas(phi)) + 1
    return decide_module._least_countermodel(walk, atom_indices(phi), bound)


def lob(a):
    return f"([]([]{a} -> {a}) -> []{a})"


class TestCellElimination:
    """``gl_decide``'s bitmask elimination against the type reference and the oracle."""

    def test_agreement_on_random_corpus(self):
        rng = random.Random(1993)
        seen = {True: 0, False: 0}
        for _ in range(1000):
            phi = random_formula(rng, n_atoms=rng.randint(1, 3), max_distinct_boxes=4)
            valid = eliminate(phi)
            assert valid == hintikka_type_reference(phi)[0], print_formula(phi)
            boxes = len(box_subformulas(phi))
            if boxes <= 3:
                assert valid == frame_validity_oracle(phi, boxes + 1), print_formula(phi)
            seen[valid] += 1
        assert seen[True] > 50 and seen[False] > 50

    def test_witness_dag_on_random_corpus(self):
        """Every invalid formula's witness DAG fails at its root, as large as the reference's."""
        rng = random.Random(1993)
        built = largest = 0
        for _ in range(1000):
            phi = random_formula(rng, n_atoms=rng.randint(1, 3), max_distinct_boxes=4)
            valid, reference = hintikka_type_reference(phi)
            if valid:
                continue
            cm = witness_dag(phi)
            worlds = len(cm.model.worlds)
            assert not model_check(phi, cm.model, cm.world), print_formula(phi)
            assert worlds == len(reference[0].worlds) <= 1 + 4 + 12 + 24 + 24, print_formula(phi)
            assert cm.world == worlds - 1
            assert all(v < w for w, v in cm.model.relation)
            built += 1
            largest = max(largest, worlds)
        assert built > 500 and largest > 5

    @pytest.mark.parametrize(
        "text, cap",
        [
            # Ten boxes: eleven-world frames.
            (" & ".join(lob(f"p{i}") for i in range(5)), "worlds"),
            # Four boxes over five atoms: 25 valuation bits, past the sweep but not the decision.
            (lob("(p0 | (p1 & p2))") + " & " + lob("(p3 -> p4)"), None),
        ],
        ids=["worlds", "bits"],
    )
    def test_five_atom_lob_conjunctions_are_valid_past_the_caps(self, text, cap):
        phi = parse_formula(text)
        assert len(atom_indices(phi)) == 5
        assert eliminate(phi)
        if cap is not None:
            with pytest.raises(ResourceLimitError, match=cap):
                gl_decide(phi)
        else:
            levels = gl_decide(phi).trace.levels
            assert [lvl.valuations_per_frame for lvl in levels] == [2 ** (5 * k) for k in range(1, 6)]

    def test_an_invalid_formula_the_sweep_cannot_refute_gets_the_witness_dag(self, monkeypatch):
        swept = decide("[]p0 -> p0").countermodel
        monkeypatch.setattr(decide_module, "_least_countermodel", lambda *args: None)
        result = decide("[]p0 -> p0")
        # One world where p0 is false: the failing type of the highest box set has every
        # box, so no witness.
        assert result.verdict == "invalid"
        assert result.countermodel == witness_dag(parse_formula("[]p0 -> p0")) == swept


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py``, imported without writing bytecode under ``perfbench/``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


class TestProvabilityWorkload:
    """Every ``provability`` formula the benchmark can draw, elimination against the sweep
    within its cap and against the type reference past it.

    A verdict or a trace that moved here would move the benchmark's digests.
    """

    def test_elimination_and_sweep_agree_on_every_variant(self, workloads):
        answered = past_the_sweep = 0
        for variant in range(workloads.VARIANTS):
            for item in workloads.generate("provability", variant=variant):
                [text] = json.loads(item.text)["payload"]["formulas"]
                phi = parse_formula(text)
                result = gl_decide(phi)
                atoms = len(atom_indices(phi))
                world_counts = range(1, len(box_subformulas(phi)) + 2)
                if atoms * world_counts[-1] > decide_module.MAX_VALUATION_BITS:
                    # The 20-bit valid4 and 25-bit refused5 classes: all valid, so no
                    # workload formula reaches the witness DAG.
                    assert hintikka_type_reference(phi) == (True, None), text
                    valid = True
                    past_the_sweep += 1
                else:
                    valid = sweep(text) is None
                assert eliminate(phi) == result.is_valid == valid, text
                if result.is_valid:
                    counts = decide_module._FRAME_COUNTS
                    assert result.trace == ValidityTrace(
                        tuple(SearchLevel(k, counts[k - 1], 1 << (atoms * k)) for k in world_counts),
                    ), text
                answered += 1
        assert (answered, past_the_sweep) == (100 * workloads.VARIANTS, 4 * workloads.VARIANTS)

    def test_no_countermodel_has_more_than_four_worlds(self, workloads):
        """The benchmark's tracer finds a sweep countermodel's frame in the table's 4-world row."""
        worlds = set()
        for name in ("provability", "small_batch"):
            for variant in range(workloads.VARIANTS):
                for item in workloads.generate(name, variant=variant):
                    if not item.is_file:
                        texts = [item.text]
                    else:
                        data = json.loads(item.text)
                        texts = data["payload"]["formulas"] if data["kind"] == "logic" else []
                    results = [decide(text) for text in texts]
                    worlds |= {len(r.countermodel.model.worlds) for r in results if not r.is_valid}
        assert max(worlds) <= 4, worlds


class TestSubformulaWalk:
    """The walk by integer keys against the reference walk keyed by the nodes themselves.

    Both must return the same node objects in the same order, and ``count_nodes`` must
    count every occurrence, over a seeded corpus, the corpus with shared operands, and
    every ``provability`` and ``small_batch`` formula the benchmark can draw.
    """

    @staticmethod
    def check(phi):
        walked, reference = subformulas(phi), reference_subformulas(phi)
        assert len(walked) == len(reference), print_formula(phi)
        assert all(a is b for a, b in zip(walked, reference)), print_formula(phi)
        occurrences, stack = 0, [phi]
        while stack:
            node = stack.pop()
            occurrences += 1
            stack += [field for field in vars(node).values() if not isinstance(field, int)]
        assert count_nodes(phi) == occurrences, print_formula(phi)

    def test_seeded_corpus(self):
        rng = random.Random(1122)
        for _ in range(400):
            phi = random_formula(rng, 30, n_atoms=3, max_box_depth=4, max_distinct_boxes=8)
            self.check(phi)
            self.check(And(phi, Box(phi)))  # one operand object reached twice

    def test_every_benchmark_formula(self, workloads):
        checked = 0
        for workload in ("provability", "small_batch"):
            for variant in range(workloads.VARIANTS):
                for item in workloads.generate(workload, variant=variant):
                    data = {} if item.command == "logic_text" else json.loads(item.text)
                    if data and data["kind"] != "logic":
                        continue
                    for text in data["payload"]["formulas"] if data else [item.text]:
                        self.check(parse_formula(text))
                        checked += 1
        assert checked == 1720


class TestWorldBoundRobustness:
    def test_valid_verdicts_survive_one_extra_world(self):
        # A valid verdict's trace names frames up to (boxes + 1) worlds;
        # confirm no countermodel appears one world beyond that.
        rng = random.Random(616)
        confirmed = 0
        for _ in range(120):
            phi = random_formula(rng)
            bound = len(box_subformulas(phi)) + 1
            if bound + 1 <= 5 and gl_decide(phi).is_valid:
                assert frame_validity_oracle(phi, bound + 1), print_formula(phi)
                confirmed += 1
        assert confirmed > 3


class TestClosureRules:
    def test_necessitation_on_corpus(self):
        rng = random.Random(555)
        promoted = 0
        for _ in range(60):
            phi = random_formula(rng)
            if gl_decide(phi).is_valid:
                assert gl_decide(Box(phi)).is_valid
                promoted += 1
        assert promoted > 3

    def test_lob_rule_on_corpus(self):
        rng = random.Random(556)
        fired = 0
        for _ in range(60):
            phi = random_formula(rng)
            premise = parse_formula(f"[]({print_formula(phi)}) -> ({print_formula(phi)})")
            if gl_decide(premise).is_valid:
                assert gl_decide(phi).is_valid
                fired += 1
        assert fired > 3


# Four distinct boxes ([]([]p0 -> p0), []p0, []p1, [][]p1), so a five-world sweep.
FOUR_BOX_VALID = "([]([]p0 -> p0) -> []p0) & ([]p1 -> [][]p1)"

# Valid, with three world counts over 8 atoms: 8, 16 and 24 valuation bits.
LOB_24_BITS = "[]([]A -> A) -> []A".replace("A", "((p0 & p1) | (p2 & p3) | (p4 & p5) | (p6 & p7))")


@pytest.fixture
def evaluated_frames(monkeypatch):
    """Successor masks of every frame ``gl_decide`` evaluates, in order."""
    frames = []
    original = decide_module._frame_cells

    def counting(walk, succ_masks, *rest):
        frames.append(succ_masks)
        return original(walk, succ_masks, *rest)

    monkeypatch.setattr(decide_module, "_frame_cells", counting)
    return frames


class TestSearchWork:
    def test_valid_four_box_formula_evaluates_only_rooted_frames(self, evaluated_frames):
        assert sweep(FOUR_BOX_VALID) is None
        assert len(evaluated_frames) == 1 + 1 + 2 + 5 + 16
        for masks in evaluated_frames:
            everyone = (1 << len(masks)) - 1
            assert any(succ | 1 << w == everyone for w, succ in enumerate(masks))

    def test_trace_still_counts_every_frame_covered(self, evaluated_frames):
        result = decide(FOUR_BOX_VALID)
        levels = result.trace.levels
        assert len(levels) == 5
        assert [lvl.world_count for lvl in levels] == [1, 2, 3, 4, 5]
        assert [lvl.frames_checked for lvl in levels] == [1, 2, 5, 16, 63]
        assert [lvl.valuations_per_frame for lvl in levels] == [2 ** (2 * k) for k in range(1, 6)]

    @pytest.mark.parametrize("text", [FOUR_BOX_VALID, LOB_24_BITS])
    def test_valid_verdict_evaluates_no_frame(self, evaluated_frames, text):
        assert decide(text).is_valid
        assert evaluated_frames == []

    @pytest.mark.parametrize(
        "text, verdict",
        [
            # 25 valuation bits, valid
            (FOUR_BOX_VALID + " & (p2 | p3 | p4 | ~p2)", "valid"),
            # 25 bits, refuted by one world, yet the sweep does not run
            (FOUR_BOX_VALID + " & (p2 | p3 | p4)", "invalid"),
            # 35 bits
            (FOUR_BOX_VALID + " & (p2 | p3 | p4 | p5 | p6)", "invalid"),
        ],
    )
    def test_past_the_valuation_cap_no_frame_is_evaluated(self, evaluated_frames, text, verdict):
        phi = parse_formula(text)
        result = gl_decide(phi)
        assert result.verdict == verdict
        if verdict == "invalid":
            cm = result.countermodel
            assert cm == witness_dag(phi)
            assert not model_check(phi, cm.model, cm.world)
        assert evaluated_frames == []

    def test_search_enumerates_no_labelled_orders(self):
        # A fresh process, so no cache of labelled orders is warm.
        script = f"""
import sys
sys.path.insert(0, {str(Path(decide_module.__file__).parents[2])!r})
import tasklimits.modal.decide as decide
import tasklimits.modal.kripke as kripke
from tasklimits.modal import parse_formula

def refuse(world_count):
    raise AssertionError("labelled orders enumerated")

kripke.successor_mask_orders = refuse
if hasattr(decide, "successor_mask_orders"):
    decide.successor_mask_orders = refuse
print(decide.gl_decide(parse_formula({FOUR_BOX_VALID!r})).verdict)
"""
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "valid\n"


def _relabel(masks, perm):
    relabeled = [0] * len(masks)
    for w, succ in enumerate(masks):
        relabeled[perm[w]] = sum(1 << perm[v] for v in range(len(masks)) if succ >> v & 1)
    return tuple(relabeled)


class TestSearchHelpers:
    @pytest.mark.parametrize("world_count", [1, 2, 3, 4])
    def test_representatives_are_first_of_each_relabeling_class(self, world_count):
        perms = list(permutations(range(world_count)))
        seen_classes = set()
        expected = []
        for masks in successor_mask_orders(world_count):
            canonical = min(_relabel(masks, perm) for perm in perms)
            if canonical not in seen_classes:
                seen_classes.add(canonical)
                expected.append(masks)
        assert decide_module._representative_frames(world_count) == tuple(expected)

    def test_representative_counts(self):
        # Unlabeled strict partial orders on 1..5 points (OEIS A000112).
        counts = [len(decide_module._representative_frames(k)) for k in range(1, 5)]
        assert counts == [1, 2, 5, 16]
        assert decide_module._FRAME_COUNTS == (1, 2, 5, 16, 63)

    @pytest.mark.parametrize("world_count", range(MAX_ENUM_WORLDS))
    def test_table_is_the_orbit_marking_reference(self, world_count):
        assert decide_module._representative_frames(
            world_count
        ) == reference_representative_frames(world_count)

    @pytest.mark.parametrize("world_count", range(1, MAX_ENUM_WORLDS + 1))
    def test_rooted_frames_are_the_row_of_one_world_fewer_under_a_root(self, world_count):
        # The reference's rooted frames, in order, are the table's frames of one world
        # fewer with the root appended; the count tuple counts every reference frame.
        reference = reference_representative_frames(world_count)
        everyone = (1 << world_count) - 1
        rooted = [m for m in reference if any(s | 1 << w == everyone for w, s in enumerate(m))]
        root = (1 << world_count - 1) - 1
        frames = decide_module._representative_frames(world_count - 1)
        assert rooted == [(*frame, root) for frame in frames]
        assert decide_module._FRAME_COUNTS[world_count - 1] == len(reference)

    def test_table_covers_every_enumerable_world_count(self):
        # Rows of 0..4 worlds, from which the sweep builds the rooted frames of 1..5.
        assert sorted(decide_module._REPRESENTATIVE_FRAMES) == list(range(MAX_ENUM_WORLDS))
        assert len(decide_module._FRAME_COUNTS) == MAX_ENUM_WORLDS

    @pytest.mark.parametrize("world_count", range(MAX_ENUM_WORLDS))
    def test_successors_carry_lower_labels_and_roots_are_last(self, world_count):
        # Successors carry lower labels, so a rooted frame's one root is its
        # last world, the one world the sweep reads.
        everyone = (1 << world_count) - 1
        for masks in decide_module._REPRESENTATIVE_FRAMES[world_count]:
            assert all(succ < 1 << w for w, succ in enumerate(masks)), masks
            roots = [w for w, succ in enumerate(masks) if succ | 1 << w == everyone]
            assert roots in ([], [world_count - 1]), masks

    @pytest.mark.parametrize("total_bits", range(1, 11))
    def test_atom_bit_mask_selects_valuations_with_the_bit(self, total_bits):
        for bit in range(total_bits):
            expected = sum(1 << v for v in range(1 << total_bits) if v >> bit & 1)
            assert decide_module._atom_bit_mask(bit, total_bits) == expected


def _first_refutation(phi):
    """(model, world) of the first failure in search order, by ``model_check``.

    World counts ascend, then representative frames in order, then worlds,
    then valuation indices; bit ``i * k + w`` of a valuation index makes the
    ``i``-th atom true at world ``w`` of a ``k``-world frame.
    """
    atoms = atom_indices(phi)
    for k in range(1, len(box_subformulas(phi)) + 2):
        for masks in decide_module._representative_frames(k):
            relation = {(w, v) for w in range(k) for v in range(k) if masks[w] >> v & 1}
            models = [
                KripkeModel(
                    range(k),
                    relation,
                    {
                        w: {a for i, a in enumerate(atoms) if index >> (i * k + w) & 1}
                        for w in range(k)
                    },
                )
                for index in range(1 << (len(atoms) * k))
            ]
            for w in range(k):
                for model in models:
                    if not model_check(phi, model, w):
                        return model, w
    return None


class TestCountermodelOrder:
    def test_countermodel_is_first_refutation_in_search_order(self):
        rng = random.Random(9090)
        compared = deeper = 0
        while compared < 300:
            phi = random_formula(rng, max_distinct_boxes=2)
            result = gl_decide(phi)
            if result.is_valid:
                continue
            model, world = _first_refutation(phi)
            assert result.countermodel.model == model, print_formula(phi)
            assert result.countermodel.world == world, print_formula(phi)
            compared += 1
            deeper += len(model.worlds) > 1
        assert deeper > 30

    def test_first_of_several_refuting_frames(self):
        # Both rooted three-world frames (fork and chain) refute it, and no
        # smaller frame does, so it pins the order among frames of one size.
        phi = parse_formula("[]p0 | []~p0")
        model, world = _first_refutation(phi)
        assert len(model.worlds) == 3
        result = gl_decide(phi)
        assert (result.countermodel.model, result.countermodel.world) == (model, world)


def _past_the_sweep_corpus(rng, count):
    """Formulas over 17 to 21 valuation bits, past the sweep's cap, often invalid.

    A random formula over two atoms is moved to the two highest atoms and
    joined with a contradiction over the rest: its verdict is the random
    formula's, over a valuation space of every atom.
    """
    atoms_for_bound = {3: (6, 7), 4: (5,), 5: (4,)}
    corpus = []
    while len(corpus) < count:
        psi = random_formula(rng, max_nodes=12, n_atoms=2, max_distinct_boxes=4)
        choices = atoms_for_bound.get(len(box_subformulas(psi)) + 1)
        if choices is None or len(atom_indices(psi)) < 2:
            continue
        atoms = rng.choice(choices)
        moved = re.sub(r"p(\d+)", lambda m: f"p{int(m[1]) + atoms - 2}", print_formula(psi))
        padding = " & ".join(f"p{i}" for i in range(atoms - 2))
        corpus.append(parse_formula(f"({moved}) | ({padding} & ~p0)"))
    return corpus


class TestPastTheSweep:
    def test_seeded_corpus_gets_the_witness_dag(self, evaluated_frames):
        built = largest = 0
        for phi in _past_the_sweep_corpus(random.Random(1717), 60):
            bits = len(atom_indices(phi)) * (len(box_subformulas(phi)) + 1)
            assert 17 <= bits <= 21
            result = gl_decide(phi)
            valid, reference = hintikka_type_reference(phi)
            assert result.is_valid == valid, print_formula(phi)
            if valid:
                continue
            cm = result.countermodel
            assert cm == witness_dag(phi)
            assert not model_check(phi, cm.model, cm.world), print_formula(phi)
            assert len(cm.model.worlds) == len(reference[0].worlds), print_formula(phi)
            built += 1
            largest = max(largest, len(cm.model.worlds))
        assert evaluated_frames == []
        assert built > 40 and largest > 3


# Invalid over 4 atoms and 3 boxes, 16 valuation bits: refuted only at the root of the
# four-world chain, where every atom is true, so the sweep evaluates every rooted frame.
CHAIN_16_BITS = "[][][](p0 & ~p0) | ~(p0 & p1 & p2 & p3)"
# The same shape over 6 atoms: 24 valuation bits, past the sweep's cap.
CHAIN_24_BITS = "[][][](p0 & ~p0) | ~(p0 & p1 & p2 & p3 & p4 & p5)"


class TestBoundedCells:
    def test_no_cell_exceeds_8_kib(self, monkeypatch):
        widest = []
        original = decide_module._frame_cells

        def measuring(*args):
            table = original(*args)
            widest.append(max(c.bit_length() for row in table for c in row))
            return table

        monkeypatch.setattr(decide_module, "_frame_cells", measuring)
        cm = decide(CHAIN_16_BITS).countermodel
        assert len(cm.model.worlds) == 4 and len(widest) == 1 + 1 + 2 + 5
        assert max(widest) == 1 << 16
        widest.clear()
        cm = decide(CHAIN_24_BITS).countermodel
        assert not model_check(parse_formula(CHAIN_24_BITS), cm.model, cm.world)
        assert len(cm.model.worlds) == 4 and widest == []
        result = decide(LOB_24_BITS)
        assert [
            (lvl.world_count, lvl.frames_checked, lvl.valuations_per_frame)
            for lvl in result.trace.levels
        ] == [(1, 1, 256), (2, 2, 65536), (3, 5, 16777216)]
        assert widest == []

    def test_the_24_bit_lob_instance_peaks_below_64_mb(self):
        # Linux carries a process's peak RSS over exec into the program it
        # starts, so a small launcher starts the decision and reads its peak
        # from the children's usage, not this test process.
        script = f"""
import sys
sys.path.insert(0, {str(Path(decide_module.__file__).parents[2])!r})
from tasklimits.modal import gl_decide, parse_formula
assert gl_decide(parse_formula({LOB_24_BITS!r})).is_valid
"""
        launcher = f"""
import resource, subprocess, sys
subprocess.run([sys.executable, "-c", {script!r}], check=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(peak // 1024 if sys.platform == "darwin" else peak)
"""
        done = subprocess.run(
            [sys.executable, "-c", launcher], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 64 * 1024  # KiB
