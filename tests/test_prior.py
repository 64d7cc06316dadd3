"""Kraft gate, the prefix-mass table, prior weights, truncation splits, and tail masses."""

import math
import random

import pytest

from tasklimits.errors import ValidationError
from tasklimits.prior import (
    MAX_CODE_LENGTH,
    HypothesisClass,
    HypothesisDescriptor,
    prior_weights,
    truncate,
)
from support import random_kraft_lengths

IDENTITY_TOL = 1e-12


def make_class(lengths):
    return HypothesisClass(
        tuple(HypothesisDescriptor(id=i, code_length=l, kernel_ref=f"k{i}") for i, l in enumerate(lengths))
    )


class TestConstruction:
    def test_kraft_violation_names_the_sum(self):
        with pytest.raises(ValidationError, match=r"^Kraft sum 1\.5 exceeds 1 "):
            make_class([1, 1, 1])

    def test_kraft_boundary_accepted(self):
        # 0.5 + 0.25 + 0.25 = 1 exactly
        make_class([1, 2, 2])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            HypothesisClass(
                (
                    HypothesisDescriptor(id=0, code_length=1, kernel_ref="a"),
                    HypothesisDescriptor(id=0, code_length=2, kernel_ref="b"),
                )
            )

    def test_code_length_over_52_bits_rejected(self):
        with pytest.raises(ValidationError):
            HypothesisDescriptor(id=0, code_length=53, kernel_ref="a")

    def test_negative_code_length_rejected(self):
        with pytest.raises(ValidationError):
            HypothesisDescriptor(id=0, code_length=-1, kernel_ref="a")

    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError):
            HypothesisClass(())


class TestNormalizePrior:
    """``prior_weights`` over the whole class is the normalized prior."""

    def test_singleton_zero_length(self):
        hc = make_class([0])
        assert hc.kraft_sum == 1.0
        assert prior_weights(hc) == [1.0]

    def test_two_lengths_hand_arithmetic(self):
        # 2^-1 / 0.75 and 2^-2 / 0.75
        weights = prior_weights(make_class([1, 2]))
        assert weights[0] == pytest.approx(2.0 / 3.0, abs=IDENTITY_TOL)
        assert weights[1] == pytest.approx(1.0 / 3.0, abs=IDENTITY_TOL)

    def test_weights_sum_to_one_and_stay_positive(self):
        rng = random.Random(21)
        for _ in range(100):
            hc = make_class(random_kraft_lengths(rng, rng.randint(1, 64)))
            weights = prior_weights(hc)
            assert all(w > 0.0 for w in weights)
            assert math.fsum(weights) == pytest.approx(1.0, abs=IDENTITY_TOL)


class TestTruncate:
    def test_two_lengths_at_level_one(self):
        hc = make_class([1, 2])
        split = truncate(hc, 1)
        assert split.z_n == pytest.approx(2.0 / 3.0, abs=IDENTITY_TOL)
        assert split.tau_n == pytest.approx(1.0 / 3.0, abs=IDENTITY_TOL)
        assert prior_weights(hc, -1, 1) == [1.0, 0.0]
        assert prior_weights(hc, 1, MAX_CODE_LENGTH) == [0.0, 1.0]

    def test_level_at_or_past_max_keeps_full_prior(self):
        hc = make_class([1, 2])
        for n in (2, 3, MAX_CODE_LENGTH + 5):
            split = truncate(hc, n)
            assert split.z_n == 1.0 and split.tau_n == 0.0
            assert prior_weights(hc, -1, n) == prior_weights(hc)

    def test_level_below_min_is_all_tail(self):
        hc = make_class([1, 2])
        split = truncate(hc, 0)
        assert split.z_n == 0.0
        assert split.tau_n == 1.0
        assert hc.head_mass(0) == 0.0
        assert prior_weights(hc, 0, MAX_CODE_LENGTH) == prior_weights(hc)

    def test_negative_level_rejected(self):
        with pytest.raises(ValidationError, match="^truncation level must be >= 0, got -1$"):
            truncate(make_class([1]), -1)

    def test_partition_identity_over_random_classes(self):
        rng = random.Random(5)
        for _ in range(100):
            hc = make_class(random_kraft_lengths(rng, rng.randint(1, 64)))
            for n in range(0, hc.max_code_length + 2):
                split = truncate(hc, n)
                assert abs(split.z_n + split.tau_n - 1.0) <= IDENTITY_TOL
                if split.z_n:
                    assert math.fsum(prior_weights(hc, -1, n)) == pytest.approx(
                        1.0, abs=IDENTITY_TOL
                    )


def complete_code_lengths(rng, count):
    """Leaf depths of a random binary tree with ``count`` leaves: Kraft sum exactly 1.

    The tree starts as a spine of random depth up to 52 (depths 1, 2, ..., d, d),
    so long codes sit beside short ones; random leaves are then split in two.
    """
    depth = min(rng.randint(0, MAX_CODE_LENGTH), count - 1)
    lengths = list(range(1, depth + 1)) + [depth] if depth else [0]
    while len(lengths) < count:
        i = rng.choice([i for i, length in enumerate(lengths) if length < MAX_CODE_LENGTH])
        lengths[i] += 1
        lengths.append(lengths[i])
    return lengths


def random_class(rng, count):
    """``count`` hypotheses, or some of them, with lengths in 0..52; about half are complete."""
    lengths = complete_code_lengths(rng, count)
    if rng.random() < 0.5 and count > 1:
        lengths = [length for length in lengths if rng.random() < 0.7] or lengths[:1]
    rng.shuffle(lengths)
    return make_class(lengths)


class TestPrefixMassTable:
    """The table's splits and weights against a direct ``math.fsum`` over the hypotheses."""

    def test_splits_equal_direct_fsum(self):
        rng = random.Random(31)
        complete, lengths = 0, set()
        for count in [1, 2048] + [int(2 ** rng.uniform(0, 11)) for _ in range(22)]:
            hc = random_class(rng, count)
            raw = [(h.code_length, h.raw_weight) for h in hc.hypotheses]
            lengths |= {length for length, _ in raw}
            total = math.fsum(w for _, w in raw)
            complete += total == 1.0
            assert hc.kraft_sum == total
            for n in range(MAX_CODE_LENGTH + 2):
                head = math.fsum(w for length, w in raw if length <= n)
                tail = math.fsum(w for length, w in raw if length > n)
                split = truncate(hc, n)
                assert split.z_n == head / total
                assert split.tau_n == tail / total
            n = rng.choice([length for length, _ in raw])
            head = math.fsum(w for length, w in raw if length <= n)
            assert prior_weights(hc, -1, n) == [w / head if l <= n else 0.0 for l, w in raw]
            if n < hc.max_code_length:
                tail = math.fsum(w for length, w in raw if length > n)
                assert prior_weights(hc, n, MAX_CODE_LENGTH) == [
                    w / tail if l > n else 0.0 for l, w in raw
                ]
        assert 6 <= complete < 24
        assert {0, MAX_CODE_LENGTH} <= lengths


class TestTailMassSequence:
    """Tail masses ``truncate(hc, n).tau_n`` over consecutive levels."""

    def test_two_lengths(self):
        hc = make_class([1, 2])
        tails = [truncate(hc, n).tau_n for n in range(3)]
        assert tails[0] == 1.0
        assert tails[1] == pytest.approx(1.0 / 3.0, abs=IDENTITY_TOL)
        assert tails[2] == 0.0

    def test_singleton_zero_length_is_all_head(self):
        hc = make_class([0])
        assert [truncate(hc, n).tau_n for n in range(4)] == [0.0, 0.0, 0.0, 0.0]

    def test_non_increasing_and_vanishing(self):
        rng = random.Random(17)
        for _ in range(100):
            hc = make_class(random_kraft_lengths(rng, rng.randint(1, 64)))
            tails = [truncate(hc, n).tau_n for n in range(hc.max_code_length + 2)]
            assert all(a >= b - IDENTITY_TOL for a, b in zip(tails, tails[1:]))
            assert tails[hc.max_code_length] == 0.0
            assert tails[hc.max_code_length + 1] == 0.0
