"""Task measures, task sets, and their exact arithmetic."""

import math
import random

import pytest

from tasklimits.errors import BoundsError, ValidationError
from tasklimits.taskspace import TaskMeasure, TaskSet, measure_of, novelty

IDENTITY_TOL = 1e-12


class TestTaskMeasure:
    def test_uniform_sums_to_one(self):
        mu = TaskMeasure.uniform(10)
        assert math.fsum(mu.weights) == pytest.approx(1.0, abs=IDENTITY_TOL)
        assert mu.size == 10

    def test_rejects_negative_weight(self):
        with pytest.raises(ValidationError):
            TaskMeasure((0.5, 0.6, -0.1))

    def test_rejects_bad_total_instead_of_renormalizing(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            TaskMeasure((0.5, 0.4))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TaskMeasure(())

    def test_support_excludes_zero_weights(self):
        mu = TaskMeasure((0.5, 0.0, 0.5))
        assert mu.support == {0, 2}


class TestMeasureOf:
    def test_empty_set_has_zero_mass(self):
        assert measure_of(TaskSet.empty(), TaskMeasure.uniform(7)) == 0.0

    def test_full_support_has_total_mass(self):
        mu = TaskMeasure.uniform(13)
        assert measure_of(TaskSet.of(range(13)), mu) == pytest.approx(1.0, abs=IDENTITY_TOL)

    def test_two_of_ten_uniform(self):
        # 0.1 + 0.1
        assert measure_of(TaskSet.of([0, 1]), TaskMeasure.uniform(10)) == pytest.approx(
            0.2, abs=IDENTITY_TOL
        )

    def test_out_of_bounds_member(self):
        with pytest.raises(BoundsError):
            measure_of(TaskSet.of([5]), TaskMeasure.uniform(5))


class TestNovelty:
    def test_self_difference_is_empty(self):
        s = TaskSet.of([1, 2, 3])
        assert novelty(s, s) == TaskSet.empty()

    def test_plain_difference(self):
        assert novelty(TaskSet.of([0, 1, 2]), TaskSet.of([0])) == TaskSet.of([1, 2])

    def test_non_nested_inputs_accepted(self):
        assert novelty(TaskSet.of([1]), TaskSet.of([0, 2])) == TaskSet.of([1])


class TestMeasureProperties:
    """Finite additivity, monotonicity, and the difference identity."""

    def _random_measure(self, rng, size):
        raw = [rng.random() for _ in range(size)]
        total = math.fsum(raw)
        return TaskMeasure(tuple(w / total for w in raw))

    def test_additivity_on_disjoint_sets(self):
        rng = random.Random(7)
        for _ in range(200):
            size = rng.randint(1, 40)
            mu = self._random_measure(rng, size)
            ids = list(range(size))
            rng.shuffle(ids)
            cut = rng.randint(0, size)
            a, b = TaskSet.of(ids[:cut]), TaskSet.of(ids[cut:])
            lhs = measure_of(a.union(b), mu)
            rhs = measure_of(a, mu) + measure_of(b, mu)
            assert abs(lhs - rhs) <= IDENTITY_TOL

    def test_monotone_and_difference_identity(self):
        rng = random.Random(11)
        for _ in range(200):
            size = rng.randint(1, 40)
            mu = self._random_measure(rng, size)
            inner = TaskSet.of(t for t in range(size) if rng.random() < 0.4)
            outer = inner.union(TaskSet.of(t for t in range(size) if rng.random() < 0.4))
            assert measure_of(inner, mu) <= measure_of(outer, mu) + IDENTITY_TOL
            gap = measure_of(outer, mu) - measure_of(inner, mu)
            assert abs(gap - measure_of(novelty(outer, inner), mu)) <= IDENTITY_TOL
