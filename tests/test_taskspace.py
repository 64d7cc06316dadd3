"""Task measures, and the masses of solved sets as the chain computes them.

The library keeps no set type of its own: the mass of a set is the utility
of a level that solves it, and the mass of the tasks new at a level is that
level's gain. Each chain is loaded the way a scenario file is.
"""

import math
import random

import pytest

from tasklimits.errors import ScenarioError, ValidationError
from tasklimits.scenario import scenario_from_dict
from tasklimits.taskspace import TaskMeasure
from tasklimits.trajectory import marginal_gains, utility_sequence
from support import explicit_chain_dict, explicit_trajectory, reference_mass

IDENTITY_TOL = 1e-12


def mass(solved, mu: TaskMeasure) -> float:
    """The utility of a one-level chain that solves ``solved``."""
    return utility_sequence(explicit_trajectory([solved], mu))[0]


def new_mass(before, after, mu: TaskMeasure) -> float:
    """The gain from ``before`` to ``after``: the mass of the tasks new at the second level."""
    return marginal_gains(explicit_trajectory([before, after], mu))[0]


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

    def test_rejects_a_weight_past_one_before_summing(self):
        # Summed first, these overflow ``fsum``.
        with pytest.raises(ValidationError, match="weight 1 must be at most 1"):
            TaskMeasure((0.0, 1e308, 1e308))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TaskMeasure(())

    def test_support_excludes_zero_weights(self):
        mu = TaskMeasure((0.5, 0.0, 0.5))
        assert mu.support == {0, 2}


class TestMeasureOf:
    def test_empty_set_has_zero_mass(self):
        assert mass(set(), TaskMeasure.uniform(7)) == 0.0

    def test_full_support_has_total_mass(self):
        mu = TaskMeasure.uniform(13)
        assert mass(set(range(13)), mu) == pytest.approx(1.0, abs=IDENTITY_TOL)

    def test_two_of_ten_uniform(self):
        # 0.1 + 0.1
        assert mass({0, 1}, TaskMeasure.uniform(10)) == pytest.approx(0.2, abs=IDENTITY_TOL)

    def test_out_of_bounds_member(self):
        data = explicit_chain_dict([{5}], 1, TaskMeasure.uniform(5))
        with pytest.raises(ScenarioError, match="'sets' names task 5, 'task_weights' has 5"):
            scenario_from_dict(data)


class TestNovelty:
    def test_self_difference_is_empty(self):
        assert new_mass({1, 2, 3}, {1, 2, 3}, TaskMeasure.uniform(5)) == 0.0

    def test_plain_difference(self):
        mu = TaskMeasure.uniform(10)
        traj = explicit_trajectory([{0}, {0, 1, 2}], mu)
        assert traj.first_level == (1, 2, 2) + (0,) * 7
        assert marginal_gains(traj) == [reference_mass(frozenset({1, 2}), mu)]


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
            a, b = set(ids[:cut]), set(ids[cut:])
            traj = explicit_trajectory([a, a | b], mu)
            mass_a, mass_union = utility_sequence(traj)
            (mass_b,) = marginal_gains(traj)
            assert mass_b == reference_mass(frozenset(b), mu)
            assert abs(mass_union - (mass_a + mass_b)) <= IDENTITY_TOL

    def test_monotone_and_difference_identity(self):
        rng = random.Random(11)
        for _ in range(200):
            size = rng.randint(1, 40)
            mu = self._random_measure(rng, size)
            inner = {t for t in range(size) if rng.random() < 0.4}
            outer = inner | {t for t in range(size) if rng.random() < 0.4}
            assert mass(inner, mu) <= mass(outer, mu) + IDENTITY_TOL
            gap = mass(outer, mu) - mass(inner, mu)
            assert abs(gap - new_mass(inner, outer, mu)) <= IDENTITY_TOL
