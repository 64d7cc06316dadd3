"""Trajectory construction, utility dynamics, and the finite diminishing-returns bound."""

import math
import random

import pytest

from tasklimits.errors import ConfigurationError, NestednessError, ScenarioError
from tasklimits.scenario import scenario_from_dict
from tasklimits.taskspace import TaskMeasure
from tasklimits.trajectory import (
    DifficultyThreshold,
    RandomCoverage,
    SystemTrajectory,
    build_trajectory,
    limit_diagnostics,
    marginal_gains,
    telescoping_residual,
    utility_sequence,
)
from support import (
    explicit_chain_dict,
    explicit_trajectory,
    random_trajectory_case,
    reference_chain,
    reference_mass,
    reference_utilities,
)

IDENTITY_TOL = 1e-12


def sequences(traj) -> tuple[list[float], list[float]]:
    """Utilities and gains, each from its own route; no gains for one level."""
    return utility_sequence(traj), marginal_gains(traj) if traj.levels >= 2 else []


def geometric_measure(max_difficulty: int = 20) -> TaskMeasure:
    """Task d (0-based id d-1) carries mass 2^-d, renormalized over d = 1..max."""
    norm = 1.0 - 2.0 ** -max_difficulty
    return TaskMeasure(tuple(2.0 ** -d / norm for d in range(1, max_difficulty + 1)))


class TestBuildTrajectory:
    def test_all_difficulty_one_saturates_immediately(self):
        mu = TaskMeasure.uniform(4)
        traj = build_trajectory(DifficultyThreshold((1, 1, 1, 1)), 3, mu)
        assert traj == SystemTrajectory((1, 1, 1, 1), 3, mu)

    def test_staircase_difficulties(self):
        mu = TaskMeasure.uniform(5)
        traj = build_trajectory(DifficultyThreshold((1, 2, 3, 4, 5)), 5, mu)
        assert traj == SystemTrajectory((1, 2, 3, 4, 5), 5, mu)

    def test_explicit_nestedness_violation_rejected_at_construction(self):
        data = explicit_chain_dict([{0}, {0, 1}, {0}], 3, TaskMeasure.uniform(2))
        with pytest.raises(ScenarioError, match=r"level 3 drops previously solved tasks \[1\]"):
            scenario_from_dict(data)

    def test_missing_difficulty_for_supported_task(self):
        mu = TaskMeasure.uniform(5)
        with pytest.raises(ConfigurationError, match="no difficulty"):
            build_trajectory(DifficultyThreshold((1, 2, 3)), 3, mu)

    def test_short_explicit_chain_rejected(self):
        data = explicit_chain_dict([{0}], 2, TaskMeasure.uniform(2))
        with pytest.raises(ScenarioError, match="'sets' supplies 1 sets, n_max is 2"):
            scenario_from_dict(data)

    def test_explicit_chain_loads_as_first_solved_levels(self):
        # Task 1 has no weight and is solved at level 3; task 3 is never solved.
        mu = TaskMeasure((0.5, 0.0, 0.25, 0.25))
        data = explicit_chain_dict([{0}, {0, 2}, {0, 1, 2}, {0, 1, 2}], 3, mu)
        rule = scenario_from_dict(data).payload.rule
        assert rule == DifficultyThreshold((1, 3, 2, 5))
        traj = build_trajectory(rule, 3, mu)
        assert traj == SystemTrajectory((1, 3, 2, 0), 3, mu)
        assert traj == explicit_trajectory([{0}, {0, 2}, {0, 1, 2}], mu)

    def test_random_coverage_is_deterministic_and_nested(self):
        mu = TaskMeasure.uniform(30)
        rule = RandomCoverage(step_probability=0.1, seed=5)
        a = build_trajectory(rule, 40, mu)
        assert a == build_trajectory(rule, 40, mu)
        # One first level per task, each a level that runs or 0: nested by construction.
        assert len(a.first_level) == 30 and set(a.first_level) <= set(range(41))


class TestAgainstReferenceChain:
    """The first-level form against chains built whole, level by level, as sets."""

    def test_sets_utilities_and_gains_match_the_reference(self):
        for seed in range(150):
            rule, n_max, mu, sets = random_trajectory_case(seed)
            chain = reference_chain(rule, n_max, mu, sets)
            traj = build_trajectory(rule, n_max, mu)
            assert tuple(s.members for s in traj.solved_sets) == chain
            assert utility_sequence(traj) == [reference_mass(s, mu) for s in chain]
            if n_max >= 2:
                expected = [reference_mass(b - a, mu) for a, b in zip(chain, chain[1:])]
                assert marginal_gains(traj) == expected
            assert explicit_trajectory(chain, mu) == traj

    def test_a_level_that_drops_a_task_is_rejected(self):
        rng = random.Random(7)
        drops = 0
        for seed in range(150):
            rule, n_max, mu, sets = random_trajectory_case(seed)
            chain = reference_chain(rule, n_max, mu, sets)
            for level in range(2, len(chain) + 1):
                earlier = sorted(chain[level - 2])
                if not earlier:
                    continue
                dropped = rng.choice(earlier)
                broken = list(chain)
                broken[level - 1] = chain[level - 1] - {dropped}
                message = f"level {level} drops previously solved tasks \\[{dropped}\\]"
                with pytest.raises(ScenarioError, match=message) as raised:
                    scenario_from_dict(explicit_chain_dict(broken, n_max, mu))
                assert isinstance(raised.value.__cause__, NestednessError)
                drops += 1
        assert drops > 1000


class TestUtilityAndGains:
    def test_empty_sets_give_zero_utilities(self):
        mu = TaskMeasure.uniform(3)
        traj = explicit_trajectory([set(), set()], mu)
        assert utility_sequence(traj) == [0.0, 0.0]
        assert marginal_gains(traj) == [0.0]

    def test_staircase_utilities(self):
        traj = build_trajectory(DifficultyThreshold((1, 2, 3, 4, 5)), 5, TaskMeasure.uniform(5))
        assert utility_sequence(traj) == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0], abs=IDENTITY_TOL)
        assert marginal_gains(traj) == pytest.approx([0.2] * 4, abs=IDENTITY_TOL)

    def test_constant_full_coverage_is_all_ones(self):
        mu = TaskMeasure.uniform(2)
        traj = explicit_trajectory([{0, 1}] * 3, mu)
        assert utility_sequence(traj) == [1.0, 1.0, 1.0]
        assert marginal_gains(traj) == [0.0, 0.0]

    def test_geometric_gains_match_closed_form(self):
        mu = geometric_measure(20)
        traj = build_trajectory(DifficultyThreshold(tuple(range(1, 21))), 20, mu)
        gains = marginal_gains(traj)
        norm = 1.0 - 2.0 ** -20
        for n in range(1, 20):
            assert abs(gains[n - 1] - 2.0 ** -(n + 1) / norm) <= IDENTITY_TOL

    def test_gains_need_two_levels(self):
        mu = TaskMeasure.uniform(2)
        traj = explicit_trajectory([{0}], mu)
        assert utility_sequence(traj) == [0.5]
        with pytest.raises(ConfigurationError):
            marginal_gains(traj)

    def test_gain_equals_utility_difference(self):
        rng = random.Random(3)
        for seed in range(30):
            mu = TaskMeasure.uniform(rng.randint(2, 40))
            rule = RandomCoverage(step_probability=rng.random() * 0.3, seed=seed)
            traj = build_trajectory(rule, rng.randint(2, 30), mu)
            utilities = utility_sequence(traj)
            for i, gain in enumerate(marginal_gains(traj)):
                assert abs(gain - (utilities[i + 1] - utilities[i])) <= IDENTITY_TOL


def exact_sum_case(rng: random.Random, size: int, levels: int) -> SystemTrajectory:
    """A chain over ``size`` tasks whose weights span 2^-1074 to 1, some zero, some levels empty.

    Difficulties are drawn up to a random cap of at most ``levels + 1``, so a chain
    may solve everything at level 1 or leave tasks unsolved.
    """
    small = [
        0.0 if rng.random() < 0.2 else math.ldexp(rng.random(), -rng.randint(7, 1074))
        for _ in range(size - 1)
    ]
    weights = small + [1.0 - math.fsum(small)]
    rng.shuffle(weights)
    spread = rng.randint(1, levels + 1)
    difficulties = tuple(rng.randint(1, spread) for _ in range(size))
    return build_trajectory(DifficultyThreshold(difficulties), levels, TaskMeasure(weights))


class TestExactRunningSum:
    """The carried sum against one ``fsum`` per prefix: equal, and linear work."""

    def test_random_chains_match_the_prefix_fsum(self):
        rng = random.Random(11)
        for _ in range(300):
            traj = exact_sum_case(rng, rng.randint(1, 60), rng.randint(1, 25))
            assert utility_sequence(traj) == reference_utilities(traj)

    @pytest.mark.parametrize(
        "difficulties, levels",
        [((1, 1, 1), 4), ((5, 5, 5), 4), ((1, 2, 3), 1), ((3, 3, 3), 5)],
        ids=["all-at-level-1", "never-solved", "one-level", "empty-levels-first"],
    )
    def test_edge_chains_match_the_prefix_fsum(self, difficulties, levels):
        mu = TaskMeasure((0.5, 5e-324, 0.5 - 5e-324))
        traj = build_trajectory(DifficultyThreshold(difficulties), levels, mu)
        assert utility_sequence(traj) == reference_utilities(traj)

    def test_fsum_sees_linearly_many_items(self, monkeypatch):
        # Weights of one order of magnitude, as in a normalized measure: the carry stays short.
        rng = random.Random(5)
        tasks, levels = 2000, 500
        raw = [rng.random() + 0.1 for _ in range(tasks)]
        mu = TaskMeasure(tuple(w / math.fsum(raw) for w in raw))
        difficulties = tuple(rng.randint(1, levels + 1) for _ in range(tasks))
        traj = build_trajectory(DifficultyThreshold(difficulties), levels, mu)
        fsum = math.fsum
        seen = []

        def counting(items):
            items = list(items)
            seen.append(len(items))
            return fsum(items)

        monkeypatch.setattr(math, "fsum", counting)
        utilities = utility_sequence(traj)
        monkeypatch.undo()
        assert utilities == reference_utilities(traj)
        assert sum(seen) <= 10 * (tasks + levels)


class TestTelescoping:
    def test_constant_trajectory_residual_zero(self):
        mu = TaskMeasure.uniform(2)
        assert telescoping_residual(*sequences(explicit_trajectory([{0}] * 3, mu))) == 0.0

    def test_random_coverage_seed_42_100_steps(self):
        mu = TaskMeasure.uniform(50)
        traj = build_trajectory(RandomCoverage(step_probability=0.05, seed=42), 100, mu)
        assert telescoping_residual(*sequences(traj)) <= IDENTITY_TOL

    def test_random_trajectories_hold_identity(self):
        for seed in range(20):
            mu = TaskMeasure.uniform(25)
            traj = build_trajectory(RandomCoverage(step_probability=0.15, seed=seed), 30, mu)
            assert telescoping_residual(*sequences(traj)) <= IDENTITY_TOL

    @pytest.mark.parametrize("utilities, gains", [([0.5], []), ([0.2, 0.5], []), ([0.2], [0.3])])
    def test_needs_two_levels_and_one_gain_fewer(self, utilities, gains):
        with pytest.raises(ConfigurationError):
            telescoping_residual(utilities, gains)


class TestLimitDiagnostics:
    def test_constant_trajectory(self):
        mu = TaskMeasure.uniform(2)
        diag = limit_diagnostics(*sequences(explicit_trajectory([{0}] * 3, mu)), 0.01)
        assert diag.first_n_with_gain_below_epsilon == 1
        assert diag.max_tail_gain == 0.0
        assert diag.u_last == 0.5

    def test_geometric_first_crossing_matches_analytic_index(self):
        mu = geometric_measure(20)
        traj = build_trajectory(DifficultyThreshold(tuple(range(1, 21))), 20, mu)
        diag = limit_diagnostics(*sequences(traj), 0.01)
        norm = 1.0 - 2.0 ** -20
        expected = next(n for n in range(1, 20) if 2.0 ** -(n + 1) / norm < 0.01)
        assert expected == 6
        assert diag.first_n_with_gain_below_epsilon == expected

    def test_staircase_never_drops_below_point_one(self):
        traj = build_trajectory(DifficultyThreshold((1, 2, 3, 4, 5)), 5, TaskMeasure.uniform(5))
        diag = limit_diagnostics(*sequences(traj), 0.1)
        assert diag.first_n_with_gain_below_epsilon is None

    def test_one_level_has_no_gains(self):
        diag = limit_diagnostics([0.5], [], 0.1)
        assert (diag.u_last, diag.first_n_with_gain_below_epsilon, diag.max_tail_gain) == (
            0.5,
            None,
            0.0,
        )

    def test_epsilon_must_be_positive(self):
        traj = build_trajectory(DifficultyThreshold((1, 1)), 2, TaskMeasure.uniform(2))
        with pytest.raises(ConfigurationError):
            limit_diagnostics(*sequences(traj), 0.0)


class TestDiminishingReturnsBound:
    """At most ceil(1/eps) gains of size >= eps, because the gains sum to <= 1."""

    def test_counting_bound_over_random_trajectories(self):
        rng = random.Random(99)
        for seed in range(60):
            mu = TaskMeasure.uniform(rng.randint(2, 50))
            rule = RandomCoverage(step_probability=rng.random() * 0.5, seed=seed)
            traj = build_trajectory(rule, rng.randint(2, 60), mu)
            gains = marginal_gains(traj)
            for eps in (0.5, 0.1, 0.01):
                assert sum(1 for g in gains if g >= eps) <= math.ceil(1.0 / eps)

    def test_utilities_monotone_and_bounded(self):
        for seed in range(30):
            mu = TaskMeasure.uniform(20)
            traj = build_trajectory(RandomCoverage(step_probability=0.2, seed=seed), 25, mu)
            utilities = utility_sequence(traj)
            assert all(0.0 <= u <= 1.0 + IDENTITY_TOL for u in utilities)
            assert all(a <= b + IDENTITY_TOL for a, b in zip(utilities, utilities[1:]))
