"""Mixtures, total variation, Bayes risk, and the tail-mass perturbation bounds."""

import random

import numpy as np
import pytest

from tasklimits.errors import ValidationError
from tasklimits.prediction import (
    ConditionalKernel,
    LossTable,
    averaged_risk,
    bayes_risk,
    full_mixture,
    tail_mixture,
    truncated_mixture,
    tv_dual,
    tv_half,
    verify_prediction_bounds,
)
from tasklimits import prediction
from tasklimits.prior import MAX_CODE_LENGTH, HypothesisClass, HypothesisDescriptor, truncate
from tasklimits.runner import run_experiment
from tasklimits.scenario import PredictionPayload, Scenario
from tasklimits.taskspace import TaskMeasure
from support import brute_force_bayes_risk, random_prediction_scenario

IDENTITY_TOL = 1e-12
SLACK = 1e-9


def two_bernoulli_class():
    hclass = HypothesisClass(
        (
            HypothesisDescriptor(id=0, code_length=1, kernel_ref="k0"),
            HypothesisDescriptor(id=1, code_length=2, kernel_ref="k1"),
        )
    )
    kernels = {
        "k0": ConditionalKernel([[0.1, 0.9]]),
        "k1": ConditionalKernel([[0.9, 0.1]]),
    }
    return hclass, kernels


class TestTypeValidation:
    def test_kernel_rows_must_be_stochastic(self):
        with pytest.raises(ValidationError):
            ConditionalKernel([[0.5, 0.4]])

    def test_kernel_entries_must_be_probabilities(self):
        with pytest.raises(ValidationError):
            ConditionalKernel([[1.5, -0.5]])

    def test_loss_entries_bounded_by_one(self):
        with pytest.raises(ValidationError):
            LossTable([[0.0, 1.2]])

    def test_context_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            TaskMeasure([0.5, 0.4])

    def test_context_weight_past_one_rejected_before_summing(self):
        # Summed first, these overflow ``fsum``.
        with pytest.raises(ValidationError, match="weight 1 must be at most 1"):
            TaskMeasure([0.0, 1e308, 1e308])

    def test_tables_are_frozen(self):
        kernel = ConditionalKernel([[0.5, 0.5]])
        with pytest.raises(ValueError):
            kernel.table[0, 0] = 1.0


class TestMixtures:
    def test_single_hypothesis_mixture_is_its_kernel(self):
        hclass = HypothesisClass((HypothesisDescriptor(id=0, code_length=0, kernel_ref="k"),))
        kernels = {"k": ConditionalKernel([[0.3, 0.7], [0.6, 0.4]])}
        assert np.array_equal(full_mixture(hclass, kernels).table, kernels["k"].table)

    def test_identical_kernels_are_mixture_invariant(self):
        hclass, _ = two_bernoulli_class()
        shared = ConditionalKernel([[0.25, 0.75]])
        kernels = {"k0": shared, "k1": shared}
        q = full_mixture(hclass, kernels)
        assert np.allclose(q.table, shared.table, atol=IDENTITY_TOL, rtol=0.0)

    def test_two_bernoulli_hand_mixture(self):
        hclass, kernels = two_bernoulli_class()
        q = full_mixture(hclass, kernels)
        # (2/3) * 0.9 + (1/3) * 0.1
        assert q.table[0, 1] == pytest.approx(19.0 / 30.0, abs=IDENTITY_TOL)

    def test_truncation_at_max_length_reproduces_full(self):
        hclass, kernels = two_bernoulli_class()
        assert np.array_equal(
            truncated_mixture(hclass, 2, kernels).table, full_mixture(hclass, kernels).table
        )

    def test_truncation_at_one_keeps_only_short_hypothesis(self):
        hclass, kernels = two_bernoulli_class()
        assert np.array_equal(truncated_mixture(hclass, 1, kernels).table, kernels["k0"].table)

    def test_truncation_below_min_length_fails(self):
        hclass, kernels = two_bernoulli_class()
        with pytest.raises(ValidationError, match="^no hypothesis has code length <= 0$"):
            truncated_mixture(hclass, 0, kernels)

    def test_tail_at_one_is_the_long_hypothesis(self):
        hclass, kernels = two_bernoulli_class()
        assert np.array_equal(tail_mixture(hclass, 1, kernels).table, kernels["k1"].table)

    def test_tail_at_max_length_fails(self):
        hclass, kernels = two_bernoulli_class()
        with pytest.raises(ValidationError, match="^every hypothesis has code length <= 2$"):
            tail_mixture(hclass, 2, kernels)

    @pytest.mark.parametrize("mixture", [truncated_mixture, tail_mixture])
    def test_negative_level_is_refused(self, mixture):
        hclass, kernels = two_bernoulli_class()
        with pytest.raises(ValidationError, match="^truncation level must be >= 0, got -1$"):
            mixture(hclass, -1, kernels)

    def test_whole_class_tail_equals_full_mixture(self):
        hclass, kernels = two_bernoulli_class()
        assert np.array_equal(
            tail_mixture(hclass, 0, kernels).table, full_mixture(hclass, kernels).table
        )

    def test_missing_kernel_reference(self):
        hclass, kernels = two_bernoulli_class()
        with pytest.raises(ValidationError, match="^hypothesis 1 references unknown kernel 'k1'$"):
            full_mixture(hclass, {"k0": kernels["k0"]})

    def test_kernel_shape_mismatch(self):
        hclass, kernels = two_bernoulli_class()
        kernels = dict(kernels, k1=ConditionalKernel([[0.2, 0.3, 0.5]]))
        message = r"^kernel 'k1' has shape \(1, 3\), expected \(1, 2\)$"
        with pytest.raises(ValidationError, match=message):
            full_mixture(hclass, kernels)

    def test_mixture_rows_are_distributions_on_random_scenarios(self):
        for seed in range(20):
            hclass, kernels, _, _ = random_prediction_scenario(seed)
            for dist in (
                full_mixture(hclass, kernels),
                truncated_mixture(hclass, hclass.max_code_length, kernels),
            ):
                sums = dist.table.sum(axis=1)
                assert np.abs(sums - 1.0).max() <= IDENTITY_TOL


def oracle_residual(hclass, n, kernels):
    """Max entrywise |full - z_n * truncated - tau_n * tail| from the public mixtures,
    or None where the head or the tail is empty."""
    split = truncate(hclass, n)
    if split.z_n == 0.0 or split.tau_n == 0.0:
        return None
    q = full_mixture(hclass, kernels).table
    q_head = truncated_mixture(hclass, n, kernels).table
    q_tail = tail_mixture(hclass, n, kernels).table
    return float(np.abs(q - split.z_n * q_head - split.tau_n * q_tail).max())


def sweep_residuals(report):
    return {r.level: r for r in report.records if r.name == "decomposition_residual"}


def runner_notes(hclass, kernels, loss, pi, n_max):
    payload = PredictionPayload(hclass, dict(kernels), loss, pi)
    scenario = Scenario(name="s", kind="prediction", seed=0, payload=payload, n_max=n_max)
    return run_experiment(scenario).notes


def expected_notes(hclass, n_max):
    """The runner's skip notes, from ``truncate`` at every level."""
    splits = [truncate(hclass, n) for n in range(n_max + 1)]
    heads = [s.level for s in splits if s.z_n == 0.0]
    tails = [s.level for s in splits if s.tau_n == 0.0]
    return (
        tuple(f"level {n}: skipped (empty truncation: no hypothesis within the level)" for n in heads)
        + tuple(f"level {n}: decomposition skipped (empty truncation)" for n in heads)
        + tuple(f"level {n}: decomposition skipped (empty tail)" for n in tails)
    )


class TestDecomposition:
    """The sweep's decomposition records against the public mixtures as the oracle."""

    def test_two_bernoulli_residual_is_tiny(self):
        hclass, kernels = two_bernoulli_class()
        loss = LossTable([[0.0, 1.0], [1.0, 0.0]])
        report = verify_prediction_bounds(hclass, kernels, loss, TaskMeasure([1.0]), 3)
        residuals = sweep_residuals(report)
        assert set(residuals) == {1}
        assert residuals[1].passed and residuals[1].lhs <= IDENTITY_TOL
        assert residuals[1].lhs == oracle_residual(hclass, 1, kernels)

    def test_degenerate_levels_are_skipped_with_reason(self):
        hclass, kernels = two_bernoulli_class()
        loss = LossTable([[0.0, 1.0], [1.0, 0.0]])
        pi = TaskMeasure([1.0])
        report = verify_prediction_bounds(hclass, kernels, loss, pi, 3)
        # Level 0 has an empty head; levels 2 and 3 have an empty tail.
        assert [(s.level, s.tau_n == 0.0) for s in report.levels] == [
            (1, False),
            (2, True),
            (3, True),
        ]
        assert set(sweep_residuals(report)) == {1}
        assert runner_notes(hclass, kernels, loss, pi, 3) == (
            "level 0: skipped (empty truncation: no hypothesis within the level)",
            "level 0: decomposition skipped (empty truncation)",
            "level 2: decomposition skipped (empty tail)",
            "level 3: decomposition skipped (empty tail)",
        )

    def test_no_level_summarized_when_every_head_is_empty(self):
        hclass, kernels = two_bernoulli_class()
        loss = LossTable([[0.0, 1.0], [1.0, 0.0]])
        pi = TaskMeasure([1.0])
        report = verify_prediction_bounds(hclass, kernels, loss, pi, 0)
        assert report.levels == () and report.records == () and report.all_passed
        assert runner_notes(hclass, kernels, loss, pi, 0) == (
            "level 0: skipped (empty truncation: no hypothesis within the level)",
            "level 0: decomposition skipped (empty truncation)",
        )

    def test_random_classes_decompose_exactly(self):
        # Levels run past the longest code, where every tail is empty.
        tails = 0
        for seed in range(40):
            hclass, kernels, loss, pi = random_prediction_scenario(seed)
            n_max = hclass.max_code_length + 3
            report = verify_prediction_bounds(hclass, kernels, loss, pi, n_max)
            residuals = sweep_residuals(report)
            summaries = {s.level: s for s in report.levels}
            for n in range(n_max + 1):
                split = truncate(hclass, n)
                if split.z_n == 0.0:
                    assert n not in summaries
                else:
                    assert summaries[n].tau_n == split.tau_n
                expected = oracle_residual(hclass, n, kernels)
                if expected is None:
                    assert n not in residuals
                    continue
                tails += 1
                assert residuals[n].lhs == expected
                assert residuals[n].passed and expected <= IDENTITY_TOL
            assert list(residuals) == sorted(residuals)
            assert runner_notes(hclass, kernels, loss, pi, n_max) == expected_notes(hclass, n_max)
        assert tails > 100

    def test_contraction_identity_links_the_three_mixtures(self):
        # full - truncated == tau * (tail - truncated), entrywise.
        for seed in range(20):
            hclass, kernels, _, _ = random_prediction_scenario(seed)
            for n in range(hclass.max_code_length + 1):
                split = truncate(hclass, n)
                if split.z_n == 0.0 or split.tau_n == 0.0:
                    continue
                q = full_mixture(hclass, kernels)
                q_n = truncated_mixture(hclass, n, kernels)
                r_n = tail_mixture(hclass, n, kernels)
                for c in range(q.n_contexts):
                    lhs = tv_dual(q.row(c), q_n.row(c))
                    rhs = split.tau_n * tv_dual(r_n.row(c), q_n.row(c))
                    assert abs(lhs - rhs) <= IDENTITY_TOL


class TestTotalVariation:
    def test_identical_rows(self):
        assert tv_dual([0.4, 0.6], [0.4, 0.6]) == 0.0

    def test_disjoint_point_masses_reach_the_dual_extreme(self):
        assert tv_dual([1.0, 0.0], [0.0, 1.0]) == 2.0
        assert tv_half([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_bernoulli_pair(self):
        assert tv_dual([0.9, 0.1], [0.1, 0.9]) == pytest.approx(1.6, abs=IDENTITY_TOL)
        assert tv_half([0.9, 0.1], [0.1, 0.9]) == pytest.approx(0.8, abs=IDENTITY_TOL)

    def test_dimension_mismatch(self):
        message = r"^rows must share one dimension, got \(2,\) and \(3,\)$"
        with pytest.raises(ValidationError, match=message):
            tv_dual([0.5, 0.5], [0.2, 0.3, 0.5])


class TestBayesRisk:
    def test_zero_one_loss_is_one_minus_max(self):
        loss = LossTable([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        rho = [0.2, 0.5, 0.3]
        result = bayes_risk(rho, loss)
        assert result.value == pytest.approx(0.5, abs=IDENTITY_TOL)
        assert result.argmin_action == 1

    def test_constant_loss_is_flat(self):
        loss = LossTable([[0.5, 0.5], [0.5, 0.5]])
        result = bayes_risk([0.1, 0.9], loss)
        assert result.value == 0.5
        assert result.argmin_action == 0  # tie broken downward

    def test_point_mass_with_matched_action(self):
        loss = LossTable([[0.0, 1.0], [1.0, 0.0]])
        result = bayes_risk([0.0, 1.0], loss)
        assert result.value == 0.0
        assert result.argmin_action == 1

    def test_empty_action_set(self):
        loss = LossTable(np.empty((0, 2)))
        with pytest.raises(ValidationError, match="^loss table declares no actions$"):
            bayes_risk([0.5, 0.5], loss)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(200):
            n_actions = rng.randint(1, 8)
            n_outcomes = rng.randint(1, 6)
            loss_rows = [[rng.random() for _ in range(n_outcomes)] for _ in range(n_actions)]
            raw = [rng.random() + 1e-9 for _ in range(n_outcomes)]
            total = sum(raw)
            rho = [x / total for x in raw]
            result = bayes_risk(rho, LossTable(loss_rows))
            expected_value, expected_action = brute_force_bayes_risk(rho, loss_rows)
            assert result.value == pytest.approx(expected_value, abs=IDENTITY_TOL)
            assert result.argmin_action == expected_action

    def test_argmin_is_a_true_minimizer(self):
        rng = random.Random(13)
        for _ in range(100):
            n_actions = rng.randint(1, 8)
            loss_rows = [[rng.random() for _ in range(3)] for _ in range(n_actions)]
            raw = [rng.random() + 1e-9 for _ in range(3)]
            rho = [x / sum(raw) for x in raw]
            loss = LossTable(loss_rows)
            best = bayes_risk(rho, loss)
            for u in range(n_actions):
                assert best.value <= sum(l * p for l, p in zip(loss_rows[u], rho)) + IDENTITY_TOL


class TestAveragedRisk:
    def test_single_context_equals_bayes_risk(self):
        rho = ConditionalKernel([[0.2, 0.8]])
        loss = LossTable([[0.0, 1.0], [1.0, 0.0]])
        pi = TaskMeasure([1.0])
        assert averaged_risk(rho, loss, pi) == bayes_risk(rho.row(0), loss).value

    def test_point_mass_context(self):
        rho = ConditionalKernel([[0.2, 0.8], [0.9, 0.1]])
        loss = LossTable([[0.0, 1.0], [1.0, 0.0]])
        pi = TaskMeasure([0.0, 1.0])
        assert averaged_risk(rho, loss, pi) == bayes_risk(rho.row(1), loss).value

    def test_uniform_two_contexts_average(self):
        rho = ConditionalKernel([[0.2, 0.8], [0.9, 0.1]])
        loss = LossTable([[0.0, 1.0], [1.0, 0.0]])
        pi = TaskMeasure([0.5, 0.5])
        a = bayes_risk(rho.row(0), loss).value
        b = bayes_risk(rho.row(1), loss).value
        assert averaged_risk(rho, loss, pi) == pytest.approx((a + b) / 2, abs=IDENTITY_TOL)

    def test_context_count_mismatch(self):
        rho = ConditionalKernel([[0.2, 0.8]])
        loss = LossTable([[0.0, 1.0]])
        message = "^distribution has 1 contexts, context weights have 2$"
        with pytest.raises(ValidationError, match=message):
            averaged_risk(rho, loss, TaskMeasure([0.5, 0.5]))


class TestPredictiveUtility:
    """The predictive utility at level n is the negated risk of the truncated mixture."""

    def test_constant_loss_pins_utility(self):
        hclass, kernels = two_bernoulli_class()
        loss = LossTable([[0.5, 0.5]])
        pi = TaskMeasure([1.0])
        for n in (1, 2, 3):
            assert -averaged_risk(truncated_mixture(hclass, n, kernels), loss, pi) == -0.5

    def test_full_class_utility_is_negated_full_risk(self):
        hclass, kernels = two_bernoulli_class()
        loss = LossTable([[0.0, 1.0], [1.0, 0.0]])
        pi = TaskMeasure([1.0])
        expected = -averaged_risk(full_mixture(hclass, kernels), loss, pi)
        assert -averaged_risk(truncated_mixture(hclass, 5, kernels), loss, pi) == expected


class TestRiskLipschitz:
    def test_risk_gap_bounded_by_half_tv(self):
        rng = random.Random(77)
        for _ in range(300):
            n_outcomes = rng.randint(1, 6)
            n_actions = rng.randint(1, 8)
            loss = LossTable([[rng.random() for _ in range(n_outcomes)] for _ in range(n_actions)])

            def row():
                raw = [rng.random() + 1e-9 for _ in range(n_outcomes)]
                total = sum(raw)
                return [x / total for x in raw]

            a, b = row(), row()
            gap = abs(bayes_risk(a, loss).value - bayes_risk(b, loss).value)
            assert gap <= tv_half(a, b) + SLACK
            assert gap <= tv_dual(a, b) + SLACK


class TestVerifyPredictionBounds:
    def test_identical_kernels_zero_all_lhs(self):
        hclass, _ = two_bernoulli_class()
        shared = ConditionalKernel([[0.4, 0.6]])
        kernels = {"k0": shared, "k1": shared}
        loss = LossTable([[0.0, 1.0], [1.0, 0.0]])
        pi = TaskMeasure([1.0])
        report = verify_prediction_bounds(hclass, kernels, loss, pi, 3)
        assert report.all_passed
        assert all(r.lhs <= IDENTITY_TOL for r in report.records)

    def test_two_bernoulli_bounds_hold(self):
        hclass, kernels = two_bernoulli_class()
        loss = LossTable([[0.0, 1.0], [1.0, 0.0]])
        pi = TaskMeasure([1.0])
        report = verify_prediction_bounds(hclass, kernels, loss, pi, 3)
        assert report.all_passed
        # Level 0 is the only one with an empty head.
        assert [s.level for s in report.levels] == [1, 2, 3]
        names = {r.name for r in report.records}
        assert names == {"tv_vs_tail", "risk_vs_tail", "gain_vs_tails", "decomposition_residual"}

    def test_sweep_weighs_only_where_the_head_mass_changes(self, monkeypatch):
        bands = []
        weights = prediction.prior_weights

        def counting(hclass, *band):
            bands.append(band)
            return weights(hclass, *band)

        splits = []
        split = prediction.truncate

        def counting_splits(hclass, n):
            splits.append(n)
            return split(hclass, n)

        monkeypatch.setattr(prediction, "prior_weights", counting)
        monkeypatch.setattr(prediction, "truncate", counting_splits)
        hclass, kernels = two_bernoulli_class()
        loss = LossTable([[0.0, 1.0], [1.0, 0.0]])
        report = verify_prediction_bounds(hclass, kernels, loss, TaskMeasure([1.0]), 50)
        assert len(report.levels) == 50
        # One split per level, 0..50: ``truncate`` is a table lookup.
        assert splits == list(range(51))
        # Full prior, then the head and tail at level 1, then the head at level 2.
        assert bands == [(), (-1, 1), (1, MAX_CODE_LENGTH), (-1, 2)]

    def test_randomized_suite_zero_violations(self):
        # Subset here; the acceptance suite runs the full 200 seeds.
        for seed in range(50):
            hclass, kernels, loss, pi = random_prediction_scenario(seed)
            report = verify_prediction_bounds(hclass, kernels, loss, pi, hclass.max_code_length + 1)
            assert report.all_passed, f"seed {seed}: {[r for r in report.records if not r.passed]}"
