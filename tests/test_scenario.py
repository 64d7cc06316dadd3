"""Scenario file parsing, validation gates, and overrides."""

import json

import pytest

from tasklimits.scenario import (
    LogicPayload,
    PredictionPayload,
    Scenario,
    TrajectoryPayload,
    parse_scenario,
    scenario_from_dict,
)
from tasklimits.errors import ScenarioError
from tasklimits.trajectory import RandomCoverage
from support import SCENARIO_DIR


def minimal_trajectory_dict():
    return {
        "name": "mini",
        "kind": "trajectory",
        "seed": 1,
        "n_max": 3,
        "epsilon": 0.1,
        "payload": {
            "task_weights": [0.2, 0.2, 0.2, 0.2, 0.2],
            "rule": {"kind": "difficulty_threshold", "difficulties": [1, 1, 2, 2, 3]},
        },
    }


def write_scenario(tmp_path, data, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestParseScenario:
    def test_minimal_trajectory(self, tmp_path):
        scenario = parse_scenario(write_scenario(tmp_path, minimal_trajectory_dict()))
        assert isinstance(scenario, Scenario)
        assert scenario.kind == "trajectory"
        assert isinstance(scenario.payload, TrajectoryPayload)
        assert scenario.payload.mu.size == 5

    def test_missing_seed(self, tmp_path):
        data = minimal_trajectory_dict()
        del data["seed"]
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(write_scenario(tmp_path, data))

    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",\n  bad}', encoding="utf-8")
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            parse_scenario(tmp_path / "nope.json")

    def test_kraft_violation_propagates(self, tmp_path):
        data = {
            "name": "bad-prior",
            "kind": "prediction",
            "seed": 0,
            "n_max": 2,
            "payload": {
                "hypotheses": [
                    {"id": 0, "code_length": 1, "kernel": "a"},
                    {"id": 1, "code_length": 1, "kernel": "a"},
                    {"id": 2, "code_length": 1, "kernel": "a"},
                ],
                "kernels": {"a": [[0.5, 0.5]]},
                "loss": [[0.0, 1.0]],
                "context_weights": [1.0],
            },
        }
        with pytest.raises(ScenarioError, match="(?i)kraft sum.*exceeds 1"):
            parse_scenario(write_scenario(tmp_path, data))

    def test_unnested_explicit_sets_rejected(self, tmp_path):
        data = minimal_trajectory_dict()
        data["payload"]["rule"] = {"kind": "explicit_sets", "sets": [[0], [0, 1], [0]]}
        with pytest.raises(ScenarioError, match="drops"):
            parse_scenario(write_scenario(tmp_path, data))

    def test_bad_weights_rejected(self, tmp_path):
        data = minimal_trajectory_dict()
        data["payload"]["task_weights"] = [0.5, 0.6]
        with pytest.raises(ScenarioError, match="sum to 1"):
            parse_scenario(write_scenario(tmp_path, data))

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="kind"):
            scenario_from_dict({"name": "x", "kind": "nope", "seed": 0, "payload": {}})

    def test_unknown_rule_kind(self, tmp_path):
        data = minimal_trajectory_dict()
        data["payload"]["rule"] = {"kind": "teleport"}
        with pytest.raises(ScenarioError, match="teleport"):
            parse_scenario(write_scenario(tmp_path, data))

    def test_logic_scenario_parses_formulas(self):
        scenario = scenario_from_dict(
            {
                "name": "l",
                "kind": "logic",
                "seed": 0,
                "payload": {"formulas": ["[]p0 -> p0"]},
            }
        )
        assert isinstance(scenario.payload, LogicPayload)
        assert len(scenario.payload.formulas) == 1

    def test_logic_syntax_error_carries_position(self):
        with pytest.raises(ScenarioError, match="position 3"):
            scenario_from_dict(
                {"name": "l", "kind": "logic", "seed": 0, "payload": {"formulas": ["[]("]}}
            )

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), "many"])
    def test_unusable_epsilon_rejected(self, epsilon):
        data = minimal_trajectory_dict()
        data["epsilon"] = epsilon
        with pytest.raises(ScenarioError, match="'epsilon'"):
            scenario_from_dict(data)

    def test_fractional_code_length_rejected(self, tmp_path):
        data = json.loads((SCENARIO_DIR / "bernoulli_pair.json").read_text(encoding="utf-8"))
        data["payload"]["hypotheses"][0]["code_length"] = 1.5
        with pytest.raises(ScenarioError, match="'code_length' must be an integer"):
            parse_scenario(write_scenario(tmp_path, data))

    def test_trajectory_requires_epsilon(self):
        data = minimal_trajectory_dict()
        del data["epsilon"]
        with pytest.raises(ScenarioError, match="epsilon"):
            scenario_from_dict(data)


class TestOverrides:
    def test_seed_override_reaches_coverage_rule(self, tmp_path):
        data = minimal_trajectory_dict()
        data["payload"]["rule"] = {"kind": "random_coverage", "step_probability": 0.5}
        path = write_scenario(tmp_path, data)
        base = parse_scenario(path)
        overridden = parse_scenario(path, seed=77)
        assert isinstance(base.payload.rule, RandomCoverage)
        assert base.payload.rule.seed == 1
        assert overridden.payload.rule.seed == 77

    def test_n_max_and_epsilon_overrides(self, tmp_path):
        path = write_scenario(tmp_path, minimal_trajectory_dict())
        scenario = parse_scenario(path, n_max=2, epsilon=0.5)
        assert scenario.n_max == 2
        assert scenario.epsilon == 0.5


class TestBundledScenarios:
    def test_all_bundled_files_parse(self):
        paths = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(paths) >= 5
        kinds = {parse_scenario(p).kind for p in paths}
        assert kinds == {"trajectory", "prediction", "logic"}

    def test_prediction_payload_shape(self):
        scenario = parse_scenario(SCENARIO_DIR / "bernoulli_pair.json")
        payload = scenario.payload
        assert isinstance(payload, PredictionPayload)
        assert payload.loss.n_actions == 2
        assert payload.contexts.n_contexts == 1
