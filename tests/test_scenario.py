"""Scenario file parsing, validation gates, and overrides."""

import json
import re

import pytest

from tasklimits.scenario import (
    MAX_LEVELS,
    LogicPayload,
    PredictionPayload,
    Scenario,
    TrajectoryPayload,
    parse_scenario,
    scenario_from_dict,
)
from tasklimits import trajectory
from tasklimits.cli import main
from tasklimits.errors import ScenarioError, ValidationError
from tasklimits.taskspace import TaskSet
from tasklimits.trajectory import DifficultyThreshold, RandomCoverage
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
        # Decoded data has no file, so the message has no prefix.
        with pytest.raises(ScenarioError, match="^kind must be one of"):
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p0 &", "expected a formula (position 4)"),
            # The parser refuses the 201st node, here before the 201st level.
            ("~" * 201 + "p0", "formula has more than 200 nodes (position 200)"),
            (" & ".join(["p0"] * 101), "formula has more than 200 nodes (position 500)"),
            ("(" * 201 + "p0" + ")" * 201, "formula nests deeper than 200 levels (position 200)"),
            # The decision's own limits, checked by the loader through ``check_limits``.
            (" & ".join(f"p{i}" for i in range(9)), "formula uses 9 atoms, limit is 8"),
            (
                " | ".join(f"[]p{i}" for i in range(5)),
                "needs frames of up to 6 worlds; enumeration is capped at 5",
            ),
        ],
    )
    def test_bad_formula_names_the_field_and_the_formula(self, text, message):
        data = {"name": "l", "kind": "logic", "seed": 0, "payload": {"formulas": ["p0", text]}}
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data)
        assert str(err.value) == f"field 'formulas', formula 2: {message}"

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


def bernoulli_dict():
    return json.loads((SCENARIO_DIR / "bernoulli_pair.json").read_text(encoding="utf-8"))


def explicit_sets_dict():
    data = minimal_trajectory_dict()
    data["payload"]["rule"] = {"kind": "explicit_sets", "sets": [[0], [0, 1], [0, 1, 4]]}
    return data


def two_context(data):
    """The bernoulli pair with a second context row in each kernel."""
    for table in data["payload"]["kernels"].values():
        table.append([0.5, 0.5])
    data["payload"]["context_weights"] = [0.25, 0.75]
    return data


class TestLoadTimeChecks:
    """Input that used to parse and then fail (or run wrong) is rejected at load time."""

    def test_fractional_difficulties_rejected(self):
        data = minimal_trajectory_dict()
        data["payload"]["rule"]["difficulties"] = [1.9, 2.5, 1, 2, 3]
        with pytest.raises(ScenarioError, match="'difficulties' must be a list of integers"):
            scenario_from_dict(data)

    def test_fractional_explicit_set_ids_rejected(self):
        data = explicit_sets_dict()
        data["payload"]["rule"]["sets"] = [[0.7], [0.7, 1.9], [0.7, 1.9, 4]]
        with pytest.raises(ScenarioError, match="'sets' must be a list of integers"):
            scenario_from_dict(data)

    def test_explicit_sets_parse(self):
        # Tasks 2 and 3 are never solved: one level past the last set.
        scenario = scenario_from_dict(explicit_sets_dict())
        assert scenario.payload.rule == DifficultyThreshold((1, 2, 4, 4, 3))

    def test_negative_explicit_set_id(self):
        data = explicit_sets_dict()
        data["payload"]["rule"]["sets"] = [[-1], [-1, 0], [-1, 0, 1]]
        with pytest.raises(ScenarioError, match="'sets' names task -1, a negative id"):
            scenario_from_dict(data)

    def test_empty_explicit_chain(self):
        data = explicit_sets_dict()
        data["payload"]["rule"]["sets"] = []
        with pytest.raises(ScenarioError, match="'sets' supplies 0 sets, n_max is 3"):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "weights", [[0.5, "0.5"], [0.5, 0.5, True], [True], "a", {"0": 1.0}, 1.0]
    )
    def test_task_weights_must_be_a_list_of_numbers(self, weights):
        data = minimal_trajectory_dict()
        data["payload"]["task_weights"] = weights
        with pytest.raises(ScenarioError, match="'task_weights' must be a list of numbers"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("probability", ["0.3", True, None, [0.3]])
    def test_step_probability_must_be_a_number(self, probability):
        data = minimal_trajectory_dict()
        data["payload"]["rule"] = {"kind": "random_coverage", "step_probability": probability}
        with pytest.raises(ScenarioError, match="'step_probability' must be a number"):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "field, scenario, path",
        [
            ("epsilon", "uniform_threshold.json", ["epsilon"]),
            ("task_weights", "uniform_threshold.json", ["payload", "task_weights", 0]),
            ("step_probability", "random_coverage.json", ["payload", "rule", "step_probability"]),
            ("kernels", "bernoulli_pair.json", ["payload", "kernels", "mostly-one", 0, 0]),
            ("loss", "bernoulli_pair.json", ["payload", "loss", 0, 0]),
            ("context_weights", "bernoulli_pair.json", ["payload", "context_weights", 0]),
        ],
        ids=["epsilon", "task_weights", "step_probability", "kernels", "loss", "context_weights"],
    )
    def test_integer_past_float_range_names_the_field(
        self, field, scenario, path, tmp_path, capsys
    ):
        data = json.loads((SCENARIO_DIR / scenario).read_text(encoding="utf-8"))
        *parents, last = path
        container = data
        for key in parents:
            container = container[key]
        container[last] = 10**400
        message = f"field '{field}' is past float range: int too large to convert to float"
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(data)
        command = "simulate" if data["kind"] == "trajectory" else "predict"
        assert main([command, str(write_scenario(tmp_path, data))]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, data",
        [
            ("task_weights", minimal_trajectory_dict()),
            ("context_weights", two_context(bernoulli_dict())),
        ],
        ids=["task_weights", "context_weights"],
    )
    def test_weights_summing_past_float_range_name_the_field(self, field, data):
        # Rejected weight by weight before the sum could overflow.
        weights = data["payload"][field]
        weights[:2] = [1e308, 1e308]
        message = re.escape(f"field '{field}': weight 0 must be at most 1, got 1e+308")
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(data)

    def test_integer_weights_and_probability_load(self):
        data = minimal_trajectory_dict()
        data["payload"]["task_weights"] = [0, 1, 0.0, 0, 0]
        data["payload"]["rule"] = {"kind": "random_coverage", "step_probability": 1}
        payload = scenario_from_dict(data).payload
        assert payload.mu.weights == (0.0, 1.0, 0.0, 0.0, 0.0)
        assert payload.rule.step_probability == 1.0

    def test_explicit_set_id_outside_the_task_weights(self):
        data = explicit_sets_dict()
        data["payload"]["rule"]["sets"][2].append(5)
        with pytest.raises(ScenarioError, match="'sets' names task 5, 'task_weights' has 5"):
            scenario_from_dict(data)

    def test_fewer_explicit_sets_than_levels(self):
        data = explicit_sets_dict()
        data["n_max"] = 4
        with pytest.raises(ScenarioError, match="'sets' supplies 3 sets, n_max is 4"):
            scenario_from_dict(data)

    def test_difficulties_must_cover_the_weighted_tasks(self):
        data = minimal_trajectory_dict()
        data["payload"]["rule"]["difficulties"] = [1, 1, 2, 2]
        with pytest.raises(ScenarioError, match="'difficulties' covers 4 tasks.*task 4"):
            scenario_from_dict(data)

    def test_difficulties_may_stop_short_of_unweighted_tasks(self):
        data = minimal_trajectory_dict()
        data["payload"]["task_weights"] = [0.25, 0.25, 0.25, 0.25, 0.0]
        data["payload"]["rule"]["difficulties"] = [1, 1, 2, 2]
        assert scenario_from_dict(data).payload.rule.difficulties == (1, 1, 2, 2)

    def test_loss_width_against_kernel_outcomes(self):
        data = bernoulli_dict()
        data["payload"]["loss"] = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
        with pytest.raises(ScenarioError, match="'loss' has 3 outcomes, the kernels have 2"):
            scenario_from_dict(data)

    def test_context_count_against_kernel_rows(self):
        data = two_context(bernoulli_dict())
        assert scenario_from_dict(data).payload.contexts.size == 2
        data["payload"]["context_weights"] = [1.0]
        with pytest.raises(ScenarioError, match="'context_weights' has 1 contexts, the kernels 2"):
            scenario_from_dict(data)

    def test_unknown_kernel_reference(self):
        data = bernoulli_dict()
        data["payload"]["hypotheses"][1]["kernel"] = "missing"
        with pytest.raises(ScenarioError, match="'kernel' of hypothesis 1: no kernel 'missing'"):
            scenario_from_dict(data)

    def test_unequal_kernel_shapes(self):
        data = bernoulli_dict()
        data["payload"]["kernels"]["mostly-zero"].append([0.5, 0.5])
        with pytest.raises(ScenarioError, match="'kernels' mixes the shapes"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("hypotheses", [[1], None, "x", {"id": 0}, [{"id": 0}, []]])
    def test_hypotheses_must_be_a_list_of_objects(self, hypotheses):
        data = bernoulli_dict()
        data["payload"]["hypotheses"] = hypotheses
        with pytest.raises(ScenarioError, match="field 'hypotheses' must be a list of objects"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("case", ["true", "string", "null", "ragged", "object"])
    @pytest.mark.parametrize(
        "field, keys, shape",
        [
            ("context_weights", ["context_weights"], "a list of numbers"),
            ("loss", ["loss"], "a list of equal-length lists of numbers"),
            ("kernels", ["kernels", "mostly-one"], "a list of equal-length lists of numbers"),
        ],
        ids=["context_weights", "loss", "kernel"],
    )
    def test_prediction_numbers_are_json_numbers(
        self, field, keys, shape, case, tmp_path, capsys
    ):
        data = bernoulli_dict()
        *parents, last = ["payload", *keys]
        container = data
        for key in parents:
            container = container[key]
        value = container[last]
        row = value if field == "context_weights" else value[0]
        if case == "object":
            container[last] = {"0": value[0]}
        elif case == "ragged" and row is value:
            value[0] = [value[0]]  # a row where the weight vector holds a number
        elif case == "ragged":
            value.append([1.0])
        else:
            row[0] = {"true": True, "string": "1.0", "null": None}[case]
        message = f"field '{field}' must be {shape}"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            scenario_from_dict(data)
        assert main(["predict", str(write_scenario(tmp_path, data))]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kernel", [5, None, ["mostly-one"]], ids=["int", "null", "list"])
    def test_hypothesis_kernel_must_be_a_string(self, kernel, tmp_path, capsys):
        # A kernel named ``str(kernel)`` exists, so only the type check can refuse it.
        data = bernoulli_dict()
        kernels = data["payload"]["kernels"]
        kernels[str(kernel)] = kernels["mostly-one"]
        data["payload"]["hypotheses"][0]["kernel"] = kernel
        message = "field 'kernel' of hypothesis 0 must be a string"
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(data)
        assert main(["predict", str(write_scenario(tmp_path, data))]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, keys, value, text",
        [
            ("bernoulli_pair.json", ["kernels", "mostly-one"], [], "kernel must be a 2-D matrix"),
            ("bernoulli_pair.json", ["kernels", "mostly-one"], [[]], "kernel must be a 2-D"),
            ("bernoulli_pair.json", ["loss"], [], "loss table must be a 2-D matrix"),
            ("bernoulli_pair.json", ["loss"], [[]], "loss table must be a 2-D matrix"),
            ("bernoulli_pair.json", ["context_weights"], [], "measure needs at least one weight"),
            ("uniform_threshold.json", ["task_weights"], [], "measure needs at least one weight"),
        ],
        ids=["kernel", "kernel-row", "loss", "loss-row", "context_weights", "task_weights"],
    )
    def test_empty_numbers_name_the_field(self, scenario, keys, value, text):
        data = json.loads((SCENARIO_DIR / scenario).read_text(encoding="utf-8"))
        *parents, last = ["payload", *keys]
        container = data
        for key in parents:
            container = container[key]
        container[last] = value
        # The field, and for a kernel its name, before the constructor's own text.
        where = f"field {keys[0]!r}" + "".join(f", kernel {name!r}" for name in keys[1:])
        with pytest.raises(ScenarioError, match="^" + re.escape(f"{where}: {text}")):
            scenario_from_dict(data)

    def test_duplicate_id_cannot_hide_a_dropped_task(self):
        # Level 2 lists two ids but holds one task, so it drops task 1.
        data = explicit_sets_dict()
        data["payload"]["rule"]["sets"] = [[1], [2, 2], [2, 2]]
        message = re.escape("solved set at level 2 drops previously solved tasks [1]")
        with pytest.raises(ScenarioError, match=message) as info:
            scenario_from_dict(data)
        assert isinstance(info.value.__cause__, ValidationError)
        assert re.fullmatch(message, str(info.value.__cause__))

    @pytest.mark.parametrize("sets", [[[1, True]], [[2], [2, 2.0]]], ids=["bool", "float"])
    def test_explicit_set_ids_are_json_integers(self, sets):
        data = explicit_sets_dict()
        data["n_max"] = len(sets)
        data["payload"]["rule"]["sets"] = sets
        with pytest.raises(ScenarioError, match="field 'sets' must be a list of integers"):
            scenario_from_dict(data)

    def test_first_bad_weight_is_named(self):
        # The smallest weight is task 3's; the first bad one is task 1's.
        data = minimal_trajectory_dict()
        data["payload"]["task_weights"] = [0.6, -0.1, 0.7, -0.2, 0.0]
        message = "field 'task_weights': weight 1 must be finite and >= 0, got -0.1$"
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(data)
        data["payload"]["task_weights"] = [0.6, -0.1, float("nan"), -0.2, 0.0]
        with pytest.raises(ScenarioError, match="field 'task_weights': weight 1 must be finite"):
            scenario_from_dict(data)

    def test_first_difficulty_below_one_is_named(self):
        data = minimal_trajectory_dict()
        data["payload"]["rule"]["difficulties"] = [2, 0, 1, -1, 3]
        with pytest.raises(ScenarioError, match="difficulty of task 1 must be >= 1, got 0"):
            scenario_from_dict(data)

    def test_fractional_hypothesis_id_rejected(self):
        data = bernoulli_dict()
        data["payload"]["hypotheses"][0]["id"] = 0.5
        with pytest.raises(ScenarioError, match="'id' must be an integer"):
            scenario_from_dict(data)

    def test_nan_context_weight_rejected(self):
        data = two_context(bernoulli_dict())
        data["payload"]["context_weights"] = [float("nan"), 1.0]
        message = "field 'context_weights': weight 0 must be finite and >= 0, got nan$"
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(data)

    def test_epsilon_with_infinite_reciprocal_rejected(self):
        data = minimal_trajectory_dict()
        data["epsilon"] = 5e-324
        with pytest.raises(ScenarioError, match="'epsilon'"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("epsilon", [True, False, "0.1", [0.1], {"value": 0.1}])
    def test_epsilon_must_be_a_number(self, tmp_path, capsys, epsilon):
        data = minimal_trajectory_dict()
        data["epsilon"] = epsilon
        with pytest.raises(ScenarioError, match="'epsilon' must be a number"):
            scenario_from_dict(data)
        assert main(["simulate", str(write_scenario(tmp_path, data))]) == 2
        assert "field 'epsilon' must be a number" in capsys.readouterr().err

    def test_integer_epsilon_loads_as_a_float(self):
        data = minimal_trajectory_dict()
        data["epsilon"] = 1
        assert scenario_from_dict(data).epsilon == 1.0

    def test_n_max_over_the_level_limit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "tasklimits.cli.run_experiment", lambda *a, **k: pytest.fail("work started")
        )
        data = bernoulli_dict()
        data["n_max"] = MAX_LEVELS + 1
        with pytest.raises(ScenarioError, match=f"'n_max' is {MAX_LEVELS + 1}, above the limit"):
            scenario_from_dict(data)
        assert main(["predict", str(write_scenario(tmp_path, data))]) == 2
        assert "field 'n_max'" in capsys.readouterr().err
        data["n_max"] = MAX_LEVELS
        path = write_scenario(tmp_path, data)
        assert parse_scenario(path).n_max == MAX_LEVELS
        with pytest.raises(ScenarioError, match="'n_max'"):
            parse_scenario(path, n_max=100_000_000)
        data = minimal_trajectory_dict()
        data["n_max"] = MAX_LEVELS + 1
        with pytest.raises(ScenarioError, match="'n_max'"):
            scenario_from_dict(data)


class TestExplicitChainConversion:
    def test_one_conversion_and_no_task_sets_per_load_and_run(self, tmp_path, monkeypatch):
        conversions = []
        task_sets = []

        def counting(sets):
            sets = list(sets)
            conversions.append(len(sets))
            return convert(sets)

        convert = trajectory._first_solved_levels
        for module in ("tasklimits.trajectory", "tasklimits.scenario"):
            monkeypatch.setattr(f"{module}._first_solved_levels", counting, raising=False)
        monkeypatch.setattr(TaskSet, "__init__", lambda self, members: task_sets.append(members))
        path = write_scenario(tmp_path, explicit_sets_dict())
        assert main(["simulate", str(path)]) == 0
        assert conversions == [3]
        assert task_sets == []
        # The derived view is the one place a TaskSet is built.
        scenario = parse_scenario(path)
        trajectory.build_trajectory(scenario.payload.rule, 3, scenario.payload.mu).solved_sets
        assert len(task_sets) == 3


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
        assert payload.contexts.size == 1
