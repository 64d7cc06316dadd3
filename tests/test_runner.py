"""One pass per run: each trajectory sequence and each prediction mixture is computed once."""

import json
from collections import Counter
from pathlib import Path

import pytest

from tasklimits import prediction, runner, scenario, trajectory
from tasklimits.prior import truncate
from tasklimits.runner import run_experiment
from tasklimits.scenario import PredictionPayload, Scenario, parse_scenario, scenario_from_dict
from tasklimits.taskspace import TaskMeasure
from support import SCENARIO_DIR, explicit_chain_dict, random_prediction_scenario

SPREAD = Path(__file__).resolve().parent / "golden" / "spread_prediction.scenario.json"

TRAJECTORY_SCENARIOS = [
    path
    for path in sorted(SCENARIO_DIR.glob("*.json"))
    if json.loads(path.read_text(encoding="utf-8"))["kind"] == "trajectory"
]


def count_calls(monkeypatch, modules, name: str, calls: Counter) -> None:
    """Count the calls of ``name`` made through any of ``modules``."""
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("path", TRAJECTORY_SCENARIOS, ids=lambda p: p.stem)
def test_trajectory_run_computes_each_sequence_once(path, monkeypatch):
    scenario = parse_scenario(path)
    calls: Counter = Counter()
    for name in ("utility_sequence", "marginal_gains"):
        count_calls(monkeypatch, (trajectory, runner), name, calls)
    run_experiment(scenario)
    assert calls == {"utility_sequence": 1, "marginal_gains": 1}


def test_trajectory_load_never_reads_the_support(monkeypatch):
    def support(self):
        raise AssertionError("TaskMeasure.support was read")

    monkeypatch.setattr(TaskMeasure, "support", property(support))
    calls: Counter = Counter()
    count_calls(monkeypatch, (trajectory, scenario), "_first_solved_levels", calls)
    chain = [{0}, {0, 2}, {0, 2, 3}]
    loaded = [parse_scenario(path) for path in TRAJECTORY_SCENARIOS]
    loaded.append(scenario_from_dict(explicit_chain_dict(chain, 3, TaskMeasure.uniform(5))))
    for each in loaded:
        run_experiment(each)
    assert calls == {"_first_solved_levels": 1}


def prediction_scenarios():
    yield parse_scenario(SPREAD)
    yield parse_scenario(SCENARIO_DIR / "bernoulli_pair.json")
    for seed in range(20):
        hclass, kernels, loss, pi = random_prediction_scenario(seed)
        payload = PredictionPayload(hypotheses=hclass, kernels=kernels, loss=loss, contexts=pi)
        yield Scenario(
            name=f"random-{seed}",
            kind="prediction",
            seed=seed,
            payload=payload,
            n_max=hclass.max_code_length + 2,
        )


def test_prediction_run_stacks_once_and_mixes_per_distinct_split(monkeypatch):
    for scenario in prediction_scenarios():
        calls: Counter = Counter()
        count_calls(monkeypatch, (prediction,), "_kernel_stack", calls)
        count_calls(monkeypatch, (prediction,), "_mix", calls)
        run_experiment(scenario)
        monkeypatch.undo()
        hclass = scenario.payload.hypotheses
        splits = {truncate(hclass, n).z_n for n in range(scenario.n_max + 1)} - {0.0}
        assert calls["_kernel_stack"] == 1, scenario.name
        assert 1 + len(splits) <= calls["_mix"] <= 1 + 2 * len(splits), scenario.name
        if scenario.name == "spread-prediction":
            # 15 levels, 14 with a head, but only 8 distinct heads to mix.
            assert len(splits) == 8
