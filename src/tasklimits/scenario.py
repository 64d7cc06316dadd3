"""Scenario files: JSON ingestion and validation for the experiment runner.

One scenario per file. The common envelope is::

    {"name": str, "kind": "trajectory" | "prediction" | "logic",
     "seed": int, "n_max": int, "epsilon": float, "payload": {...}}

``n_max`` is required for trajectory and prediction scenarios, ``epsilon``
for trajectory scenarios; both may be overridden from the command line.
Payload schemas are documented in the README. All construction-time
invariants (weight sums, Kraft inequality, nestedness, row sums) are
enforced here by building the real domain objects, and the shapes that only
meet at run time (loss width and context count against the kernels, kernel
references, task ids and difficulties against the task weights, the number
of explicit sets against ``n_max``) are cross-checked here too, so a
scenario that parses is a scenario that runs.

An ``explicit_sets`` chain is converted once, to the level at which each
task is first solved, and kept as a :class:`DifficultyThreshold`; a task no
set names gets difficulty ``len(sets) + 1``, past every level that runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

from .errors import (
    ConfigurationError,
    FormulaSyntaxError,
    ScenarioError,
    ShapeError,
    TaskLimitsError,
)
from .modal import ModalFormula, parse_formula
from .prediction import ConditionalKernel, ContextDistribution, LossTable
from .prior import HypothesisClass, HypothesisDescriptor
from .taskspace import TaskMeasure
from .trajectory import DifficultyThreshold, RandomCoverage, SolverRule, _first_solved_levels

KINDS = ("trajectory", "prediction", "logic")

#: Every level adds report records, so ``n_max`` is capped before any work starts.
MAX_LEVELS = 100_000


@dataclass(frozen=True)
class TrajectoryPayload:
    mu: TaskMeasure
    rule: SolverRule


@dataclass(frozen=True)
class PredictionPayload:
    hypotheses: HypothesisClass
    kernels: dict[str, ConditionalKernel]
    loss: LossTable
    contexts: ContextDistribution


@dataclass(frozen=True)
class LogicPayload:
    texts: tuple[str, ...]
    formulas: tuple[ModalFormula, ...]


Payload = Union[TrajectoryPayload, PredictionPayload, LogicPayload]


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    seed: int
    payload: Payload
    n_max: int | None = None
    epsilon: float | None = None


def _require(data: dict, field: str, source: str) -> Any:
    if field not in data:
        raise ScenarioError(f"{source}: missing required field {field!r}")
    return data[field]


def _require_int(data: dict, field: str, source: str, minimum: int | None = None) -> int:
    value = _require(data, field, source)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{source}: field {field!r} must be an integer")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{source}: field {field!r} must be an integer >= {minimum}")
    return value


#: The item types a list field may hold, by the noun its error message uses.
_ITEM_TYPES = {"integers": {int}, "numbers": {int, float}}


def _list_of(noun: str, value: Any, field: str, source: str) -> list:
    # Types, not ``isinstance``: a bool is an int too. It also keeps long id lists cheap.
    if not isinstance(value, list) or not set(map(type, value)) <= _ITEM_TYPES[noun]:
        raise ScenarioError(f"{source}: field {field!r} must be a list of {noun}")
    return value


def _numeric(field: str, build, value: Any, source: str):
    """``build(value)``, with an integer past float range reported against ``field``."""
    try:
        return build(value)
    except OverflowError as exc:
        raise ScenarioError(f"{source}: field {field!r} is past float range: {exc}") from exc


def _explicit_chain(sets: Any, n_max: int, size: int, source: str) -> DifficultyThreshold:
    """The first-solved level of each task of an ``explicit_sets`` chain, as difficulties."""
    if not isinstance(sets, list):
        raise ScenarioError(f"{source}: field 'sets' must be a list of task-id lists")
    if len(sets) < n_max:
        raise ConfigurationError(f"field 'sets' supplies {len(sets)} sets, n_max is {n_max}")
    first = _first_solved_levels(frozenset(_list_of("integers", s, "sets", source)) for s in sets)
    if min(first, default=0) < 0:
        raise ConfigurationError(f"field 'sets' names task {min(first)}, a negative id")
    if max(first, default=-1) >= size:
        raise ShapeError(f"field 'sets' names task {max(first)}, 'task_weights' has {size}")
    never = len(sets) + 1
    return DifficultyThreshold(tuple(first.get(t, never) for t in range(size)))


def _build_rule(rule_data: Any, seed: int, n_max: int, size: int, source: str) -> SolverRule:
    if not isinstance(rule_data, dict):
        raise ScenarioError(f"{source}: 'rule' must be an object")
    kind = _require(rule_data, "kind", source)
    if kind == "difficulty_threshold":
        difficulties = _require(rule_data, "difficulties", source)
        difficulties = _list_of("integers", difficulties, "difficulties", source)
        return DifficultyThreshold(tuple(difficulties))
    if kind == "random_coverage":
        probability = _require(rule_data, "step_probability", source)
        if type(probability) not in (int, float):
            raise ScenarioError(f"{source}: field 'step_probability' must be a number")
        probability = _numeric("step_probability", float, probability, source)
        return RandomCoverage(step_probability=probability, seed=seed)
    if kind == "explicit_sets":
        return _explicit_chain(_require(rule_data, "sets", source), n_max, size, source)
    raise ScenarioError(f"{source}: unknown rule kind {kind!r}")


def _build_trajectory_payload(
    payload: dict, seed: int, n_max: int, source: str
) -> TrajectoryPayload:
    weights = _require(payload, "task_weights", source)
    weights = tuple(_list_of("numbers", weights, "task_weights", source))
    mu = _numeric("task_weights", TaskMeasure, weights, source)
    rule = _build_rule(_require(payload, "rule", source), seed, n_max, mu.size, source)
    # Errors without a source are prefixed with it by ``scenario_from_dict``.
    last_weighted = max(mu.support)
    if isinstance(rule, DifficultyThreshold) and last_weighted >= len(rule.difficulties):
        raise ConfigurationError(
            f"field 'difficulties' covers {len(rule.difficulties)} tasks, but "
            f"'task_weights' gives task {last_weighted} positive weight"
        )
    return TrajectoryPayload(mu=mu, rule=rule)


def _build_prediction_payload(payload: dict, source: str) -> PredictionPayload:
    hyp_data = _require(payload, "hypotheses", source)
    if not isinstance(hyp_data, list) or not all(isinstance(entry, dict) for entry in hyp_data):
        raise ScenarioError(f"{source}: field 'hypotheses' must be a list of objects")
    descriptors = []
    for entry in hyp_data:
        descriptors.append(
            HypothesisDescriptor(
                id=_require_int(entry, "id", source, minimum=0),
                code_length=_require_int(entry, "code_length", source, minimum=0),
                kernel_ref=str(_require(entry, "kernel", source)),
            )
        )
    hclass = HypothesisClass(tuple(descriptors))
    kernel_data = _require(payload, "kernels", source)
    if not isinstance(kernel_data, dict):
        raise ScenarioError(f"{source}: 'kernels' must map names to matrices")
    kernels = {k: _numeric("kernels", ConditionalKernel, v, source) for k, v in kernel_data.items()}
    for h in hclass.hypotheses:
        if h.kernel_ref not in kernels:
            raise ConfigurationError(
                f"field 'kernel' of hypothesis {h.id}: no kernel {h.kernel_ref!r}"
            )
    shapes = sorted({kernel.table.shape for kernel in kernels.values()})
    if len(shapes) > 1:
        raise ShapeError(f"field 'kernels' mixes the shapes {shapes}")
    (rows, outcomes), = shapes
    loss = _numeric("loss", LossTable, _require(payload, "loss", source), source)
    if loss.n_outcomes != outcomes:
        raise ShapeError(
            f"field 'loss' has {loss.n_outcomes} outcomes, the kernels have {outcomes}"
        )
    weights = _require(payload, "context_weights", source)
    contexts = _numeric("context_weights", ContextDistribution, weights, source)
    if contexts.n_contexts != rows:
        raise ShapeError(
            f"field 'context_weights' has {contexts.n_contexts} contexts, the kernels {rows}"
        )
    return PredictionPayload(hypotheses=hclass, kernels=kernels, loss=loss, contexts=contexts)


def _build_logic_payload(payload: dict, source: str) -> LogicPayload:
    texts = _require(payload, "formulas", source)
    if not isinstance(texts, list) or not texts or not all(isinstance(t, str) for t in texts):
        raise ScenarioError(f"{source}: 'formulas' must be a non-empty list of strings")
    formulas = tuple(parse_formula(t) for t in texts)
    return LogicPayload(texts=tuple(texts), formulas=formulas)


def scenario_from_dict(
    data: Any,
    source: str = "<memory>",
    *,
    seed: int | None = None,
    n_max: int | None = None,
    epsilon: float | None = None,
) -> Scenario:
    """Validate scenario data and build all domain objects; overrides win over the file."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: scenario must be a JSON object")
    name = _require(data, "name", source)
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{source}: field 'name' must be a non-empty string")
    try:
        name.encode("utf-8")
    except UnicodeEncodeError as exc:
        # A JSON escape can spell a lone surrogate, which no report could be written with.
        raise ScenarioError(f"{source}: field 'name' is not Unicode text: {exc.reason}") from exc
    kind = _require(data, "kind", source)
    if kind not in KINDS:
        raise ScenarioError(f"{source}: kind must be one of {KINDS}, got {kind!r}")
    if seed is None:
        seed = _require_int(data, "seed", source)
    if n_max is None and "n_max" in data:
        n_max = _require_int(data, "n_max", source, minimum=0)
    if epsilon is None and "epsilon" in data:
        epsilon = data["epsilon"]
        if type(epsilon) not in (int, float):
            raise ScenarioError(f"{source}: field 'epsilon' must be a number")
        epsilon = _numeric("epsilon", float, epsilon, source)
    if n_max is not None and n_max > MAX_LEVELS:
        raise ScenarioError(f"{source}: field 'n_max' is {n_max}, above the limit of {MAX_LEVELS}")
    payload_data = _require(data, "payload", source)
    if not isinstance(payload_data, dict):
        raise ScenarioError(f"{source}: 'payload' must be an object")

    try:
        if kind == "trajectory":
            if n_max is None or n_max < 1:
                raise ScenarioError(f"{source}: trajectory scenarios need n_max >= 1")
            # The counting bound needs ceil(1 / epsilon), so 1 / epsilon must be finite too.
            if epsilon is None or not (0 < epsilon < math.inf and 1.0 / epsilon < math.inf):
                raise ScenarioError(
                    f"{source}: trajectory scenarios need a field 'epsilon' > 0 with "
                    f"epsilon and 1/epsilon finite"
                )
            payload: Payload = _build_trajectory_payload(payload_data, seed, n_max, source)
        elif kind == "prediction":
            if n_max is None or n_max < 0:
                raise ScenarioError(f"{source}: prediction scenarios need n_max >= 0")
            payload = _build_prediction_payload(payload_data, source)
        else:
            payload = _build_logic_payload(payload_data, source)
    except ScenarioError:
        raise
    except FormulaSyntaxError as exc:
        raise ScenarioError(f"{source}: bad formula: {exc}") from exc
    except (TaskLimitsError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{source}: {exc}") from exc

    return Scenario(name=name, kind=kind, seed=seed, payload=payload, n_max=n_max, epsilon=epsilon)


def parse_scenario(
    path: str | Path,
    *,
    seed: int | None = None,
    n_max: int | None = None,
    epsilon: float | None = None,
) -> Scenario:
    """Load and validate one scenario file (UTF-8 JSON)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: scenario file is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # An integer literal past the int conversion limit, or nesting past the recursion limit.
        raise ScenarioError(f"{path}: cannot decode JSON: {exc}") from exc
    return scenario_from_dict(data, source=str(path), seed=seed, n_max=n_max, epsilon=epsilon)
