"""Scenario files: JSON ingestion and validation for the experiment runner.

One scenario per file. The common envelope is::

    {"name": str, "kind": "trajectory" | "prediction" | "logic",
     "seed": int, "n_max": int, "epsilon": float, "payload": {...}}

``n_max`` is required for trajectory and prediction scenarios, ``epsilon``
for trajectory scenarios. A command-line override replaces its field before
validation, so it is checked as the field it replaces. Payload schemas are
documented in the README. Every numeric field (``epsilon``, ``step_probability``,
the weights, ``loss``, the kernels) holds exact JSON numbers, and a matrix
equal-length rows; a hypothesis's ``kernel`` is a string. All construction-time
invariants (weight sums, Kraft inequality, nestedness, row sums) are
enforced here by building the real domain objects, and the shapes that only
meet at run time (loss width and context count against the kernels, kernel
references, task ids and difficulties against the task weights, the number
of explicit sets against ``n_max``) are cross-checked here too, so a
scenario that parses is a scenario that runs. Messages name the field, never
the file: :func:`parse_scenario` alone prefixes its path.

An ``explicit_sets`` chain is converted once, to the level at which each
task is first solved, and kept as a :class:`DifficultyThreshold`; a task no
set names gets difficulty ``len(sets) + 1``, past every level that runs.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

from .errors import FormulaSyntaxError, ResourceLimitError, ScenarioError, TaskLimitsError
from .modal import ModalFormula, check_limits, parse_formula
from .prediction import ConditionalKernel, LossTable
from .prior import HypothesisClass, HypothesisDescriptor
from .taskspace import TaskMeasure
from .trajectory import DifficultyThreshold, RandomCoverage, SolverRule, _first_solved_levels

KINDS = ("trajectory", "prediction", "logic")

#: Every level adds report records, so ``n_max`` is capped before any work starts.
MAX_LEVELS = 100_000
#: A scenario file is read whole, so its size is capped before it is read.
MAX_SCENARIO_BYTES = 64 * 1024 * 1024
#: A prediction run stacks one kernel per hypothesis, so hypotheses x contexts x outcomes is capped.
MAX_STACK_CELLS = 1 << 24


@dataclass(frozen=True)
class TrajectoryPayload:
    mu: TaskMeasure
    rule: SolverRule


@dataclass(frozen=True)
class PredictionPayload:
    hypotheses: HypothesisClass
    kernels: dict[str, ConditionalKernel]
    loss: LossTable
    contexts: TaskMeasure


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


def _require(data: dict, field: str) -> Any:
    if field not in data:
        raise ScenarioError(f"missing required field {field!r}")
    return data[field]


def _require_int(data: dict, field: str, minimum: int | None = None) -> int:
    value = _require(data, field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"field {field!r} must be an integer")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"field {field!r} must be an integer >= {minimum}")
    return value


#: The exact item types a numeric field may hold, by the noun its messages use.
_ITEM_TYPES = {"integers": {int}, "numbers": {int, float}}

#: What a numeric field must be, by its depth: a number, a list, or rows of a matrix.
_SHAPES = ("a number", "a list of {}", "a list of equal-length lists of {}")


def _numeric(field: str, value: Any, depth: int = 0, build=float, noun="numbers", kernel=None):
    """``build(value)`` once ``value`` is ``noun`` nested ``depth`` lists deep.

    Types, not ``isinstance``: a bool is an int too. One flat pass keeps big kernels cheap.
    A message from ``build`` is prefixed with the field and, if given, the ``kernel`` name.
    """
    rows = value if depth == 2 else [value] if depth == 1 else [[value]]
    if (
        type(rows) is not list
        or set(map(type, rows)) - {list}
        or len(set(map(len, rows))) > 1
        or not set(map(type, itertools.chain.from_iterable(rows))) <= _ITEM_TYPES[noun]
    ):
        raise ScenarioError(f"field {field!r} must be {_SHAPES[depth].format(noun)}")
    try:
        return build(value)
    except OverflowError as exc:
        raise ScenarioError(f"field {field!r} is past float range: {exc}") from exc
    except TaskLimitsError as exc:
        name = "" if kernel is None else f", kernel {kernel!r}"
        raise ScenarioError(f"field {field!r}{name}: {exc}") from exc


def _explicit_chain(sets: Any, n_max: int, size: int) -> DifficultyThreshold:
    """The first-solved level of each task of an ``explicit_sets`` chain, as difficulties."""
    if not isinstance(sets, list):
        raise ScenarioError("field 'sets' must be a list of task-id lists")
    if len(sets) < n_max:
        raise ScenarioError(f"field 'sets' supplies {len(sets)} sets, n_max is {n_max}")
    first = _first_solved_levels(_numeric("sets", s, 1, frozenset, "integers") for s in sets)
    if min(first, default=0) < 0:
        raise ScenarioError(f"field 'sets' names task {min(first)}, a negative id")
    if max(first, default=-1) >= size:
        raise ScenarioError(f"field 'sets' names task {max(first)}, 'task_weights' has {size}")
    never = len(sets) + 1
    return DifficultyThreshold(tuple(map(first.get, range(size), itertools.repeat(never))))


def _build_rule(rule_data: Any, seed: int, n_max: int, size: int) -> SolverRule:
    if not isinstance(rule_data, dict):
        raise ScenarioError("'rule' must be an object")
    kind = _require(rule_data, "kind")
    if kind == "difficulty_threshold":
        difficulties = _require(rule_data, "difficulties")
        return DifficultyThreshold(_numeric("difficulties", difficulties, 1, tuple, "integers"))
    if kind == "random_coverage":
        probability = _numeric("step_probability", _require(rule_data, "step_probability"))
        return RandomCoverage(step_probability=probability, seed=seed)
    if kind == "explicit_sets":
        return _explicit_chain(_require(rule_data, "sets"), n_max, size)
    raise ScenarioError(f"unknown rule kind {kind!r}")


def _build_trajectory_payload(payload: dict, seed: int, n_max: int) -> TrajectoryPayload:
    mu = _numeric("task_weights", _require(payload, "task_weights"), 1, TaskMeasure)
    rule = _build_rule(_require(payload, "rule"), seed, n_max, mu.size)
    if isinstance(rule, DifficultyThreshold) and any(past := mu.weights[len(rule.difficulties):]):
        covered = len(rule.difficulties)
        last_weighted = covered + max(t for t, w in enumerate(past) if w > 0.0)
        raise ScenarioError(
            f"field 'difficulties' covers {covered} tasks, but "
            f"'task_weights' gives task {last_weighted} positive weight"
        )
    return TrajectoryPayload(mu=mu, rule=rule)


def _build_prediction_payload(payload: dict) -> PredictionPayload:
    hyp_data = _require(payload, "hypotheses")
    if not isinstance(hyp_data, list) or not all(isinstance(entry, dict) for entry in hyp_data):
        raise ScenarioError("field 'hypotheses' must be a list of objects")
    descriptors = []
    for entry in hyp_data:
        hid = _require_int(entry, "id", minimum=0)
        code_length = _require_int(entry, "code_length", minimum=0)
        kernel_ref = _require(entry, "kernel")
        if type(kernel_ref) is not str:
            raise ScenarioError(f"field 'kernel' of hypothesis {hid} must be a string")
        descriptors.append(HypothesisDescriptor(hid, code_length, kernel_ref))
    hclass = HypothesisClass(tuple(descriptors))
    tables = _require(payload, "kernels")
    if not isinstance(tables, dict):
        raise ScenarioError("'kernels' must map names to matrices")
    kernels = {k: _numeric("kernels", t, 2, ConditionalKernel, kernel=k) for k, t in tables.items()}
    for h in hclass.hypotheses:
        if h.kernel_ref not in kernels:
            raise ScenarioError(
                f"field 'kernel' of hypothesis {h.id}: no kernel {h.kernel_ref!r}"
            )
    shapes = sorted({kernel.table.shape for kernel in kernels.values()})
    if len(shapes) > 1:
        raise ScenarioError(f"field 'kernels' mixes the shapes {shapes}")
    (rows, outcomes), = shapes
    if len(hclass.hypotheses) * rows * outcomes > MAX_STACK_CELLS:
        raise ScenarioError(f"fields 'hypotheses' and 'kernels' stack over {MAX_STACK_CELLS} cells")
    loss = _numeric("loss", _require(payload, "loss"), 2, LossTable)
    if loss.n_outcomes != outcomes:
        raise ScenarioError(
            f"field 'loss' has {loss.n_outcomes} outcomes, the kernels have {outcomes}"
        )
    weights = _require(payload, "context_weights")
    contexts = _numeric("context_weights", weights, 1, TaskMeasure)
    if contexts.size != rows:
        raise ScenarioError(
            f"field 'context_weights' has {contexts.size} contexts, the kernels {rows}"
        )
    return PredictionPayload(hypotheses=hclass, kernels=kernels, loss=loss, contexts=contexts)


def _build_logic_payload(payload: dict) -> LogicPayload:
    texts = _require(payload, "formulas")
    if not isinstance(texts, list) or not texts or not all(isinstance(t, str) for t in texts):
        raise ScenarioError("'formulas' must be a non-empty list of strings")
    formulas = []
    for number, text in enumerate(texts, 1):
        try:
            formulas.append(parse_formula(text))
            check_limits(formulas[-1])
        except (FormulaSyntaxError, ResourceLimitError) as exc:
            raise ScenarioError(f"field 'formulas', formula {number}: {exc}") from exc
    return LogicPayload(texts=tuple(texts), formulas=tuple(formulas))


def scenario_from_dict(data: Any) -> Scenario:
    """Validate scenario data and build all domain objects.

    Messages name the field only; :func:`parse_scenario` adds the file name.
    """
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    name = _require(data, "name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("field 'name' must be a non-empty string")
    try:
        name.encode("utf-8")
    except UnicodeEncodeError as exc:
        # A JSON escape can spell a lone surrogate, which no report could be written with.
        raise ScenarioError(f"field 'name' is not Unicode text: {exc.reason}") from exc
    kind = _require(data, "kind")
    if kind not in KINDS:
        raise ScenarioError(f"kind must be one of {KINDS}, got {kind!r}")
    seed = _require_int(data, "seed")
    n_max = _require_int(data, "n_max", minimum=0) if "n_max" in data else None
    epsilon = _numeric("epsilon", data["epsilon"]) if "epsilon" in data else None
    if n_max is not None and n_max > MAX_LEVELS:
        raise ScenarioError(f"field 'n_max' is {n_max}, above the limit of {MAX_LEVELS}")
    payload_data = _require(data, "payload")
    if not isinstance(payload_data, dict):
        raise ScenarioError("'payload' must be an object")

    try:
        if kind == "trajectory":
            if n_max is None or n_max < 1:
                raise ScenarioError("trajectory scenarios need n_max >= 1")
            # The counting bound needs ceil(1 / epsilon), so 1 / epsilon must be finite too.
            if epsilon is None or not (0 < epsilon < math.inf and 1.0 / epsilon < math.inf):
                raise ScenarioError(
                    "trajectory scenarios need a field 'epsilon' > 0 with "
                    "epsilon and 1/epsilon finite"
                )
            payload: Payload = _build_trajectory_payload(payload_data, seed, n_max)
        elif kind == "prediction":
            if n_max is None:
                raise ScenarioError("prediction scenarios need n_max >= 0")
            payload = _build_prediction_payload(payload_data)
        else:
            payload = _build_logic_payload(payload_data)
    except ScenarioError:
        raise
    except (TaskLimitsError, TypeError, ValueError) as exc:
        raise ScenarioError(str(exc)) from exc

    return Scenario(name=name, kind=kind, seed=seed, payload=payload, n_max=n_max, epsilon=epsilon)


def _read_text(path: Path) -> str:
    """The file's text, decoded as a text-mode read decodes it: UTF-8, universal newlines.

    A file whose size is over ``MAX_SCENARIO_BYTES`` is refused before it is
    read. The size reads 0 for a device or a pipe, and a file can grow, so
    what comes past it is read only up to one byte past the limit. The bytes
    are freed before the caller decodes the JSON.
    """
    with path.open("rb") as file:
        size = os.fstat(file.fileno()).st_size
        if size > MAX_SCENARIO_BYTES:
            raise ScenarioError(f"scenario file is {size} bytes, limit is {MAX_SCENARIO_BYTES}")
        raw = file.read(size + 1)
        if len(raw) > size:
            raw += file.read(MAX_SCENARIO_BYTES + 1 - len(raw))
    if len(raw) > MAX_SCENARIO_BYTES:
        raise ScenarioError(f"scenario file exceeds the limit of {MAX_SCENARIO_BYTES} bytes")
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()


def parse_scenario(
    path: str | Path,
    *,
    seed: int | None = None,
    n_max: int | None = None,
    epsilon: float | None = None,
) -> Scenario:
    """Load and validate one scenario file (UTF-8 JSON).

    An override that is not ``None`` replaces the file's field before validation,
    so it is checked as that field. A file over ``MAX_SCENARIO_BYTES`` is refused,
    before it is read if its size says so: a device or a pipe, whose size reads
    0, is read to one byte past the limit. Every error message starts with the path.
    """
    path = Path(path)
    try:
        try:
            data = json.loads(_read_text(path))
        except ScenarioError:
            raise  # the size limit, kept from the ValueError clause below
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"scenario file is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except (ValueError, RecursionError) as exc:
            # An integer literal past the int conversion limit, or nesting past the recursion limit.
            raise ScenarioError(f"cannot decode JSON: {exc}") from exc
        overrides = {"seed": seed, "n_max": n_max, "epsilon": epsilon}
        if isinstance(data, dict):
            data.update((field, v) for field, v in overrides.items() if v is not None)
        return scenario_from_dict(data)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
