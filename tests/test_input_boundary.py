"""Property tests at the input boundary.

Any JSON value either raises ``ScenarioError`` from ``scenario_from_dict`` or
gives a scenario that runs to a report; any file, as raw bytes, either raises
``ScenarioError`` from ``parse_scenario`` or loads; any formula text either
parses or raises ``FormulaSyntaxError`` or ``ResourceLimitError``. Nothing
else escapes.
Values are drawn small: integers stay in -3..40, so no size field asks for
real work, except for one integer past float range.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from tasklimits.errors import FormulaSyntaxError, ResourceLimitError, ScenarioError  # noqa: E402
from tasklimits.modal import parse_formula  # noqa: E402
from tasklimits.runner import run_experiment  # noqa: E402
from tasklimits.scenario import parse_scenario, scenario_from_dict  # noqa: E402
from support import SCENARIO_DIR  # noqa: E402

SETTINGS = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.just(10**400)
    | st.floats()
    | st.text(alphabet="p01[]~&|->() kx", max_size=8)
)

JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

#: The bundled scenarios, plus the shapes no bundled one has: explicit sets and
#: a prediction over two contexts.
BASES = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(SCENARIO_DIR.glob("*.json"))]
BASES.append(
    {
        "name": "explicit",
        "kind": "trajectory",
        "seed": 3,
        "n_max": 3,
        "epsilon": 0.1,
        "payload": {
            "task_weights": [0.5, 0.25, 0.25],
            "rule": {"kind": "explicit_sets", "sets": [[0], [0, 2], [0, 1, 2]]},
        },
    }
)
BASES.append(
    {
        "name": "two-contexts",
        "kind": "prediction",
        "seed": 0,
        "n_max": 4,
        "payload": {
            "hypotheses": [
                {"id": 0, "code_length": 1, "kernel": "a"},
                {"id": 1, "code_length": 2, "kernel": "b"},
                {"id": 2, "code_length": 3, "kernel": "a"},
            ],
            "kernels": {"a": [[0.2, 0.8], [0.6, 0.4]], "b": [[0.7, 0.3], [0.1, 0.9]]},
            "loss": [[0.0, 1.0], [1.0, 0.0], [0.3, 0.3]],
            "context_weights": [0.4, 0.6],
        },
    }
)


def _slots(value, found):
    """Every (container, key) pair below ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return found
    for key, child in items:
        found.append((value, key))
        _slots(child, found)
    return found


@st.composite
def mutated_scenarios(draw):
    """A base scenario with one to three values replaced by JSON values, or deleted."""
    data = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(_slots(data, [])))
        if draw(st.booleans()) and isinstance(container, dict):
            del container[key]
        else:
            container[key] = draw(JSON_VALUES)
    return data


@SETTINGS
@given(st.one_of(JSON_VALUES, mutated_scenarios()))
def test_scenario_is_rejected_or_runs(data):
    try:
        scenario = scenario_from_dict(data)
    except ScenarioError:
        return
    run_experiment(scenario)


FILES = [p.read_bytes() for p in sorted(SCENARIO_DIR.glob("*.json"))]


@st.composite
def spliced_files(draw):
    """A bundled file with one slice replaced by raw bytes."""
    data = draw(st.sampled_from(FILES))
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 8)))
    return data[:start] + draw(st.binary(max_size=8)) + data[end:]


@SETTINGS
@given(st.binary() | spliced_files())
def test_file_bytes_are_rejected_or_run(content):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "s.json"
        path.write_bytes(content)
        try:
            scenario = parse_scenario(path)
        except ScenarioError as exc:
            # The loader adds the path once, whichever layer refused the file.
            message = str(exc)
            assert message.startswith(f"{path}: ") and message.count(f"{path}: ") == 1
            return
    run_experiment(scenario)


@SETTINGS
@given(st.text(alphabet="p012[]~&|->() ", max_size=40))
def test_formula_text_parses_or_is_rejected(text):
    try:
        parse_formula(text)
    except (FormulaSyntaxError, ResourceLimitError):
        pass
