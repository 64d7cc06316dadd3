"""Report emission: CSV schema golden test, the structured writer against
``json.dumps``, and structured emission that ``json`` reads back to every field."""

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tasklimits.errors import ValidationError
from tasklimits.prediction import BoundRecord
from tasklimits.report import (
    CSV_COLUMNS,
    CountermodelRecord,
    Report,
    StepRecord,
    VerdictRecord,
    emit_report,
)
from tasklimits.runner import run_experiment
from tasklimits.scenario import parse_scenario
from support import SCENARIO_DIR, plain_form, reference_structured

GOLDEN_SCENARIOS = sorted((Path(__file__).resolve().parent / "golden").glob("*.scenario.json"))


class TestCsv:
    def test_header_only_for_empty_steps(self):
        report = Report(scenario="empty", kind="trajectory", passed=True)
        assert emit_report(report, "csv") == b"n,utility,delta,tau,bound_lhs,bound_rhs,slack,pass\n"

    def test_column_schema_is_pinned(self):
        assert CSV_COLUMNS == ("n", "utility", "delta", "tau", "bound_lhs", "bound_rhs", "slack", "pass")

    def test_trajectory_rows_put_delta_on_the_leading_level(self):
        scenario = parse_scenario(SCENARIO_DIR / "uniform_threshold.json")
        payload = emit_report(run_experiment(scenario), "csv").decode("utf-8")
        expected = (
            "n,utility,delta,tau,bound_lhs,bound_rhs,slack,pass\n"
            "1,0.2,0.2,,,,,\n"
            "2,0.4,0.2,,,,,\n"
            "3,0.6000000000000001,0.2,,,,,\n"
            "4,0.8,0.2,,,,,\n"
            "5,1.0,,,,,,\n"
        )
        assert payload == expected

    def test_five_step_trajectory_has_five_data_rows(self):
        scenario = parse_scenario(SCENARIO_DIR / "uniform_threshold.json")
        lines = emit_report(run_experiment(scenario), "csv").decode().strip().split("\n")
        assert len(lines) == 6  # header + 5 rows
        # Last row's delta cell is empty.
        assert lines[-1].split(",")[2] == ""

    def test_booleans_render_lowercase(self):
        report = Report(
            scenario="b",
            kind="prediction",
            passed=True,
            steps=(StepRecord(n=0, passed=True), StepRecord(n=1, passed=False)),
        )
        lines = emit_report(report, "csv").decode().strip().split("\n")
        assert lines[1].endswith("true")
        assert lines[2].endswith("false")

    def test_numpy_float_cell_is_written_as_a_float(self):
        report = Report(
            scenario="np",
            kind="prediction",
            passed=True,
            steps=(StepRecord(n=1, utility=np.float64(0.1), tau=np.float64(-math.inf)),),
        )
        lines = emit_report(report, "csv").decode().split("\n")
        assert lines[1] == "1,0.1,,-inf,,,,"

    def test_unknown_format_rejected(self):
        report = Report(scenario="x", kind="logic", passed=True)
        message = "^unknown report format 'yaml'; expected one of "
        with pytest.raises(ValidationError, match=message):
            emit_report(report, "yaml")


class TestStructuredRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "uniform_threshold.json",
            "geometric_difficulty.json",
            "random_coverage.json",
            "bernoulli_pair.json",
            "logic_basics.json",
        ],
    )
    def test_bundled_scenarios_round_trip_losslessly(self, name):
        report = run_experiment(parse_scenario(SCENARIO_DIR / name))
        payload = emit_report(report, "structured")
        assert json.loads(payload) == plain_form(report)

    def test_emission_is_deterministic(self):
        scenario = parse_scenario(SCENARIO_DIR / "bernoulli_pair.json")
        first = emit_report(run_experiment(scenario), "structured")
        second = emit_report(run_experiment(scenario), "structured")
        assert first == second


@dataclass(frozen=True)
class EmptyRecord:
    pass


FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310]
)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | FLOATS
    | st.text()
    | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f\n\t", "é ∀ \u2028 😀"])
)


def record(cls, **drawn):
    """``cls`` with the fields named in ``drawn`` from those strategies, the rest scalars."""
    return st.builds(cls, **{f.name: drawn.get(f.name, SCALARS) for f in fields(cls)})


def tuples(elements, max_size=3):
    return st.lists(elements, max_size=max_size).map(tuple)


#: Records with fields, drawn again inside ``NESTED`` and ``notes``, so each one is
#: also written one or more levels deeper than where a report keeps it.
INNER_RECORDS = record(StepRecord) | record(CountermodelRecord)

NESTED = (
    tuples(SCALARS | INNER_RECORDS) | tuples(tuples(SCALARS)) | st.lists(SCALARS, max_size=3)
)

REPORTS = record(
    Report,
    steps=tuples(record(StepRecord)),
    bounds=tuples(record(BoundRecord)),
    verdicts=tuples(
        record(
            VerdictRecord,
            countermodel=st.none() | record(CountermodelRecord, relation=NESTED, valuation=NESTED),
            search_levels=NESTED,
        )
    ),
    notes=tuples(SCALARS | NESTED | INNER_RECORDS | st.builds(EmptyRecord)),
)


class TestStructuredWriter:
    """``emit_report`` against ``json.dumps`` of the report's plain form, byte for byte."""

    @pytest.mark.parametrize(
        "path",
        sorted(SCENARIO_DIR.glob("*.json")) + GOLDEN_SCENARIOS,
        ids=lambda p: p.stem,
    )
    def test_scenario_reports_match_json(self, path):
        report = run_experiment(parse_scenario(path))
        assert emit_report(report, "structured") == reference_structured(report)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(REPORTS)
    def test_generated_reports_match_json(self, report):
        assert emit_report(report, "structured") == reference_structured(report)

    def test_numpy_float_is_written_as_a_float(self):
        report = Report(
            scenario="np",
            kind="prediction",
            passed=True,
            steps=(StepRecord(n=1, utility=np.float64(0.1), tau=np.float64(-math.inf)),),
        )
        payload = emit_report(report, "structured")
        assert payload == reference_structured(report)
        assert b'"utility": 0.1\n' in payload

    def test_empty_arrays_and_records(self):
        report = Report(scenario="e", kind="logic", passed=False, notes=(EmptyRecord(), (), []))
        assert emit_report(report, "structured") == reference_structured(report)
        assert b'"notes": [\n    {},\n    [],\n    []\n  ],' in emit_report(report, "structured")

    def test_unknown_values_are_rejected(self):
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            emit_report(Report(scenario="s", kind="logic", passed=True, notes=({1},)), "structured")
