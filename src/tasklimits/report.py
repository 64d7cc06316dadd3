"""Experiment reports: typed records, CSV emission, and lossless JSON round-trip.

The CSV schema is fixed: ``n,utility,delta,tau,bound_lhs,bound_rhs,slack,pass``
with one row per step (trajectory level, prediction truncation level, or
formula index) and empty cells where a column does not apply. The
structured format mirrors the full :class:`Report` losslessly, including
every inequality record and every logic witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, is_dataclass

from .errors import ConfigurationError
from .prediction import BoundRecord

CSV_COLUMNS = ("n", "utility", "delta", "tau", "bound_lhs", "bound_rhs", "slack", "pass")

FORMATS = ("csv", "structured")


@dataclass(frozen=True)
class StepRecord:
    """One CSV row; unset fields render as empty cells."""

    n: int
    utility: float | None = None
    delta: float | None = None
    tau: float | None = None
    bound_lhs: float | None = None
    bound_rhs: float | None = None
    slack: float | None = None
    passed: bool | None = None


@dataclass(frozen=True)
class CountermodelRecord:
    """Serialized refuting model: worlds, relation pairs, true atoms per world."""

    worlds: tuple[int, ...]
    relation: tuple[tuple[int, int], ...]
    valuation: tuple[tuple[int, tuple[int, ...]], ...]
    refuting_world: int


@dataclass(frozen=True)
class VerdictRecord:
    """Decision outcome for one formula, with its re-checked witness."""

    index: int
    formula: str
    verdict: str
    witness_ok: bool
    countermodel: CountermodelRecord | None = None
    search_levels: tuple[tuple[int, int, int], ...] | None = None


@dataclass(frozen=True)
class Report:
    scenario: str
    kind: str
    passed: bool
    steps: tuple[StepRecord, ...] = ()
    bounds: tuple[BoundRecord, ...] = ()
    verdicts: tuple[VerdictRecord, ...] = ()
    notes: tuple[str, ...] = ()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


#: The record type held by each field that holds records, to rebuild them from JSON.
_RECORD_FIELDS = {
    "steps": StepRecord,
    "bounds": BoundRecord,
    "verdicts": VerdictRecord,
    "countermodel": CountermodelRecord,
}


def _to_json(value):
    """Records become objects of their fields and tuples become lists; the rest stays."""
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    if is_dataclass(value):
        return {name: _to_json(item) for name, item in vars(value).items()}
    return value


def _from_json(value, record=None):
    """Invert :func:`_to_json`: lists become tuples and objects become ``record``."""
    if isinstance(value, list):
        return tuple(_from_json(item, record) for item in value)
    if isinstance(value, dict):
        return record(
            **{name: _from_json(item, _RECORD_FIELDS.get(name)) for name, item in value.items()}
        )
    return value


def emit_report(report: Report, format: str) -> bytes:
    """Serialize ``report`` as UTF-8 bytes in the requested format."""
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for s in report.steps:
            lines.append(
                ",".join(
                    _csv_cell(v)
                    for v in (
                        s.n,
                        s.utility,
                        s.delta,
                        s.tau,
                        s.bound_lhs,
                        s.bound_rhs,
                        s.slack,
                        s.passed,
                    )
                )
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "structured":
        text = json.dumps(_to_json(report), sort_keys=True, indent=2, ensure_ascii=False)
        return (text + "\n").encode("utf-8")
    raise ConfigurationError(f"unknown report format {format!r}; expected one of {FORMATS}")


def report_from_json(data: bytes | str) -> Report:
    """Rebuild a :class:`Report` from its structured emission (lossless)."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return _from_json(json.loads(data), Report)
