"""Experiment reports: typed records, CSV emission, and lossless JSON round-trip.

The CSV schema is fixed: ``n,utility,delta,tau,bound_lhs,bound_rhs,slack,pass``
with one row per step (trajectory level, prediction truncation level, or
formula index) and empty cells where a column does not apply. The
structured format mirrors the full :class:`Report` losslessly, including
every inequality record and every logic witness.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring

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


def _from_json(value, record=None):
    """Invert the structured writer: lists become tuples and objects become ``record``."""
    if isinstance(value, list):
        return tuple(_from_json(item, record) for item in value)
    if isinstance(value, dict):
        return record(
            **{name: _from_json(item, _RECORD_FIELDS.get(name)) for name, item in value.items()}
        )
    return value


#: The text ``json`` writes for the two infinities; any other non-finite float is NaN.
_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


@functools.cache
def _record_fields(record: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The field names of a record type in sorted order, and each one's written key."""
    names = tuple(sorted(f.name for f in fields(record)))
    return names, tuple(encode_basestring(name) + ": " for name in names)


def _write(value, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as ``json`` writes it with ``sort_keys=True, indent=2,
    ensure_ascii=False``, records as objects and tuples as arrays; ``newline`` is
    the line break and indent before the value's closing bracket."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float.__repr__(value) if math.isfinite(value) else _NON_FINITE.get(value, "NaN"))
    else:
        if isinstance(value, (tuple, list)):
            brackets, keys, items = "[]", ("",) * len(value), value
        elif is_dataclass(value):
            names, keys = _record_fields(type(value))
            brackets, items = "{}", [getattr(value, name) for name in names]
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        inner = newline + "  "
        separator = brackets[0] + inner
        for key, item in zip(keys, items):
            out.append(separator + key)
            separator = "," + inner
            _write(item, inner, out)
        out.append(newline + brackets[1] if items else brackets)


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
        out: list[str] = []
        _write(report, "\n", out)
        return ("".join(out) + "\n").encode("utf-8")
    raise ConfigurationError(f"unknown report format {format!r}; expected one of {FORMATS}")


def report_from_json(data: bytes | str) -> Report:
    """Rebuild a :class:`Report` from its structured emission (lossless)."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return _from_json(json.loads(data), Report)
