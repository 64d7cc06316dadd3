"""Experiment reports: typed records, CSV emission, and lossless structured emission.

The CSV schema is fixed: ``n,utility,delta,tau,bound_lhs,bound_rhs,slack,pass``
with one row per step (trajectory level, prediction truncation level, or
formula index) and empty cells where a column does not apply. The
structured format mirrors the full :class:`Report` losslessly, including
every inequality record and every logic witness.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring

from .errors import ValidationError
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


#: A step's cells in ``CSV_COLUMNS`` order; the ``pass`` column is the ``passed`` field.
_CSV_ROW = operator.attrgetter(*CSV_COLUMNS[:-1], "passed")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)  # a numpy float's own repr names its type
    return str(value)


#: The text ``json`` writes for the two infinities; any other non-finite float is NaN.
_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}

#: How ``json`` writes each scalar, by exact type; a subclass is written as its base.
_SCALARS = {
    str: encode_basestring,
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    float: lambda value: (
        float.__repr__(value) if math.isfinite(value) else _NON_FINITE.get(value, "NaN")
    ),
}


@functools.cache
def _layout(record: type, indent: str):
    """A ``%`` template of a ``record`` object written at ``indent``, and its field getter."""
    names = sorted(f.name for f in fields(record))
    inner = indent + "  "
    keys = [inner + encode_basestring(name) + ": %s" for name in names]
    template = "{" + ",".join(keys) + indent + "}" if names else "{}"
    if len(names) > 1:
        return template, operator.attrgetter(*names)
    return template, lambda value: [getattr(value, name) for name in names]


def _text(value, indent: str = "\n") -> str:
    """``value`` as ``json`` writes it with ``sort_keys=True, indent=2, ensure_ascii=False``,
    records as objects and tuples as arrays; ``indent`` is the line break and indent
    before the value's closing bracket."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, (tuple, list)):
        items = [_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if is_dataclass(value):
        template, get = _layout(type(value), indent)
        return template % tuple([_text(item, inner) for item in get(value)])
    for base, write in _SCALARS.items():
        if isinstance(value, base):
            return write(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit_report(report: Report, format: str) -> bytes:
    """Serialize ``report`` as UTF-8 bytes in the requested format."""
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(map(_csv_cell, _CSV_ROW(step))) for step in report.steps]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "structured":
        return (_text(report) + "\n").encode("utf-8")
    raise ValidationError(f"unknown report format {format!r}; expected one of {FORMATS}")

