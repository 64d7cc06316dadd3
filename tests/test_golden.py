"""Byte-identical outputs for the bundled scenarios.

``tests/golden/`` holds, for every bundled scenario, the stdout of the run
command for its kind, and the file that ``emit`` writes in each format; it
also holds the stdout of ``logic`` on three bare formulas, and the ``predict``
stdout and structured report of ``spread_prediction.scenario.json``: ten
hypotheses with code lengths from 1 to 12 bits, several of them sharing a
length, swept to level 14, so that the tail is non-empty at many levels, some
levels repeat the split of the level before, and the last levels have an
empty tail. It also holds the ``simulate`` stdout and both emitted reports of
``explicit_chain.scenario.json``, an ``explicit_sets`` chain with a zero-weight
task, a task no set names, a level that repeats the set before it and more
sets than ``n_max``; in ``parser_outcomes.jsonl``, what the formula parser
makes of about a thousand texts; and, in ``loader_outcomes.jsonl``, what the
run commands make of about a thousand malformed scenario files. A change that
moves any of these bytes must re-record the file and say why;
``tests/record_loader_outcomes.py`` re-records the loader and parser outcomes
from each row's command and text.
"""

import json
from pathlib import Path

import pytest

from tasklimits.cli import COMMAND_KINDS, main
from record_loader_outcomes import parse_outcome, replay
from support import SCENARIO_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))

COMMAND_FOR_KIND = {kind: command for command, kind in COMMAND_KINDS.items()}


def golden(name: str) -> bytes:
    return (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_run_command_stdout(path, capsys):
    kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
    assert main([COMMAND_FOR_KIND[kind], str(path)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden(f"{path.stem}.stdout.txt")


@pytest.mark.parametrize("format, suffix", [("csv", "csv"), ("structured", "json")])
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_emitted_report(path, format, suffix, tmp_path):
    out = tmp_path / f"report.{suffix}"
    assert main(["emit", str(path), "--format", format, "--out", str(out)]) == 0
    assert out.read_bytes() == golden(f"{path.stem}.{suffix}")


@pytest.mark.parametrize(
    "name, text",
    [
        ("formula_valid", "[]([]p0 -> p0) -> []p0"),
        ("formula_invalid", "[]p0 -> p0"),
        ("formula_box_implication", "p0 -> []p0"),
    ],
)
def test_bare_formula_stdout(name, text, capsys):
    assert main(["logic", text]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden(f"{name}.stdout.txt")


SPREAD = GOLDEN_DIR / "spread_prediction.scenario.json"


def test_spread_prediction_stdout(capsys):
    assert main(["predict", str(SPREAD)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden("spread_prediction.stdout.txt")


def test_spread_prediction_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["emit", str(SPREAD), "--format", "structured", "--out", str(out)]) == 0
    assert out.read_bytes() == golden("spread_prediction.json")


CHAIN = GOLDEN_DIR / "explicit_chain.scenario.json"


def test_explicit_chain_stdout(capsys):
    assert main(["simulate", str(CHAIN)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden("explicit_chain.stdout.txt")


@pytest.mark.parametrize("format, suffix", [("csv", "csv"), ("structured", "json")])
def test_explicit_chain_report(format, suffix, tmp_path):
    out = tmp_path / f"report.{suffix}"
    assert main(["emit", str(CHAIN), "--format", format, "--out", str(out)]) == 0
    assert out.read_bytes() == golden(f"explicit_chain.{suffix}")


def test_parser_outcomes():
    """Each formula text of ``parser_outcomes.jsonl`` keeps its printed form or its error.

    One ``[text, outcome]`` pair per line: hand-picked edge cases (``\\f``, ``\\v``,
    U+00A0 and a non-ASCII digit, none of them formula text; a trailing ``-`` or
    ``[``; a bare ``p``), nesting at and one past the limit of every operator, then
    token strings drawn with a fixed seed, half from the grammar with at most one
    token inserted or deleted and half at random.
    """
    lines = golden("parser_outcomes.jsonl").decode("ascii").splitlines()
    for line in lines:
        text, expected = json.loads(line)
        assert parse_outcome(text) == expected, text
    assert len(lines) > 900


def test_loader_outcomes(tmp_path):
    """Each malformed scenario text of ``loader_outcomes.jsonl`` keeps its exit code and error.

    One ``[command, text, exit code, error line]`` row per line; bytes that are not
    UTF-8 are stored as the lone surrogates of ``surrogateescape``. The texts are
    the bundled scenarios, the explicit chain above, a ``tests/support.py`` chain
    and a two-context prediction, each with one mutation drawn with a fixed seed:
    a field or an item deleted; a value swapped for ``true``, ``"1.0"``, ``null``,
    ``[]`` or ``{}``; a negative, zero, huge, NaN or infinite number; a ragged
    matrix; a value nested in lists, or the file nested past the decoder's limit;
    a byte that is not UTF-8; or a bad formula. Every outcome is exit 0 with no
    error, or exit 2 with one ``error:`` line naming the file; the row keeps that
    line with the temporary path stripped. No line shows numpy's repr of a number.
    """
    path = tmp_path / "scenario.json"
    lines = golden("loader_outcomes.jsonl").decode("ascii").splitlines()
    for line in lines:
        command, text, code, error = json.loads(line)
        assert replay(command, text, path) == (code, error), text
        assert error is None or "np." not in error, error
    assert len(lines) > 900
