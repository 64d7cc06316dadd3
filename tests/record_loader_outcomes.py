"""Re-record ``tests/golden/loader_outcomes.jsonl`` and ``parser_outcomes.jsonl``
from the code as it stands.

A loader row is ``[command, text, exit code, error line]``: the command and the
text are kept, and both outcome fields are replaced by what ``cli.main`` makes of
the text now. A parser row is ``[text, outcome]``: the text is kept, and the
outcome is replaced by what ``parse_outcome`` makes of it now. Each moved row is
printed with its old and new outcome. Run from the repository root, then review
the diff and list the moved rows in CHANGES.md::

    PYTHONPATH=src python tests/record_loader_outcomes.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from tasklimits.cli import main
from tasklimits.errors import FormulaSyntaxError, ResourceLimitError
from tasklimits.modal import parse_formula, print_formula

GOLDEN = Path(__file__).resolve().parent / "golden"


def parse_outcome(text: str) -> dict:
    """The printed form of ``text`` parsed, or its error: class, message and any position."""
    try:
        return {"printed": print_formula(parse_formula(text))}
    except (FormulaSyntaxError, ResourceLimitError) as exc:
        outcome = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, FormulaSyntaxError):
            outcome["position"] = exc.position
        return outcome


def replay(command: str, text: str, path: Path) -> tuple[int, str | None]:
    """Exit code and ``error:`` line of ``command`` on ``text``, written to ``path``.

    Bytes that are not UTF-8 travel in ``text`` as ``surrogateescape`` surrogates.
    The path is stripped from the error line. A run that exits 0 must print no
    error, and one that fails must exit 2 with one ``error:`` line naming the file.
    """
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([command, str(path)])
    err = stderr.getvalue()
    prefix = f"error: {path}: "
    if code == 0:
        assert err == "", text
        return 0, None
    assert code == 2 and err.startswith(prefix) and err.count("\n") == 1, (text, err)
    return 2, "error: " + err[len(prefix):-1]


def record(name: str, kept: int, outcome) -> None:
    """Keep the first ``kept`` fields of each row of ``name``, and replace the rest with
    ``outcome(row)``; print each moved row as its kept fields, old outcome and new."""
    path = GOLDEN / name
    rows = [json.loads(line) for line in path.read_text(encoding="ascii").splitlines()]
    moved = 0
    for number, row in enumerate(rows, 1):
        new = outcome(row)
        if new != row[kept:]:
            print(f"{name} line {number}: {row[:kept]!r}: {row[kept:]} -> {new}")
            row[kept:] = new
            moved += 1
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="ascii")
    print(f"{name}: {moved} of {len(rows)} rows moved")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        record("loader_outcomes.jsonl", 2, lambda row: list(replay(row[0], row[1], scenario)))
    record("parser_outcomes.jsonl", 1, lambda row: [parse_outcome(row[0])])
