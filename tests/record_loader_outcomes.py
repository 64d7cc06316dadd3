"""Re-record ``tests/golden/loader_outcomes.jsonl`` from the code as it stands.

Each row is ``[command, text, exit code, error line]``. The command and the
text are kept; both outcome fields are replaced by what ``cli.main`` makes of
the text now. Run from the repository root, then review the diff and list the
moved rows in CHANGES.md::

    PYTHONPATH=src python tests/record_loader_outcomes.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from tasklimits.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "loader_outcomes.jsonl"


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


def record() -> None:
    rows = [json.loads(line) for line in GOLDEN.read_text(encoding="ascii").splitlines()]
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        for number, row in enumerate(rows, 1):
            outcome = list(replay(row[0], row[1], path))
            if outcome != row[2:]:
                print(f"line {number}: {row[2:]} -> {outcome}")
                row[2:] = outcome
                moved += 1
    GOLDEN.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="ascii")
    print(f"{moved} of {len(rows)} rows moved")


if __name__ == "__main__":
    record()
