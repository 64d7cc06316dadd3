"""Count which one-site source mutants the report checks catch.

A site is a comparison (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``
swapped), a binary operator (``+`` and ``-``, ``&`` and ``|``, ``<<`` and
``>>`` swapped; ``*`` made ``+``, ``/`` and ``//`` made ``*``), an int literal
0, 1 or 2 (raised by one), or an ``and``/``or`` (swapped). From each file of
``FILES`` the census draws 40 sites with ``random.Random(2026)``, or takes
every site where the file has fewer, and writes each mutant with
``ast.unparse`` into a copy of ``src/``. The unmutated ``ast.unparse`` of each
file is a control, which must run clean.

One subprocess per mutant runs what ``tests/test_golden.py`` pins: the run
command of every bundled scenario and of the two golden scenarios, ``logic``
on the three golden formulas, and ``emit`` of every golden report, and
compares each output with ``tests/golden/``. Each mutant is then booked as

* ``failed a check``: some command exited 1;
* ``raised``: none did, and some command raised, exited 2 or ran past the timeout;
* ``no byte moved``: every command exited 0 with its golden bytes;
* ``survived``: every command exited 0, and some golden byte moved.

Survivors are what ``verify`` lets through on a scenario that has no golden.
Run from the repository root (two workers; a few minutes)::

    python tests/mutation_census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FILES = (
    "trajectory.py",
    "prior.py",
    "prediction.py",
    "runner.py",
    "taskspace.py",
    "modal/decide.py",
    "modal/kripke.py",
)
SITES_PER_FILE = 40
WORKERS = 2
TIMEOUT_S = 60
OUTCOMES = ("failed a check", "raised", "no byte moved", "survived")

SWAPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd,
    ast.LShift: ast.RShift,
    ast.RShift: ast.LShift,
    ast.Mult: ast.Add,
    ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult,
    ast.And: ast.Or,
    ast.Or: ast.And,
}


def sites(tree: ast.AST) -> list[tuple[int, int]]:
    """Each site as (node position in ``ast.walk`` order, operand position or -1)."""
    found = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            found += [(i, k) for k, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            found.append((i, -1))
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1, 2):
            found.append((i, -1))
    return found


def mutate(source: str, site: tuple[int, int]) -> tuple[str, str]:
    """The description of ``site``, and ``source`` with it mutated, written by ``ast.unparse``."""
    tree = ast.parse(source)
    position, operand = site
    node = list(ast.walk(tree))[position]
    before = ast.unparse(node)
    if isinstance(node, ast.Compare):
        node.ops[operand] = SWAPS[type(node.ops[operand])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    line = source.splitlines()[node.lineno - 1].strip()
    return f"line {node.lineno}, `{before}` -> `{ast.unparse(node)}` in `{line}`", ast.unparse(tree)


def commands(out: Path) -> list[tuple[list[str], str, Path | None]]:
    """Each command with the golden file it is compared to and the file it writes, if any."""
    from tasklimits.cli import COMMAND_KINDS

    run_command = {kind: command for command, kind in COMMAND_KINDS.items()}
    scenarios = sorted((ROOT / "scenarios").glob("*.json"))
    for stem in ("spread_prediction", "explicit_chain"):
        scenarios.append(GOLDEN / f"{stem}.scenario.json")
    found = []
    for path in scenarios:
        stem = path.name.split(".")[0]
        kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
        found.append(([run_command[kind], str(path)], f"{stem}.stdout.txt", None))
        for format, suffix in (("csv", "csv"), ("structured", "json")):
            if (GOLDEN / f"{stem}.{suffix}").exists():
                target = out / f"{stem}.{suffix}"
                argv = ["emit", str(path), "--format", format, "--out", str(target)]
                found.append((argv, f"{stem}.{suffix}", target))
    for name, text in (
        ("formula_valid", "[]([]p0 -> p0) -> []p0"),
        ("formula_invalid", "[]p0 -> p0"),
        ("formula_box_implication", "p0 -> []p0"),
    ):
        found.append((["logic", text], f"{name}.stdout.txt", None))
    return found


def probe() -> None:
    """Run every command in this process and print its outcome as one JSON line."""
    from tasklimits.cli import main

    codes, moved = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for argv, golden, written in commands(Path(tmp)):
            stdout = io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    codes.append(main(argv))
            except Exception:
                codes.append("raised")
                continue
            got = written.read_bytes() if written else stdout.getvalue().encode("utf-8")
            if got != (GOLDEN / golden).read_bytes():
                moved.append(golden)
    print(json.dumps({"codes": codes, "moved": moved}))


def outcome(src: Path) -> str:
    """The census outcome of the library copy at ``src``."""
    try:
        done = subprocess.run(
            [sys.executable, __file__, "--probe"],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
        result = json.loads(done.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError):
        return "raised"
    if 1 in result["codes"]:
        return "failed a check"
    if any(code != 0 for code in result["codes"]):
        return "raised"
    return "survived" if result["moved"] else "no byte moved"


def run_mutant(name: str, source: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "tasklimits" / name).write_text(source, encoding="utf-8")
        return outcome(src)


def census() -> None:
    rng = random.Random(2026)
    jobs = []  # (file, description, mutated source)
    for name in FILES:
        source = (ROOT / "src" / "tasklimits" / name).read_text(encoding="utf-8")
        found = sites(ast.parse(source))
        drawn = sorted(rng.sample(found, SITES_PER_FILE)) if len(found) > SITES_PER_FILE else found
        jobs.append((name, "control", ast.unparse(ast.parse(source))))
        jobs += [(name, *mutate(source, site)) for site in drawn]
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(lambda job: run_mutant(job[0], job[2]), jobs))

    table = {name: dict.fromkeys(OUTCOMES, 0) for name in FILES}
    lines = []
    for (name, description, _), result in zip(jobs, results):
        if description == "control":
            if result != "no byte moved":
                lines.append(f"CONTROL {name}: {result}")
            continue
        table[name][result] += 1
        if result in ("survived", "failed a check"):
            lines.append(f"{result}: {name} {description}")
    print("| file | " + " | ".join(OUTCOMES) + " |")
    print("|---" * (len(OUTCOMES) + 1) + "|")
    for name, counts in table.items():
        print(f"| `{name}` | " + " | ".join(str(counts[o]) for o in OUTCOMES) + " |")
    print(f"\n{len(jobs) - len(FILES)} mutants, {len(FILES)} controls")
    print("\n".join(lines))


if __name__ == "__main__":
    probe() if sys.argv[1:] == ["--probe"] else census()
