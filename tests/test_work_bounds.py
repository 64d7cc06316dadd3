"""Work and memory bounded by what was loaded: one near-worst-case file per kind and rule.

Each case writes its scenario file in the test, about 1 MB but for the prediction just
under the bound and the logic files, and runs ``tasklimits`` on it in a child process.
Only the child's address space is capped (``RLIMIT_AS``), and the run has a wall-clock
timeout. It must exit 0, or exit 2 with exactly one ``error:`` line, and never print a
traceback; a formula over the node limit must be refused within a second. A
prediction run stacks one kernel per hypothesis, hypotheses x contexts x outcomes
cells, so a file over the load-time bound must be refused.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tasklimits

ADDRESS_SPACE = 512 << 20
TIMEOUT_S = 120

LAUNCHER = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))
sys.path[:0] = [{str(Path(tasklimits.__file__).parents[1])!r}]
from tasklimits.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(command: str, scenario: dict, tmp_path) -> subprocess.CompletedProcess:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario, separators=(",", ":")))
    done = subprocess.run(
        [sys.executable, "-c", LAUNCHER, command, str(path)],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert "Traceback" not in done.stderr, done.stderr[-2000:]
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert (done.returncode, len(errors)) in ((0, 0), (2, 1)), done.stderr[-2000:]
    return done


def prediction(hypotheses: int, code_lengths: range) -> dict:
    """``hypotheses`` naming one 500-context, 20-outcome kernel, code lengths in turn."""
    return {
        "name": "one-kernel-stack",
        "kind": "prediction",
        "seed": 0,
        "n_max": code_lengths.stop,
        "payload": {
            "hypotheses": [
                {"id": i, "code_length": code_lengths[i % len(code_lengths)], "kernel": "k"}
                for i in range(hypotheses)
            ],
            "kernels": {"k": [[0.05] * 20] * 500},
            "loss": [[float(a != y) for y in range(20)] for a in range(20)],
            "context_weights": [0.002] * 500,
        },
    }


def trajectory(tasks: int, n_max: int, kind: str, **rule) -> dict:
    return {
        "name": kind,
        "kind": "trajectory",
        "seed": 0,
        "n_max": n_max,
        "epsilon": 0.1,
        "payload": {"task_weights": [1 / tasks] * tasks, "rule": {"kind": kind, **rule}},
    }


def test_a_stack_over_the_bound_is_refused_at_load_time(tmp_path):
    # 20 000 hypotheses over one kernel: 2e8 cells, a 1.49 GiB float64 stack.
    scenario = prediction(20_000, range(15, 16))
    done = run_capped("predict", scenario, tmp_path)
    assert done.returncode == 2
    assert "'hypotheses' and 'kernels'" in done.stderr
    assert (tmp_path / "scenario.json").stat().st_size > 900_000


def test_the_largest_stack_within_the_bound_is_answered(tmp_path):
    # 1 600 hypotheses over 30 code lengths: 1.6e7 cells, just under the bound of 2**24.
    assert run_capped("predict", prediction(1_600, range(11, 41)), tmp_path).returncode == 0


@pytest.mark.parametrize(
    "scenario",
    [
        # 62 500 tasks spread over the most levels a file may ask for: O(T + N).
        trajectory(
            62_500,
            100_000,
            "difficulty_threshold",
            difficulties=[t * 8 // 5 + 1 for t in range(62_500)],
        ),
        # A nested chain of 700 sets over 700 tasks, 245 350 members: O(sum of set sizes).
        trajectory(700, 700, "explicit_sets", sets=[list(range(n)) for n in range(1, 701)]),
    ],
    ids=["difficulty-threshold", "explicit-sets"],
)
def test_a_linear_trajectory_file_is_answered(scenario, tmp_path):
    assert run_capped("simulate", scenario, tmp_path).returncode == 0
    assert (tmp_path / "scenario.json").stat().st_size > 800_000


def combination(rng: random.Random, atoms: list[int]) -> str:
    """The atoms, each once, joined in a random order by random binary connectives."""
    leaves = [f"p{a}" for a in atoms]
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        leaves[i : i + 2] = [f"({leaves[i]} {rng.choice(('&', '|', '->'))} {leaves[i + 1]})"]
    return leaves[0]


def past_the_valuation_cap(formulas: int) -> dict:
    """Four-box formulas over 5 to 8 atoms, at least 25 valuation bits each, alternately
    valid (two Löb instances) and invalid (a Löb instance and ``[][]B -> []B``)."""
    rng = random.Random(1979)
    texts = []
    for i in range(formulas):
        atoms = rng.sample(range(8), rng.randint(5, 8))
        cut = rng.randint(1, len(atoms) - 1)
        a, b = combination(rng, atoms[:cut]), combination(rng, atoms[cut:])
        second = f"([]([]{b} -> {b}) -> []{b})" if i % 2 == 0 else f"([][]{b} -> []{b})"
        texts.append(f"([]([]{a} -> {a}) -> []{a}) & {second}")
    return {"name": "past-the-cap", "kind": "logic", "seed": 0, "payload": {"formulas": texts}}


def test_formulas_past_the_valuation_cap_are_answered(tmp_path):
    done = run_capped("logic", past_the_valuation_cap(1_800), tmp_path)
    assert done.returncode == 0
    assert done.stdout.count("verdict: valid (witness ok)") == 900
    assert done.stdout.count("verdict: invalid (witness ok)") == 900
    assert (tmp_path / "scenario.json").stat().st_size > 200_000


def chains_to_the_box_cap(formulas: int) -> dict:
    """``[][][](a & ~a) | ~...~(a & ... & f)`` over six atoms, padded with 179 negations to
    198 nodes: three boxes and 24 valuation bits, refuted only at the root of the four-world
    chain with every atom true."""
    rng = random.Random(2023)
    texts = []
    for _ in range(formulas):
        atoms = [f"p{a}" for a in rng.sample(range(8), 6)]
        texts.append(f"[][][]({atoms[0]} & ~{atoms[0]}) | {'~' * 179}({' & '.join(atoms)})")
    return {"name": "box-chains", "kind": "logic", "seed": 0, "payload": {"formulas": texts}}


def test_formulas_refuted_only_at_the_root_of_a_chain_are_answered(tmp_path):
    done = run_capped("logic", chains_to_the_box_cap(1_100), tmp_path)
    assert done.returncode == 0
    assert done.stdout.count("verdict: invalid (witness ok)") == 1_100
    assert (tmp_path / "scenario.json").stat().st_size > 240_000


def balanced_conjunction(height: int) -> dict:
    """One ``&`` tree of ``2 ** (height + 1) - 1`` nodes, every leaf ``p0``: each level is
    the one below it, ``&`` and the one below it again in parentheses."""
    text = "p0"
    for _ in range(height):
        text = f"{text} & ({text})"
    return {"name": "balanced-and", "kind": "logic", "seed": 0, "payload": {"formulas": [text]}}


def test_a_formula_over_the_node_limit_is_refused_before_the_rest_is_read(tmp_path):
    start = time.perf_counter()
    done = run_capped("logic", balanced_conjunction(18), tmp_path)
    assert time.perf_counter() - start < 1.0
    assert done.returncode == 2
    assert "formula 1: formula has more than 200 nodes (position 697)" in done.stderr
    assert (tmp_path / "scenario.json").stat().st_size > 1_800_000
