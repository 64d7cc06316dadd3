"""Seeded scenario generators for the four benchmark workloads.

A workload is a fixed list of slots. Each slot fixes the input properties
the program's cost depends on (scenario kind, command, sizes, rule, the
formula class), so a pass costs about the same under every seed. The seed
picks, per slot, one of ``VARIANTS`` content variants; the variant seeds the
slot's own generator. Because every seed draws from the same finite pool,
the outcome digests recorded in ``digests.json`` cover every seed.

The generators use only the standard library and never call the program
under test, so a change to the program cannot change its own inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 8

WORKLOADS = ("coverage", "mixture", "provability", "small_batch")

BUNDLED_DIR = Path(__file__).resolve().parent / "bundled"

@dataclass(frozen=True)
class Item:
    """One scenario of a pass: what to run and what its answer must be."""

    id: str
    variant: int
    command: str  # simulate | predict | logic | logic_text | emit_csv | emit_structured
    text: str  # scenario JSON, or the formula itself for ``logic_text``
    boxes: int = 0  # distinct boxed subformulas (logic, one formula per file)
    expect: str | None = None  # known verdict where the formula was built valid

    @property
    def is_file(self) -> bool:
        return self.command != "logic_text"


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _scenario_text(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


def _probabilities(rng: random.Random, n: int, floor: float = 0.01) -> list[float]:
    """Positive weights summing to 1 within one rounding step (fsum)."""
    raw = [rng.random() + floor for _ in range(n)]
    total = math.fsum(raw)
    weights = [x / total for x in raw]
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    return weights


# --------------------------------------------------------------------------
# trajectories


def _trajectory(
    rng: random.Random, name: str, rule: str, tasks: int, levels: int, position: float
) -> dict:
    """``position`` in [0, 1] fixes the coverage rate, which sets the cost."""
    if rule == "random_coverage_low":
        # Expected coverage after N levels is 1 - exp(-p N): the chain keeps growing.
        rule_data = {"kind": "random_coverage", "step_probability": (0.5 + 1.5 * position) / levels}
    elif rule == "random_coverage_high":
        # Saturates within a few dozen levels; the remaining levels repeat the full set.
        rule_data = {"kind": "random_coverage", "step_probability": 0.1 + 0.2 * position}
    else:
        top = math.ceil(1.2 * levels)  # some tasks are never solved
        first = [rng.randint(1, top) for _ in range(tasks)]
        if rule == "difficulty_threshold":
            rule_data = {"kind": "difficulty_threshold", "difficulties": first}
        else:
            rule_data = {
                "kind": "explicit_sets",
                "sets": [[t for t in range(tasks) if first[t] <= n] for n in range(1, levels + 1)],
            }
    return {
        "name": name,
        "kind": "trajectory",
        "seed": rng.randrange(2**31),
        "n_max": levels,
        "epsilon": rng.choice([0.001, 0.005, 0.01]),
        "payload": {"task_weights": _probabilities(rng, tasks), "rule": rule_data},
    }


TRAJECTORY_RULES = (
    "random_coverage_low",
    "random_coverage_high",
    "difficulty_threshold",
    "explicit_sets",
)

#: (tasks T, levels N) per rule; most slots sit at the small corner so that a
#: pass of 100 scenarios fits the run, and one per rule reaches T*N = 10^6,
#: with many tasks for two rules and many levels for the other two. The 24
#: small high-rate random-coverage slots are the slowest small ones, so the
#: 90th percentile of latency falls inside that one class.
COVERAGE_SIZES = ((1000, 100),) * 24


def _coverage_slots():
    for r, rule in enumerate(TRAJECTORY_RULES):
        sizes = COVERAGE_SIZES + ((10000, 100) if r % 2 else (1000, 1000),)
        for i, (tasks, levels) in enumerate(sizes):
            yield f"{rule}-{i:02d}", rule, tasks, levels, (7 * i % 25) / 24


# --------------------------------------------------------------------------
# prediction


def _prediction(
    rng: random.Random,
    name: str,
    hypotheses: int,
    spread: bool,
    contexts: int,
    outcomes: int,
    actions: int,
    kernel_count: int,
    levels: int,
) -> dict:
    base = max(1, (hypotheses - 1).bit_length())  # H * 2**-base <= 1: Kraft holds
    if spread:
        # Lengths cover base..base+levels, so every level from base to n_max
        # has both a head and a tail: a full decomposition at each of them.
        lengths = [rng.randint(base, base + levels) for _ in range(hypotheses)]
        lengths[0], lengths[-1] = base, base + levels
        n_max = base + levels - 1
    else:
        # Two lengths and n_max past both: the later levels repeat the full mixture.
        lengths = [rng.randint(base, base + 1) for _ in range(hypotheses)]
        n_max = base + 1 + levels
    kernels = {
        f"k{k}": [_probabilities(rng, outcomes, 1e-3) for _ in range(contexts)]
        for k in range(kernel_count)
    }
    return {
        "name": name,
        "kind": "prediction",
        "seed": 0,
        "n_max": n_max,
        "payload": {
            "hypotheses": [
                {"id": h, "code_length": lengths[h], "kernel": f"k{rng.randrange(kernel_count)}"}
                for h in range(hypotheses)
            ],
            "kernels": kernels,
            "loss": [[rng.random() for _ in range(outcomes)] for _ in range(actions)],
            "context_weights": _probabilities(rng, contexts),
        },
    }


#: (hypotheses H, spread lengths, slot count). By cost, the 16 spread H=2048
#: slots are the slowest class and the 20 repeating H=512 slots the middle
#: one, so the 90th and 50th percentiles of latency fall inside one class each.
MIXTURE_CLASSES = (
    (256, True, 14),
    (512, True, 12),
    (1024, True, 8),
    (2048, True, 16),
    (256, False, 22),
    (512, False, 20),
    (1024, False, 6),
    (2048, False, 2),
)


def _mixture_slots():
    for hypotheses, spread, count in MIXTURE_CLASSES:
        for i in range(count):
            contexts, outcomes = 96 + 4 * (i % 3), 9 + (i // 3) % 3
            name = f"{'spread' if spread else 'repeat'}-h{hypotheses}-{i:02d}"
            yield name, hypotheses, spread, contexts, outcomes


# --------------------------------------------------------------------------
# modal formulas, built as tuples: ("p", i), ("~", a), ("[]", a), (op, a, b)


def _text(node) -> str:
    head = node[0]
    if head == "p":
        return f"p{node[1]}"
    if head in ("~", "[]"):
        return head + _text(node[1])
    return f"({_text(node[1])} {head} {_text(node[2])})"


def _nodes(node):
    yield node
    for child in node[1:]:
        if isinstance(child, tuple):
            yield from _nodes(child)


def _boxes(node) -> int:
    return len({n for n in _nodes(node) if n[0] == "[]"})


def _atoms(node) -> set[int]:
    return {n[1] for n in _nodes(node) if n[0] == "p"}


def _size(node) -> int:
    return sum(1 for _ in _nodes(node))


def _random_formula(rng: random.Random, budget: int, atoms: int, box_depth: int):
    """Random formula in the shape of the acceptance suite's GL corpus."""
    if budget <= 1:
        return ("p", rng.randrange(atoms))
    roll = rng.random()
    if roll < 0.25:
        return ("p", rng.randrange(atoms))
    if roll < 0.40:
        return ("~", _random_formula(rng, budget - 1, atoms, box_depth))
    if roll < 0.62 and box_depth > 0:
        return ("[]", _random_formula(rng, budget - 1, atoms, box_depth - 1))
    left_budget = rng.randint(1, budget - 2) if budget > 2 else 1
    left = _random_formula(rng, left_budget, atoms, box_depth)
    right = _random_formula(rng, budget - 1 - left_budget, atoms, box_depth)
    return (rng.choice(("&", "|", "->")), left, right)


def _cheap_formula(rng: random.Random, shallow: bool | None = None):
    """Two atoms, at most three distinct boxes, at most 15 nodes.

    ``shallow`` asks for a formula that a one-world model refutes (True) or
    that none does (False), which decides whether the search stops at once.
    """
    while True:
        phi = _random_formula(rng, 15, 2, 3)
        if _size(phi) <= 15 and _boxes(phi) <= 3:
            if shallow is None or _fails_in_one_world(phi) == shallow:
                return phi


def _fails_in_one_world(phi) -> bool:
    """Whether some valuation falsifies ``phi`` at a world without successors."""

    def holds(node, true_atoms) -> bool:
        head = node[0]
        if head == "p":
            return node[1] in true_atoms
        if head == "~":
            return not holds(node[1], true_atoms)
        if head == "[]":
            return True
        left, right = holds(node[1], true_atoms), holds(node[2], true_atoms)
        return {"&": left and right, "|": left or right, "->": (not left) or right}[head]

    atoms = sorted(_atoms(phi))
    return any(
        not holds(phi, {a for i, a in enumerate(atoms) if mask >> i & 1})
        for mask in range(1 << len(atoms))
    )


def _combine(rng: random.Random, leaves: list):
    leaves = list(leaves)
    rng.shuffle(leaves)
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        leaves[i : i + 2] = [(rng.choice(("&", "|", "->")), leaves[i], leaves[i + 1])]
    return leaves[0]


def _valid_formula(rng: random.Random, atoms: int, schema: str):
    """A GL theorem with exactly four distinct boxes over exactly ``atoms`` atoms.

    Instances of the Loeb, distribution and transitivity schemas are valid
    under every substitution, so the verdict is known without deciding it.
    The schema and the leaf count fix the formula's size; the variant only
    places the atoms and picks the connectives.
    """
    while True:
        inner = {"loeb": 2, "k": 1, "four": 2}[schema]
        boxed = [("[]", ("p", rng.randrange(atoms))) for _ in range(inner)]
        leaves = [("p", a) for a in range(atoms)] + boxed
        if schema == "k":
            cut = rng.randint(1, len(leaves) - 1)
            rng.shuffle(leaves)
            a, b = _combine(rng, leaves[:cut]), _combine(rng, leaves[cut:])
            phi = ("->", ("[]", ("->", a, b)), ("->", ("[]", a), ("[]", b)))
        else:
            a = _combine(rng, leaves)
            if schema == "loeb":
                phi = ("->", ("[]", ("->", ("[]", a), a)), ("[]", a))
            else:
                phi = ("->", ("[]", a), ("[]", ("[]", a)))
        if _boxes(phi) == 4 and _atoms(phi) == set(range(atoms)):
            return phi


def _logic(name: str, formulas: list) -> dict:
    return {
        "name": name,
        "kind": "logic",
        "seed": 0,
        "payload": {"formulas": [_text(f) for f in formulas]},
    }


#: Per 100 slots: cheap two-atom formulas that one world refutes (shallow)
#: or not (deep), then valid four-box formulas with 3 and 4 atoms, then valid
#: four-box 5-atom formulas the seed refuses. The shallow class holds the
#: median of latency and the 3-atom class the 90th percentile, each clear of
#: its class boundaries; the 4- and 5-atom classes hold most of the pass time.
PROVABILITY_CLASSES = (
    ("shallow", 66),
    ("deep", 16),
    ("valid3", 14),
    ("valid4", 2),
    ("refused5", 2),
)


# --------------------------------------------------------------------------
# workloads


def _coverage(variants):
    for (slot, rule, tasks, levels, position), v in zip(_coverage_slots(), variants):
        rng = _rng("coverage", slot, v)
        data = _trajectory(rng, slot, rule, tasks, levels, position)
        yield Item(f"coverage/{slot}", v, "emit_structured", _scenario_text(data))


def _mixture(variants):
    for (slot, hypotheses, spread, contexts, outcomes), v in zip(_mixture_slots(), variants):
        rng = _rng("mixture", slot, v)
        data = _prediction(rng, slot, hypotheses, spread, contexts, outcomes, 6, 32, 10)
        yield Item(f"mixture/{slot}", v, "emit_structured", _scenario_text(data))


SCHEMAS = ("loeb", "k", "four")


def _provability_slots():
    for cls, count in PROVABILITY_CLASSES:
        for i in range(count):
            yield f"{cls}-{i:02d}", cls, SCHEMAS[i % 3]


def _provability(variants):
    for (slot, cls, schema), v in zip(_provability_slots(), variants):
        rng = _rng("provability", slot, v)
        if cls in ("shallow", "deep"):
            phi, expect = _cheap_formula(rng, cls == "shallow"), None
        else:
            phi, expect = _valid_formula(rng, int(cls[-1]), schema), "valid"
        data = _logic(slot, [phi])
        yield Item(
            f"provability/{slot}",
            v,
            "emit_structured",
            _scenario_text(data),
            boxes=_boxes(phi),
            expect=expect,
        )


SMALL_COMMANDS = {
    "trajectory": ("simulate", "emit_csv", "emit_structured"),
    "prediction": ("predict", "emit_csv", "emit_structured"),
    "logic": ("logic", "emit_csv", "emit_structured"),
}


def _small_batch_slots():
    """(slot, family, command, parameters).

    Sizes vary little within a family, so each family's latencies cluster.
    The logic families are cheaper than the rest; they are kept to 60 of
    the 267 slots, so the median falls inside the dense trajectory and
    prediction cluster instead of in the gap below it, where a small shift
    of the share of cheap calls moved the median about three times as much.
    """
    for path in sorted(BUNDLED_DIR.glob("*.json")):
        kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
        for command in SMALL_COMMANDS[kind]:
            yield f"bundled-{path.stem}-{command}", "bundled", command, path
    for i in range(96):
        rule = TRAJECTORY_RULES[i % 4]
        command = SMALL_COMMANDS["trajectory"][i % 3]
        sizes = (rule, 100 + 10 * (i % 5), 20 + i % 5, (7 * i % 25) / 24)
        yield f"trajectory-{rule}-{i:02d}", "trajectory", command, sizes
    for i in range(96):
        command = SMALL_COMMANDS["prediction"][i % 3]
        sizes = (16, i % 2 == 0, 4, 3, 3, 2, 5)
        yield f"prediction-{i:02d}", "prediction", command, sizes
    for i in range(30):
        yield f"logic-{i:02d}", "logic", SMALL_COMMANDS["logic"][i % 3], 1 + i % 4
    for i in range(30):
        yield f"formula-{i:02d}", "formula", "logic_text", None


def _small_batch(variants):
    for (slot, family, command, params), v in zip(_small_batch_slots(), variants):
        rng = _rng("small_batch", slot, v)
        if family == "bundled":
            yield Item(f"small_batch/{slot}", 0, command, params.read_text(encoding="utf-8"))
            continue
        if family == "formula":
            phi = _cheap_formula(rng)
            yield Item(f"small_batch/{slot}", v, command, _text(phi), boxes=_boxes(phi))
            continue
        if family == "trajectory":
            data = _trajectory(rng, slot, *params)
        elif family == "prediction":
            data = _prediction(rng, slot, *params)
        else:
            data = _logic(slot, [_cheap_formula(rng) for _ in range(params)])
        yield Item(f"small_batch/{slot}", v, command, _scenario_text(data))


_GENERATORS = {
    "coverage": (_coverage, lambda: sum(1 for _ in _coverage_slots())),
    "mixture": (_mixture, lambda: sum(1 for _ in _mixture_slots())),
    "provability": (_provability, lambda: sum(1 for _ in _provability_slots())),
    "small_batch": (_small_batch, lambda: sum(1 for _ in _small_batch_slots())),
}


def generate(workload: str, seed: int | None = None, variant: int | None = None) -> list[Item]:
    """The workload's items: variants drawn from ``seed``, or one ``variant`` for every slot."""
    make, slot_count = _GENERATORS[workload]
    count = slot_count()
    if variant is not None:
        variants = [variant] * count
    else:
        rng = _rng(workload, "seed", seed)
        variants = [rng.randrange(VARIANTS) for _ in range(count)]
    # Slots run in one fixed shuffled order, the same for every seed. In slot
    # order each class runs as one block, and a slow stretch of the machine
    # during one block moved that class alone, and with it the percentile
    # that falls between two classes.
    return sorted(make(variants), key=lambda item: hashlib.sha256(item.id.encode()).digest())
