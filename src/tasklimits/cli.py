"""Command-line interface.

Subcommands::

    tasklimits simulate <scenario.json>     trajectory dynamics and checks
    tasklimits predict <scenario.json>      prediction bound verification
    tasklimits logic <scenario.json|text>   validity decisions with witnesses
    tasklimits verify <directory>           run every *.json scenario; gate on pass
    tasklimits emit <scenario.json> --format {csv,structured} --out <path>

Flags ``--seed``, ``--n-max``, ``--epsilon`` override scenario fields and are
checked as the fields they replace; ``--tolerance`` sets the additive slack for
inequality checks. A command takes only the flags that act on what it runs.
Exit code 0 iff every check in every scenario passes; unusable input raises a
``TaskLimitsError``, which ``main`` alone prints as one ``error:`` line, exit 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from .errors import FormulaSyntaxError, ScenarioError, TaskLimitsError
from .modal import parse_formula, print_formula
from .prediction import BOUND_SLACK
from .report import FORMATS, Report, VerdictRecord, emit_report
from .runner import run_experiment
from .scenario import LogicPayload, Scenario, parse_scenario

#: The scenario kind each run command accepts; ``verify`` and ``emit`` take any.
COMMAND_KINDS = {"simulate": "trajectory", "predict": "prediction", "logic": "logic"}


def _tolerance(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError("must be a number, not NaN")
    return value


_FLAGS = {
    "--seed": dict(type=int, help="override the scenario seed"),
    "--n-max": dict(type=int, help="override the scenario n_max"),
    "--epsilon": dict(type=float, help="override the scenario epsilon"),
    "--tolerance": dict(
        type=_tolerance, help="additive slack for inequality checks (default 1e-9)"
    ),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Add the override ``flags``; a flag the command does not take reads as no override."""
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])
    parser.set_defaults(seed=None, n_max=None, epsilon=None, tolerance=BOUND_SLACK)


def _load(path: str, args: argparse.Namespace) -> Scenario:
    scenario = parse_scenario(path, seed=args.seed, n_max=args.n_max, epsilon=args.epsilon)
    kind = COMMAND_KINDS.get(args.command)
    if kind is not None and scenario.kind != kind:
        raise ScenarioError(f"{path}: '{args.command}' runs {kind} scenarios, not {scenario.kind}")
    return scenario


def _print_report(report: Report) -> None:
    print(f"scenario: {report.scenario} [{report.kind}]")
    for s in report.steps:
        cells = [f"n={s.n}"]
        if s.utility is not None:
            cells.append(f"utility={s.utility!r}")
        if s.delta is not None:
            cells.append(f"delta={s.delta!r}")
        if s.tau is not None:
            cells.append(f"tau={s.tau!r}")
        if s.passed is not None:
            cells.append("pass" if s.passed else "FAIL")
        print("  " + " ".join(cells))
    for b in report.bounds:
        status = "pass" if b.passed else "FAIL"
        print(f"  {b.name}[n={b.level}]: lhs={b.lhs!r} rhs={b.rhs!r} slack={b.slack!r} {status}")
    for v in report.verdicts:
        print(f"  formula {v.index}: {v.formula}")
        print(f"    verdict: {v.verdict} ({'witness ok' if v.witness_ok else 'WITNESS BAD'})")
        if v.countermodel is not None:
            cm = v.countermodel
            print(f"    worlds: {list(cm.worlds)}")
            print(f"    relation: {[list(p) for p in cm.relation]}")
            print(f"    true atoms: {[[w, list(a)] for w, a in cm.valuation]}")
            print(f"    refuting world: {cm.refuting_world}")
        if v.search_levels is not None:
            swept = ", ".join(
                f"{m} worlds: {frames} frames x {vals} valuations"
                for m, frames, vals in v.search_levels
            )
            print(f"    searched {swept}")
    for note in report.notes:
        print(f"  note: {note}")
    print(f"result: {'PASS' if report.passed else 'FAIL'}")


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_experiment(_load(args.scenario, args), slack_tolerance=args.tolerance)
    _print_report(report)
    return 0 if report.passed else 1


def _print_bare_verdict(v: VerdictRecord) -> None:
    print(f"formula: {v.formula}")
    print(f"verdict: {v.verdict}")
    if v.countermodel is None:
        for m, frames, vals in v.search_levels:
            print(f"  searched {m} worlds: {frames} frames x {vals} valuations")
        return
    cm = v.countermodel
    print(f"  worlds: {list(cm.worlds)}")
    print(f"  relation: {list(cm.relation)}")
    print(f"  true atoms: {[(w, list(a)) for w, a in cm.valuation]}")
    status = "witness ok" if v.witness_ok else "WITNESS BAD"
    print(f"  refuting world: {cm.refuting_world} ({status})")


def _cmd_logic(args: argparse.Namespace) -> int:
    """Decide text that parses as a formula; read any other target as a scenario file."""
    try:
        phi = parse_formula(args.scenario)
    except FormulaSyntaxError as exc:
        if os.path.exists(args.scenario):
            return _cmd_run(args)
        raise ScenarioError(
            f"{args.scenario}: cannot read scenario file: no such file; not a formula either: {exc}"
        ) from exc
    payload = LogicPayload(texts=(print_formula(phi),), formulas=(phi,))
    report = run_experiment(Scenario(name="formula", kind="logic", seed=0, payload=payload))
    _print_bare_verdict(report.verdicts[0])
    return 0 if report.passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise TaskLimitsError(f"{directory} is not a directory")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise TaskLimitsError(f"no *.json scenarios in {directory}")
    all_passed = True
    for path in paths:
        report = run_experiment(_load(str(path), args), slack_tolerance=args.tolerance)
        status = "PASS" if report.passed else "FAIL"
        print(f"{path.name}: {status}")
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def _cmd_emit(args: argparse.Namespace) -> int:
    report = run_experiment(_load(args.scenario, args), slack_tolerance=args.tolerance)
    payload = emit_report(report, args.format)
    out = Path(args.out)
    try:
        out.write_bytes(payload)
    except OSError as exc:
        raise TaskLimitsError(f"cannot write {out}: {exc}") from exc
    print(f"wrote {len(payload)} bytes to {out}")
    return 0 if report.passed else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``tasklimits`` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="tasklimits", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a trajectory scenario")
    p_sim.add_argument("scenario")
    _add_flags(p_sim, "--seed", "--n-max", "--epsilon")
    p_sim.set_defaults(func=_cmd_run)

    p_pred = sub.add_parser("predict", help="run a prediction-bounds scenario")
    p_pred.add_argument("scenario")
    _add_flags(p_pred, "--n-max", "--tolerance")
    p_pred.set_defaults(func=_cmd_run)

    p_logic = sub.add_parser("logic", help="decide formulas from a scenario file or direct text")
    p_logic.add_argument("scenario", metavar="target")
    _add_flags(p_logic)
    p_logic.set_defaults(func=_cmd_logic)

    p_verify = sub.add_parser("verify", help="run every scenario in a directory")
    p_verify.add_argument("directory")
    _add_flags(p_verify, *_FLAGS)
    p_verify.set_defaults(func=_cmd_verify)

    p_emit = sub.add_parser("emit", help="run a scenario and write its report to a file")
    p_emit.add_argument("scenario")
    p_emit.add_argument("--format", choices=FORMATS, required=True)
    p_emit.add_argument("--out", required=True)
    _add_flags(p_emit, *_FLAGS)
    p_emit.set_defaults(func=_cmd_emit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TaskLimitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
