"""The tasklimits benchmark: one seeded workload, timed end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 40 --trace 0

The workload's scenario files are generated from the seed into a scratch
directory under ``.bench_build/`` before any timing. Each pass runs every
scenario through ``tasklimits.cli.main`` in a fresh single-threaded Python
process (``worker.py``), so lazy caches start cold, as for a CLI user.
Passes repeat until ``--seconds`` is used up.

With ``--trace 0`` the passes are untraced and the end-to-end metrics are
reported. With ``--trace 1`` one untraced pass is followed by traced passes
and the per-layer metrics are reported, including the tracing overhead.
Every run checks every outcome; the last line of stdout is one JSON object
and the exit status is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Item, generate

HERE = Path(__file__).resolve().parent

DIGESTS = HERE / "digests.json"
#: Fresh processes that time ``import tasklimits.cli``; ``setup_s`` is their median.
SETUP_PROBES = 11
MIN_TRACED_PASSES = 2
#: A run must end within this many seconds; workers are killed past it.
RUN_LIMIT_S = 170.0

#: Predicted dominant layer(s) per workload, checked against the traced run.
PREDICTED = {
    "coverage": ("trajectory",),
    "mixture": ("prediction", "prior"),
    "provability": ("modal",),
    "small_batch": ("scenario", "runner", "report", "cli"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "answered_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a worker that died)."""


def input_digest(item: Item) -> str:
    return hashlib.sha256(f"{item.command}\0{item.text}".encode("utf-8")).hexdigest()[:16]


def write_inputs(items: list[Item], work: Path) -> list[dict]:
    """Write scenario files; return the manifest of ``cli.main`` argument lists."""
    manifest = []
    for n, item in enumerate(items):
        entry = {"id": item.id, "out": None}
        if item.is_file:
            path = work / f"s{n:03d}.json"
            path.write_text(item.text, encoding="utf-8")
            name = str(path)
        if item.command == "logic_text":
            entry["argv"] = ["logic", item.text]
        elif item.command.startswith("emit_"):
            entry["out"] = str(work / f"r{n:03d}.out")
            fmt = item.command[len("emit_"):]
            entry["argv"] = ["emit", name, "--format", fmt, "--out", entry["out"]]
        else:
            entry["argv"] = [item.command, name]
        manifest.append(entry)
    return manifest


#: Workers are single-threaded. With the library default, OpenBLAS starts one
#: thread per CPU; on a 2-CPU machine the second one doubled the CPU time of
#: a mixture pass, made it slower and tied its time to the other CPU's load.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env(root: Path) -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_pass(root: Path, work: Path, deadline: float, spans: Path | None = None) -> dict:
    """One fresh-process pass over the manifest; returns the worker's summary."""
    result = work / "result.json"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), str(work / "manifest.json"), str(result)]
    if spans is not None:
        argv.append(str(spans))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached before the pass started")
    try:
        done = subprocess.run(
            argv, cwd=root, env=worker_env(root), capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within the run limit of {RUN_LIMIT_S} s") from exc
    if done.returncode != 0 or not result.exists():
        raise BenchError(f"worker exited with {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def setup_probe(root: Path, deadline: float) -> float:
    """Fresh-process wall time of ``import tasklimits.cli``."""
    code = (
        "import time; t = time.perf_counter(); import tasklimits.cli; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env=worker_env(root),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise BenchError(f"cannot import tasklimits.cli: {done.stderr.strip()[-2000:]}")
    return float(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# correctness


class Checker:
    """Checks every outcome against the recorded digests and the known answers."""

    def __init__(self, items: list[Item], manifest: list[dict], recorded: dict[str, str]):
        self.items = items
        self.manifest = manifest
        self.recorded = recorded
        self.failures: list[str] = []
        self.first_digests: list[str] | None = None
        self.oracle_cache: dict[str, bool] = {}

    def fail(self, item: Item, why: str) -> None:
        self.failures.append(f"{item.id} (variant {item.variant}): {why}")

    def check_pass(self, summary: dict) -> tuple[int, int]:
        """Check one pass; returns (answered, refused)."""
        results = summary["results"]
        digests = [r["digest"] for r in results]
        if self.first_digests is None:
            self.first_digests = digests
        answered = refused = 0
        for n, (item, result) in enumerate(zip(self.items, results)):
            if digests[n] != self.first_digests[n]:
                self.fail(item, "outcome differs between two passes over the same input")
                continue
            verdict = self.check_item(item, result, self.manifest[n])
            if verdict == "answered":
                answered += 1
            elif verdict == "refused":
                refused += 1
        return answered, refused

    def check_item(self, item: Item, result: dict, entry: dict) -> str:
        key = f"{item.id}/{item.variant}"
        entry_text = self.recorded.get(key)
        if entry_text is None:
            self.fail(item, "no outcome digest recorded for this input")
            return "failed"
        recorded_input, recorded_output, *flags = entry_text.split(":")
        if recorded_input != input_digest(item):
            self.fail(item, "input differs from the one whose outcome was recorded")
            return "failed"
        if result["digest"] == recorded_output:
            return "refused" if "refused" in flags else self.answered(item, result, entry)
        if "refused" in flags and result["status"] == 0 and item.expect is not None:
            # Recorded as refused by a resource limit; an answer is accepted
            # when it is the known verdict.
            return self.answered(item, result, entry)
        self.fail(item, f"outcome digest differs from the recorded one (status {result['status']})")
        return "failed"

    def answered(self, item: Item, result: dict, entry: dict) -> str:
        if result["status"] != 0:
            self.fail(item, f"exit status {result['status']}: {result['stderr'].strip()}")
            return "failed"
        if item.id.startswith("provability/"):
            report = json.loads(Path(entry["out"]).read_text(encoding="utf-8"))
            verdict = report["verdicts"][0]["verdict"]
            expect = item.expect or self.oracle(report["verdicts"][0]["formula"], item.boxes)
            if verdict != expect:
                self.fail(item, f"verdict {verdict}, expected {expect}")
                return "failed"
        return "answered"

    def oracle(self, text: str, boxes: int) -> str | None:
        """Independent verdict for formulas with at most three boxes."""
        if boxes > 3:
            return None
        if text not in self.oracle_cache:
            from support import frame_validity_oracle
            from tasklimits.modal import parse_formula

            self.oracle_cache[text] = frame_validity_oracle(parse_formula(text), boxes + 1)
        return "valid" if self.oracle_cache[text] else "invalid"


# --------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict], imports: list[float], answered: int, attempted: int):
    """End-to-end metrics and, per metric, its sample count."""
    latencies = [r["latency_s"] for p in passes for r in p["results"]]
    return {
        "setup_s": statistics.median(imports),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p90_ms": 1000.0 * percentile(latencies, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "answered_frac": answered / attempted,
    }, {
        "setup_s": f"{len(imports)} fresh imports",
        "wall_s": f"{len(passes)} passes",
        "latency_p50_ms": f"{len(latencies)} scenario calls",
        "latency_p90_ms": f"{len(latencies)} scenario calls",
        "peak_rss_mb": f"{len(passes)} passes",
        "answered_frac": f"{attempted} scenario calls",
    }


def per_layer(workload: str, untraced: dict, traced: list[dict]):
    """Per-layer metrics, their units, notes to print, and self-check failures."""
    from tracing import SELF_TIMES

    problems = []
    counts = traced[0]["counts"]
    for other in traced[1:]:
        if other["counts"] != counts:
            problems.append(f"counts differ between two traced passes: {counts} vs {other['counts']}")
    metrics = {
        metric: statistics.median(p["self_times"].get(span, 0.0) for p in traced)
        for metric, span in SELF_TIMES.items()
    }
    units = {metric: "s" for metric in metrics}
    exact = {
        "scenario.rejected": counts["scenario.rejected"],
        "trajectory.set_members": counts["trajectory.set_members"],
        "prior.truncate_calls": counts["prior.truncate_calls"],
        "prediction.mixture_builds": counts["prediction.mixture_builds"],
        "prediction.risk_calls": counts["prediction.risk_calls"],
        "modal.frames_checked": counts["modal.frames_checked"],
        "modal.valuations_swept": counts["modal.valuations_swept"],
        "modal.refused": counts["modal.refused"],
        "report.bytes": counts["report.bytes"],
    }
    metrics.update(exact)
    units.update({k: "count" for k in exact})
    units["report.bytes"] = "bytes"
    members = counts["trajectory.set_members"]
    levels = counts["prediction.levels_swept"]
    metrics["trajectory.novel_share"] = counts["trajectory.ever_solved"] / members if members else 0.0
    metrics["prediction.distinct_share"] = (
        counts["prediction.distinct_levels"] / levels if levels else 0.0
    )
    units["trajectory.novel_share"] = units["prediction.distinct_share"] = "ratio"

    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    units["trace.overhead_s"] = "s"
    shares: dict[str, float] = {}
    for span in SELF_TIMES.values():
        layer = span.split(".")[0]
        share = statistics.median(p["self_times"].get(span, 0.0) for p in traced) / traced_wall
        shares[layer] = shares.get(layer, 0.0) + share
    predicted = PREDICTED[workload]
    predicted_share = sum(shares[layer] for layer in predicted)
    metrics["trace.predicted_share"] = predicted_share
    units["trace.predicted_share"] = "ratio"
    others = {k: v for k, v in shares.items() if k not in predicted}
    top_other = max(others, key=others.get)
    # Above one half of the traced wall time, no other layer can be larger.
    confirmed = predicted_share > 0.5
    notes = [
        "layer shares of traced wall_s: "
        + ", ".join(f"{k}={v:.4f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
        f"predicted dominant layer(s) {'+'.join(predicted)}: share {predicted_share:.4f} "
        f"(largest other: {top_other} {others[top_other]:.4f}) -> "
        + ("confirmed" if confirmed else "refuted"),
        f"tracing overhead: traced wall_s {traced_wall:.4f} s - untraced wall_s "
        f"{untraced['wall_s']:.4f} s = {metrics['trace.overhead_s']:.4f} s",
    ]
    missing = sorted({m for p in traced for m in p.get("missing_sites", [])})
    if missing:
        notes.append("sites not found, left untraced: " + ", ".join(missing))
    return metrics, units, notes, problems


# --------------------------------------------------------------------------


def check_checkout(root: Path) -> None:
    for needed in ("src/tasklimits/cli.py", "tests/support.py"):
        if not (root / needed).is_file():
            raise BenchError(f"{needed} not found under {root}; run from the root of a checkout")
    if not DIGESTS.is_file():
        raise BenchError(f"{DIGESTS.name} not found next to {Path(__file__).name}")


def run(args: argparse.Namespace) -> int:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    root = Path.cwd()
    check_checkout(root)
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "tests"))

    items = generate(args.workload, seed=args.seed)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    base = root / ".bench_build" / "perfbench"
    work = base / f"{args.workload}-{os.getpid()}"
    traces = base / "traces"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces.mkdir(parents=True, exist_ok=True)
    for stale in traces.glob(f"{args.workload}-pass*.jsonl"):
        stale.unlink()
    try:
        manifest = write_inputs(items, work)
        (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        imports = [setup_probe(root, deadline)]

        checker = Checker(items, manifest, recorded)
        answered = refused = attempted = 0
        untraced: list[dict] = []
        traced: list[dict] = []
        budget_start = time.monotonic()
        while True:
            tracing = args.trace == 1 and len(untraced) == 1
            spans = traces / f"{args.workload}-pass{len(traced) + 1}.jsonl" if tracing else None
            summary = run_pass(root, work, deadline, spans)
            (traced if tracing else untraced).append(summary)
            a, r = checker.check_pass(summary)
            answered, refused, attempted = answered + a, refused + r, attempted + len(items)
            # Probes are spread over the run, so that setup_s samples the
            # same stretch of machine time as the passes.
            while (
                len(imports) < SETUP_PROBES
                and (time.monotonic() - budget_start) * SETUP_PROBES >= len(imports) * args.seconds
            ):
                imports.append(setup_probe(root, deadline))
            elapsed = time.monotonic() - budget_start
            per_pass = elapsed / (len(untraced) + len(traced))
            if args.trace == 1 and len(traced) < MIN_TRACED_PASSES:
                continue
            if elapsed + per_pass > args.seconds:
                break
        imports += [setup_probe(root, deadline) for _ in range(SETUP_PROBES - len(imports))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [
        f"workload {args.workload}, seed {args.seed}: {len(items)} scenarios per pass, "
        f"{len(untraced)} untraced and {len(traced)} traced passes",
        f"nproc {os.cpu_count()}, BLAS threads in the workers: "
        + ", ".join(f"{k}={v}" for k, v in BLAS_THREADS.items()),
    ]
    problems = list(checker.failures)
    if args.trace == 0:
        metrics, samples = end_to_end(untraced, imports, answered, attempted)
        units = END_TO_END_UNITS
        for name, value in metrics.items():
            lines.append(f"{name} = {value:.6g} {units[name]} ({samples[name]})")
        lines.append(f"refused by a resource limit: {refused} of {attempted} scenario calls")
        cpu = statistics.median(p["cpu_s"] for p in untraced)
        lines.append(f"pass cpu time = {cpu:.6g} s (median; wall_s minus this is time spent waiting)")
    else:
        baseline = end_to_end(untraced, imports, answered, attempted)[0]
        metrics, units, notes, count_problems = per_layer(args.workload, baseline, traced)
        problems += count_problems
        for name, value in metrics.items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            lines.append(f"{name} = {shown} {units[name]}")
        lines += notes
    for problem in problems[:20]:
        lines.append(f"FAILED {problem}")
    if len(problems) > 20:
        lines.append(f"... and {len(problems) - 20} more failures")
    print("\n".join(lines))
    output = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(checker.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(output))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
