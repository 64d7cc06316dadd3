"""One pass over a workload in a fresh Python process.

Usage: python3 perfbench/worker.py MANIFEST RESULT [SPANS]

Imports ``tasklimits.cli``, then calls ``tasklimits.cli.main`` once per
manifest entry, in order, with stdout and stderr captured. With SPANS,
wrappers are installed after the import and the spans are written to SPANS
when the pass ends. RESULT receives, per entry, the exit status, the
latency of ``main`` and a digest of the outcome.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def outcome_digest(status, stdout: str, stderr: str, report: bytes | None) -> str:
    """SHA-256 of what a user sees: exit status, report bytes (or stdout), stderr."""
    h = hashlib.sha256(f"status={status}\n".encode())
    h.update(report if report is not None else stdout.encode("utf-8"))
    h.update(b"\n--stderr--\n" + stderr.encode("utf-8"))
    return h.hexdigest()


def main(manifest_path: str, result_path: str, spans_path: str | None = None) -> None:
    import tasklimits.cli as cli

    entries = json.loads(Path(manifest_path).read_text(encoding="utf-8"))

    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    captured = []
    latencies = []
    pass_start, cpu_start = time.perf_counter(), time.process_time()
    for entry in entries:
        if entry.get("out"):
            Path(entry["out"]).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.scenario = entry["id"]
            t0 = time.perf_counter()
            try:
                status = cli.main(entry["argv"])
            except SystemExit as exc:
                status = f"exit {exc.code}"
            except Exception as exc:  # a raised error is a failed scenario, not a crash
                status = f"raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
        captured.append((status, out.getvalue(), err.getvalue()))
    wall_s = time.perf_counter() - pass_start
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = []
    for entry, (status, stdout, stderr), latency in zip(entries, captured, latencies):
        out = Path(entry["out"]) if entry.get("out") else None
        report = out.read_bytes() if out is not None and out.exists() else None
        results.append(
            {
                "status": status,
                "latency_s": latency,
                "digest": outcome_digest(status, stdout, stderr, report),
                "stderr": stderr[-300:],
            }
        )
    summary = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "results": results,
    }
    if tracer is not None:
        from tracing import self_times

        summary["self_times"] = self_times(tracer.spans)
        summary["counts"] = tracer.counts
        summary["missing_sites"] = tracer.missing
        tracer.write(spans_path)
    Path(result_path).write_text(json.dumps(summary), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
