"""Record the outcome digest of every workload input into ``digests.json``.

Usage, from the root of a checkout: python3 perfbench/record.py [WORKLOAD ...]

Runs every content variant of every slot of the named workloads (default:
all) once, untimed, and stores ``<input sha256 prefix>:<outcome sha256>[:refused]`` per
``<slot id>/<variant>``. The recorded digests are the reference the
benchmark checks against, so record them only from a commit whose outcomes
are the intended ones, and say in the change which outcomes moved and why.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from run import (
    DIGESTS,
    RUN_LIMIT_S,
    check_checkout,
    input_digest,
    run_pass,
    write_inputs,
)
from workloads import VARIANTS, WORKLOADS, generate


def is_refusal(result: dict) -> bool:
    """Exit 2 with a resource-limit message: the seed refuses the input by design."""
    return result["status"] == 2 and ("limit" in result["stderr"] or "capped" in result["stderr"])


def main() -> int:
    root = Path.cwd()
    check_checkout(root)
    if not set(sys.argv[1:]) <= set(WORKLOADS):
        print(f"usage: record.py [WORKLOAD ...], workloads: {', '.join(WORKLOADS)}")
        return 2
    work = root / ".bench_build" / "perfbench" / "record"
    workloads = sys.argv[1:] or WORKLOADS
    recorded = {
        key: value
        for key, value in json.loads(DIGESTS.read_text(encoding="utf-8")).items()
        if key.split("/")[0] not in workloads
    }
    problems = []
    for workload in workloads:
        for variant in range(VARIANTS):
            items = generate(workload, variant=variant)
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            manifest = write_inputs(items, work)
            (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
            summary = run_pass(root, work, time.monotonic() + RUN_LIMIT_S)
            for item, result in zip(items, summary["results"]):
                value = f"{input_digest(item)}:{result['digest']}"
                if is_refusal(result):
                    value += ":refused"
                elif result["status"] != 0:
                    problems.append(f"{item.id}/{item.variant}: status {result['status']}")
                recorded[f"{item.id}/{item.variant}"] = value
            print(f"{workload} variant {variant}: {len(items)} outcomes, "
                  f"pass {summary['wall_s']:.2f} s", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    partial = DIGESTS.with_suffix(".tmp")
    partial.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    partial.replace(DIGESTS)  # a run reading the file never sees half of it
    for problem in problems:
        print(f"not answered at this commit: {problem}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
