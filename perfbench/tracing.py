"""Spans and exact counts recorded from outside the program.

``Tracer.install`` replaces each public function of ``tasklimits`` at every
module attribute it is called through (``SITES``) with a wrapper that
appends a span ``[name, start, end, parent, scenario]`` to an in-memory
list. Counts are taken from the returned objects (or the raised error)
after the span has closed; the time spent counting is itself recorded as a
``trace.count`` span, so it never lands in a layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

#: (module, attribute, span name). A function imported into several modules
#: is wrapped in each, because a call resolves the name in its caller's module.
SITES = (
    ("tasklimits.cli", "main", "cli.main"),
    ("tasklimits.cli", "parse_scenario", "scenario.parse"),
    ("tasklimits.cli", "run_experiment", "runner.run"),
    ("tasklimits.cli", "emit_report", "report.emit"),
    ("tasklimits.cli", "parse_formula", "modal.parse"),
    ("tasklimits.cli", "gl_decide", "modal.decide"),
    ("tasklimits.cli", "model_check", "modal.check"),
    ("tasklimits.scenario", "parse_formula", "modal.parse"),
    ("tasklimits.runner", "build_trajectory", "trajectory.build"),
    ("tasklimits.runner", "utility_sequence", "trajectory.utility"),
    ("tasklimits.runner", "marginal_gains", "trajectory.gains"),
    ("tasklimits.runner", "telescoping_residual", "trajectory.check"),
    ("tasklimits.runner", "limit_diagnostics", "trajectory.check"),
    ("tasklimits.trajectory", "utility_sequence", "trajectory.utility"),
    ("tasklimits.trajectory", "marginal_gains", "trajectory.gains"),
    ("tasklimits.runner", "verify_prediction_bounds", "prediction.bounds"),
    ("tasklimits.runner", "decomposition_residual", "prediction.decomposition"),
    ("tasklimits.prediction", "full_mixture", "prediction.mixture"),
    ("tasklimits.prediction", "truncated_mixture", "prediction.mixture"),
    ("tasklimits.prediction", "tail_mixture", "prediction.mixture"),
    ("tasklimits.prediction", "averaged_risk", "prediction.risk"),
    ("tasklimits.prediction", "truncate", "prior.truncate"),
    ("tasklimits.prior", "truncate", "prior.truncate"),
    ("tasklimits.runner", "gl_decide", "modal.decide"),
    ("tasklimits.runner", "model_check", "modal.check"),
)

#: Per-layer time metrics: the summed self time of the spans of one name.
SELF_TIMES = {
    "scenario.parse_s": "scenario.parse",
    "trajectory.build_s": "trajectory.build",
    "trajectory.utility_s": "trajectory.utility",
    "trajectory.gains_s": "trajectory.gains",
    "trajectory.check_s": "trajectory.check",
    "prior.truncate_s": "prior.truncate",
    "prediction.mixture_s": "prediction.mixture",
    "prediction.risk_s": "prediction.risk",
    "prediction.bounds_self_s": "prediction.bounds",
    "prediction.decomposition_self_s": "prediction.decomposition",
    "modal.decide_s": "modal.decide",
    "modal.parse_s": "modal.parse",
    "modal.check_s": "modal.check",
    "runner.self_s": "runner.run",
    "report.emit_s": "report.emit",
    "cli.self_s": "cli.main",
}

COUNTS = (
    "scenario.rejected",
    "trajectory.set_members",
    "trajectory.ever_solved",
    "prior.truncate_calls",
    "prediction.mixture_builds",
    "prediction.risk_calls",
    "prediction.distinct_levels",
    "prediction.levels_swept",
    "modal.frames_checked",
    "modal.valuations_swept",
    "modal.refused",
    "report.bytes",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.scenario = ""
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.missing: list[str] = []
        self._frame_index: dict[int, dict[tuple[int, ...], int]] = {}

    def install(self) -> None:
        counters = {
            "scenario.parse": self._count_scenario,
            "trajectory.build": self._count_trajectory,
            "prior.truncate": self._count_one("prior.truncate_calls"),
            "prediction.mixture": self._count_one("prediction.mixture_builds"),
            "prediction.risk": self._count_one("prediction.risk_calls"),
            "modal.decide": self._count_decision,
            "report.emit": self._count_bytes,
        }
        for module_name, attribute, name in SITES:
            module = importlib.import_module(module_name)
            function = getattr(module, attribute, None)
            if function is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            setattr(module, attribute, self._wrap(function, name, counters.get(name)))

    def _wrap(self, function, name, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, clock(), 0.0, parent, self.scenario]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = function(*args, **kwargs)
            except Exception as exc:
                record[2] = clock()
                stack.pop()
                if counter is not None:
                    self._counted(counter, args, None, exc, parent)
                raise
            record[2] = clock()
            stack.pop()
            if counter is not None:
                self._counted(counter, args, result, None, parent)
            return result

        return traced

    def _counted(self, counter, args, result, error, parent) -> None:
        start = time.perf_counter()
        counter(args, result, error)
        self.spans.append(["trace.count", start, time.perf_counter(), parent, self.scenario])

    def _count_one(self, key):
        def count(args, result, error):
            if error is None:
                self.counts[key] += 1

        return count

    def _count_scenario(self, args, scenario, error) -> None:
        if error is not None:
            if type(error).__name__ == "ScenarioError":
                self.counts["scenario.rejected"] += 1
            return
        hypotheses = getattr(scenario.payload, "hypotheses", None)
        if hypotheses is None:
            return
        lengths = {h.code_length for h in hypotheses.hypotheses if h.code_length <= scenario.n_max}
        self.counts["prediction.distinct_levels"] += len(lengths)
        self.counts["prediction.levels_swept"] += scenario.n_max + 1

    def _count_trajectory(self, args, trajectory, error) -> None:
        if error is not None:
            return
        sets = trajectory.solved_sets
        self.counts["trajectory.set_members"] += sum(len(s) for s in sets)
        self.counts["trajectory.ever_solved"] += len(frozenset().union(*(s.members for s in sets)))

    def _count_bytes(self, args, payload, error) -> None:
        if error is None:
            self.counts["report.bytes"] += len(payload)

    def _count_decision(self, args, result, error) -> None:
        if error is not None:
            if type(error).__name__ == "ResourceLimitError":
                self.counts["modal.refused"] += 1
            return
        from tasklimits.modal import atom_indices

        atoms = len(atom_indices(args[0]))
        if result.trace is not None:
            levels = [
                (lvl.frames_checked, lvl.valuations_per_frame) for lvl in result.trace.levels
            ]
        else:
            levels = self._levels_to_countermodel(result.countermodel, atoms)
        for frames, valuations in levels:
            self.counts["modal.frames_checked"] += frames
            self.counts["modal.valuations_swept"] += frames * valuations

    def _levels_to_countermodel(self, countermodel, atoms):
        """Frames swept before the search stopped at ``countermodel``.

        The search sweeps every representative frame of each smaller world
        count, then stops at the countermodel's frame; all valuations of a
        frame are evaluated at once.
        """
        from tasklimits.modal.decide import _representative_frames

        worlds = len(countermodel.model.worlds)
        levels = [(len(_representative_frames(m)), 1 << (atoms * m)) for m in range(1, worlds)]
        index = self._frame_index.get(worlds)
        if index is None:
            index = {masks: i for i, masks in enumerate(_representative_frames(worlds))}
            self._frame_index[worlds] = index
        masks = [0] * worlds
        for a, b in countermodel.model.relation:
            masks[a] |= 1 << b
        levels.append((index[tuple(masks)] + 1, 1 << (atoms * worlds)))
        return levels

    def write(self, path) -> None:
        """One JSON object per line; ``parent`` is the parent's ``id``, or -1."""
        keys = ("name", "start", "end", "parent", "scenario")
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **dict(zip(keys, span))}) + "\n")


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name: duration minus the direct children's."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] += end - start - child_time[i]
    return dict(totals)
