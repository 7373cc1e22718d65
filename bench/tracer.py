"""Spans and counters recorded around the calls into each diagbounds module.

The tracer wraps public functions from outside the package: each name is
replaced in every ``diagbounds`` module that holds it, because modules
import one another's functions by name (``report`` holds
``confidence_set``, ``cli`` holds ``coverage_simulation``, and so on).
A span records its name, start, end, parent and the id of the CLI call it
belongs to.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = "cli.main"


def _count_grid(tracer, args, kwargs, cs) -> None:
    tracer.counts["inference.grid_points_tested"] += cs.n_tested
    tracer.counts["inference.grid_points_retained"] += len(cs)


def _count_point_tests(tracer, args, kwargs, result) -> None:
    tracer.counts["inference.point_tests"] += result.reps * len(result.theta_points)


def _count_draws(tracer, args, kwargs, freqs) -> None:
    tracer.counts["inference.bootstrap_draws"] += freqs.shape[0]


def _count_segments(tracer, args, kwargs, identified) -> None:
    region = args[1] if len(args) > 1 else kwargs["S"]
    tracer.counts["identification.segments"] += len(identified.segments)
    tracer.counts["identification.dropped_points"] += len(region.points) - len(identified.segments)


# (span name, module, attribute, counter hook).  An attribute "Class.method"
# wraps a method on its class.
TARGETS = (
    ("cli.build_parser", "diagbounds.cli", "build_parser", None),
    ("datasets.load", "diagbounds.datasets", "load_dataset", None),
    ("datasets.load", "diagbounds.datasets", "read_counts", None),
    ("report.run_analysis", "diagbounds.report", "run_analysis", None),
    ("report.run_sensitivity", "diagbounds.report", "run_sensitivity", None),
    ("report.serialize", "diagbounds.report", "ReportBundle.to_json", None),
    ("report.serialize", "diagbounds.report", "ReportBundle.estimates_table", None),
    ("report.serialize", "diagbounds.report", "ReportBundle.prevalence_curve_table", None),
    ("report.serialize", "diagbounds.report", "ReportBundle.sensitivity_table", None),
    ("report.serialize", "diagbounds.inference", "ConfidenceSet.to_csv_rows", None),
    ("report.serialize", "diagbounds.inference", "ConfidenceSet.to_dict", None),
    ("report.serialize", "diagbounds.identification", "IdentifiedSet.to_csv_rows", None),
    ("svgfig.figures", "diagbounds.svgfig", "identified_set_figure", None),
    ("svgfig.figures", "diagbounds.svgfig", "width_curve_figure", None),
    ("identification.sharp_union", "diagbounds.identification", "sharp_union", _count_segments),
    ("probability.validate_assumptions", "diagbounds.probability", "validate_assumptions", None),
    ("exactci.clopper_pearson", "diagbounds.exactci", "clopper_pearson", None),
    ("derived.prevalence_width_curve", "diagbounds.derived", "prevalence_width_curve", None),
    ("derived.predictive_value_bounds", "diagbounds.derived", "predictive_value_bounds", None),
    ("inference.confidence_set", "diagbounds.inference", "confidence_set", _count_grid),
    ("inference.coverage_simulation", "diagbounds.inference", "coverage_simulation", _count_point_tests),
    ("inference.bootstrap_cell_frequencies", "diagbounds.inference", "bootstrap_cell_frequencies", _count_draws),
    ("moments.moment_cell_tables", "diagbounds.moments", "moment_cell_tables", None),
    ("moments.param_space_box", "diagbounds.moments", "param_space_box", None),
)

SPAN_NAMES = (ROOT,) + tuple(dict.fromkeys(t[0] for t in TARGETS))

COUNTS = (
    "inference.grid_points_tested",
    "inference.grid_points_retained",
    "inference.bootstrap_draws",
    "inference.point_tests",
    "identification.segments",
    "identification.dropped_points",
    "report.bytes_written",
)


class Tracer:
    """Spans and counts of the traced CLI calls of one run."""

    def __init__(self) -> None:
        # One list per span: [name, start, end, parent index, call id].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._call_id = -1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span; outside a CLI call it runs untraced."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == ROOT:
                self._call_id += 1
            elif not stack:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._call_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target wherever a diagbounds module holds it."""
        for name, module, attr, after in TARGETS:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, original, after))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original, after)
            for holder in list(sys.modules.values()):
                if getattr(holder, "__name__", "").split(".")[0] != "diagbounds":
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its children;
        the run is single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        return {name: tuple(v) for name, v in out.items()}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "call"], "spans": self.spans})
        )
