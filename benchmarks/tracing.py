"""In-process spans around the public functions of each boxmatch layer.

The benchmark never edits the package. Operations call layer functions through
a `Layers` namespace; tracing swaps the namespace entries for timing wrappers
and also replaces the references that one boxmatch module holds to another
module's function (for example `boxmatch.cli.load_annotations`), so calls that
cross a layer boundary inside the package show up as child spans. Calls inside
one module are not traced. With tracing off nothing is patched, so the
untraced run pays no wrapper cost.

Spans stay in memory as (name, start, end, parent, op) tuples and are written
out by the benchmark when it ends. No system-wide tracing is used.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, attribute). The span's layer is the text before the dot.
FUNCTIONS = {
    "anchors.generate_anchors": ("anchors", "generate_anchors"),
    "anchors.generate_points": ("anchors", "generate_points"),
    "geometry.pairwise_iou": ("geometry", "pairwise_iou"),
    "simulator.synth_predictions": ("simulator", "synth_predictions"),
    "simulator.synth_point_predictions": ("simulator", "synth_point_predictions"),
    "simulator.detections_from_snapshot": ("simulator", "detections_from_snapshot"),
    "assignment.static_assign": ("assignment", "static_assign"),
    "assignment.localize_to_classify": ("assignment", "localize_to_classify"),
    "assignment.classify_to_localize": ("assignment", "classify_to_localize"),
    "assignment.mutual_guidance_assign": ("assignment", "mutual_guidance_assign"),
    "fcos.assign_original": ("fcos", "fcos_assign_original"),
    "fcos.localize_to_classify": ("fcos", "fcos_localize_to_classify"),
    "fcos.classify_to_localize": ("fcos", "fcos_classify_to_localize"),
    "evaluation.nms": ("evaluation", "nms"),
    "evaluation.average_precision": ("evaluation", "average_precision"),
    "evaluation.misalignment_rate": ("evaluation", "misalignment_rate"),
    "annotations.load_annotations": ("annotations", "load_annotations"),
    "annotations.load_detections": ("annotations", "load_detections"),
}

LAYERS = (
    "anchors", "geometry", "simulator", "assignment", "fcos", "evaluation", "annotations", "cli",
)

# spans the benchmark opens itself around `boxmatch.cli.main`, one per command
CLI_SPANS = ("cli.assign", "cli.simulate", "cli.evaluate")


def _positives(labels) -> int:
    return int(np.count_nonzero(labels >= 0))


def _count_assignment(name, result, counts):
    if name.endswith("mutual_guidance_assign"):
        cls = result.classification_labels >= 0
        loc = result.localization_labels >= 0
        budget = sum(p for p, _ in result.per_object_counts)
        counts["assignment.positives"] += int(cls.sum() + loc.sum())
        counts["assignment.task_disagreement"] += int(np.count_nonzero(cls != loc))
        counts["assignment.realised"] += int(cls.sum() + loc.sum())
        counts["assignment.claims"] += 2 * budget
    elif hasattr(result, "premerge_positive_counts"):
        realised = _positives(result.labels)
        counts["assignment.positives"] += realised
        counts["assignment.realised"] += realised
        counts["assignment.claims"] += sum(result.premerge_positive_counts)
    else:
        counts["assignment.positives"] += _positives(result.classification_labels)


def _count(name, args, result, counts):
    """Work counters recorded at the layer boundary from a call's result."""
    if name == "geometry.pairwise_iou":
        counts["geometry.iou_pairs"] += int(result.size)
    elif name == "simulator.detections_from_snapshot":
        counts["simulator.detections_emitted"] += len(result)
    elif name == "evaluation.nms":
        counts["evaluation.nms_in"] += len(args[0])
        counts["evaluation.nms_kept"] += len(result)
    elif name.startswith("assignment."):
        _count_assignment(name, result, counts)
    elif name.startswith("fcos."):
        labels = getattr(result, "classification_labels", None)
        counts["fcos.positives"] += _positives(result.labels if labels is None else labels)


class Layers:
    """The layer functions an operation calls, plus `span()` for CLI commands."""

    def __init__(self, bm):
        self.bm = bm
        for module, attr in FUNCTIONS.values():
            setattr(self, attr, getattr(getattr(bm, module), attr))
        self.cli_main = bm.cli.main

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Records spans and boundary counters while installed on a `Layers`."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._patches: list = []

    def _open(self, name):
        self.spans.append(None)
        idx = len(self.spans) - 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start, end):
        self.stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx, parent = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(idx, parent, name, start, end)
            if self.op >= 0:
                _count(name, args, result, self.counts)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        idx, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start, time.perf_counter())

    def add(self, name, start, end):
        """Record a span measured by the caller (used for set-up work)."""
        self.spans.append((name, start, end, self.stack[-1] if self.stack else -1, self.op))

    def install(self, layers: Layers) -> None:
        bm = layers.bm
        modules = [
            (name, mod)
            for name, mod in sys.modules.items()
            if name.startswith(bm.__name__ + ".") and mod is not None
        ]
        for span_name, (module, attr) in FUNCTIONS.items():
            original = getattr(layers, attr)
            wrapper = self.wrap(span_name, original)
            self._set(layers, attr, wrapper)
            home = f"{bm.__name__}.{module}"
            for mod_name, mod in modules:
                if mod_name == home:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        self._set(layers, "span", self.span)

    def _set(self, obj, key, value):
        self._patches.append((obj, key, obj.__dict__.get(key)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, old in reversed(self._patches):
            if old is None:
                delattr(obj, key)
            else:
                setattr(obj, key, old)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
