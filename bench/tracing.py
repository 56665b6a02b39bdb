"""Span tracing of wavedens' public callables, installed from outside.

The tracer replaces each target callable at every name where the package
looks it up (the defining module, every ``wavedens.*`` module that imported
it, and the class for methods), records one span per call in memory, and
puts the originals back on exit.  Nothing inside the package changes.

A span is (name, start, end, parent, op, items); ``parent`` is the index of
the enclosing traced span or -1.  Self time is a span's duration minus the
durations of its direct children; the program is single-threaded here, so
children never overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable


def _rows(args, kwargs, result):
    return result.shape[0]


def _points_arg(index):
    def count(args, kwargs, result):
        return len(args[index])

    return count


def _path_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module.qualname`` with an optional items count."""

    module: str
    qualname: str
    items_unit: str | None = None
    items: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


# The layers are the package's modules.  ``items`` counts the work a call was
# given: points fitted or evaluated, bytes written or read, CSV rows parsed.
TARGETS = (
    Target("wavelets", "build_family"),
    Target("neighbors", "knn_stats"),
    Target("estimator", "fit_model"),
    Target("estimator", "estimate_coefficients", "points", _points_arg(0)),
    Target("estimator", "soft_threshold"),
    Target("estimator", "normalize"),
    Target("estimator", "truncate_details"),
    Target("estimator", "DensityModel.__init__"),
    Target("estimator", "DensityModel.density"),
    Target("estimator", "DensityModel.reconstruct", "points", _points_arg(1)),
    Target("estimator", "DensityModel.density_on_axes"),
    Target("estimator", "DensityModel.reconstruct_on_axes"),
    Target("estimator", "write_coefficients", "bytes", _path_bytes),
    Target("estimator", "model_from_file", "bytes", _path_bytes),
    Target("classical", "classical_coefficients"),
    Target("metrics", "grid_eval"),
    Target("simulation", "sample_mixture"),
    Target("simulation", "true_density_field"),
    Target("simulation", "run_benchmark"),
    Target("cli", "main"),
    Target("cli", "read_points_csv", "rows", _rows),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for target in TARGETS:
        units[f"{target.name}.calls"] = "count"
        units[f"{target.name}.s"] = "s"
        units[f"{target.name}.self_s"] = "s"
        if target.items_unit:
            units[f"{target.name}.items"] = target.items_unit
    units.update(
        {
            "trace.ops": "count",
            "trace.missing_spans": "count",
            "trace.unattributed_s": "s",
            "trace.unattributed_share": "ratio",
            "trace.overhead_s": "s",
            "trace.overhead_share": "ratio",
        }
    )
    return units


# key of op_summary's entry holding the summed duration of top-level spans
TOP_LEVEL = "<top-level>"


class Tracer:
    """Context manager that records spans while its patches are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "wavedens" or name.startswith("wavedens."))
        ]
        for target in TARGETS:
            owner = sys.modules[f"wavedens.{target.module}"]
            *cls_path, attr = target.qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(target, original)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, fn):
        name = target.name
        items = target.items
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if items is not None:
                span[5] = items(args, kwargs, result)
            return result

        return traced

    def op_summary(self, op) -> dict[str, dict[str, float]]:
        """Per-target totals over the spans of one operation."""
        chosen = [i for i, span in enumerate(self.spans) if span[4] == op]
        child_time = {i: 0.0 for i in chosen}
        for i in chosen:
            parent = self.spans[i][3]
            if parent >= 0:
                child_time[parent] += self.spans[i][2] - self.spans[i][1]
        out: dict[str, dict[str, float]] = {}
        top_level = 0.0
        for i in chosen:
            name, start, end, parent, _, items = self.spans[i]
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0})
            duration = end - start
            entry["calls"] += 1
            entry["items"] += items
            entry["s"] += duration
            entry["self_s"] += duration - child_time[i]
            if parent < 0:
                top_level += duration
        out[TOP_LEVEL] = {"s": top_level}
        return out


def layer_metrics(summaries: list[dict], setup_summaries: list[dict]) -> dict[str, float]:
    """Median over operations of each target's per-operation totals.

    Targets that fire during set-up only (the wavelet table build) take their
    numbers from the set-up repetitions; a target that never fired reads 0.
    """
    out = {}
    for target in TARGETS:
        source = summaries
        if not any(target.name in s for s in summaries) and any(
            target.name in s for s in setup_summaries
        ):
            source = setup_summaries
        for field in ("calls", "s", "self_s") + (("items",) if target.items_unit else ()):
            values = [s.get(target.name, {}).get(field, 0) for s in source]
            out[f"{target.name}.{field}"] = float(median(values)) if values else 0.0
    return out
