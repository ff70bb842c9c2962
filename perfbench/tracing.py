"""Per-layer tracing from outside the program.

The layers are sspd's modules.  A Tracer wraps their public functions and
methods at run time, in every sspd module namespace that holds them (the
hashing functions are imported by name into short_sketch, long_sketch,
sliding and distributed), and restores the originals afterwards.  While
``enabled`` is false a wrapper only forwards the call, so one process can
alternate traced and untraced windows and report the tracing overhead.

Spans are kept in memory and written out when the run ends.  A span's self
time is its duration minus the time of the spans nested in it.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import warnings
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Module-level functions: (module, function).
FUNCTIONS = (
    ("hashing", "hash_full_array"),
    ("hashing", "hash_range_array"),
    ("distributed", "route_pairs"),
    ("distributed", "serialize"),
    ("distributed", "parse_frame"),
    ("distributed", "merge_frames"),
    ("distributed", "simulate_window"),
)

# Methods: (span name, module, class, method).
METHODS = (
    ("short_sketch.update_batch", "short_sketch", "SeavSketch", "update_batch"),
    ("short_sketch.restore", "short_sketch", "SeavSketch", "restore"),
    ("long_sketch.update_batch", "long_sketch", "LdcaSketch", "update_batch"),
    ("long_sketch.estimate", "long_sketch", "LdcaSketch", "estimate"),
    ("window_detector.process_batch", "window_detector", "DetectorState", "process_batch"),
    ("window_detector.finalize_window", "window_detector", "DetectorState", "finalize_window"),
    ("sliding.observe_batch", "sliding", "SlidingDetector", "observe_batch"),
    ("sliding.advance_slice", "sliding", "SlidingDetector", "advance_slice"),
    ("sliding.detect", "sliding", "SlidingDetector", "detect"),
    ("sliding.materialize_seav", "sliding", "SlidingDetector", "materialize_seav"),
    ("sliding.materialize_ldca_cell", "sliding", "SlidingDetector", "materialize_ldca_cell"),
    ("sliding.pool_active", "sliding", "TimestampPool", "active"),
)

# Per-layer metrics: (name, unit, better, source, key).  Sources: "total",
# "self" and "calls" read a span; "count" reads a counter; "ratio" divides
# two counters; "rate" reads the traced and untraced window rates.
PER_LAYER = (
    ("hashing.hash_full_array_s", "s", "lower", "total", "hashing.hash_full_array"),
    ("hashing.hash_range_array_s", "s", "lower", "total", "hashing.hash_range_array"),
    ("hashing.hash_range_array_calls", "count", "lower", "calls", "hashing.hash_range_array"),
    ("short_sketch.update_batch_s", "s", "lower", "total", "short_sketch.update_batch"),
    ("short_sketch.update_batch_self_s", "s", "lower", "self", "short_sketch.update_batch"),
    ("short_sketch.restore_s", "s", "lower", "total", "short_sketch.restore"),
    ("short_sketch.candidates", "count", "lower", "count", "short_sketch.candidates"),
    ("short_sketch.restore_overflows", "count", "lower", "count", "short_sketch.restore_overflows"),
    ("long_sketch.update_batch_s", "s", "lower", "total", "long_sketch.update_batch"),
    ("long_sketch.update_batch_self_s", "s", "lower", "self", "long_sketch.update_batch"),
    ("long_sketch.estimate_s", "s", "lower", "total", "long_sketch.estimate"),
    ("long_sketch.estimate_calls", "count", "lower", "calls", "long_sketch.estimate"),
    ("window_detector.process_batch_s", "s", "lower", "total", "window_detector.process_batch"),
    ("window_detector.process_batch_self_s", "s", "lower", "self", "window_detector.process_batch"),
    ("window_detector.finalize_window_s", "s", "lower", "total", "window_detector.finalize_window"),
    ("window_detector.finalize_self_s", "s", "lower", "self", "window_detector.finalize_window"),
    ("window_detector.accepted_per_candidate", "ratio", "higher", "ratio",
     ("window_detector.accepted", "window_detector.candidates")),
    ("sliding.observe_batch_s", "s", "lower", "total", "sliding.observe_batch"),
    ("sliding.observe_batch_self_s", "s", "lower", "self", "sliding.observe_batch"),
    ("sliding.advance_slice_s", "s", "lower", "total", "sliding.advance_slice"),
    ("sliding.detect_s", "s", "lower", "total", "sliding.detect"),
    ("sliding.detect_self_s", "s", "lower", "self", "sliding.detect"),
    ("sliding.materialize_seav_s", "s", "lower", "total", "sliding.materialize_seav"),
    ("sliding.materialize_seav_self_s", "s", "lower", "self", "sliding.materialize_seav"),
    ("sliding.pool_active_s", "s", "lower", "total", "sliding.pool_active"),
    ("sliding.materialize_ldca_cell_s", "s", "lower", "total", "sliding.materialize_ldca_cell"),
    ("sliding.materialize_ldca_cell_calls", "count", "lower", "calls", "sliding.materialize_ldca_cell"),
    ("distributed.simulate_window_s", "s", "lower", "total", "distributed.simulate_window"),
    ("distributed.simulate_window_self_s", "s", "lower", "self", "distributed.simulate_window"),
    ("distributed.route_pairs_s", "s", "lower", "total", "distributed.route_pairs"),
    ("distributed.serialize_s", "s", "lower", "total", "distributed.serialize"),
    ("distributed.serialize_calls", "count", "lower", "calls", "distributed.serialize"),
    ("distributed.parse_frame_s", "s", "lower", "total", "distributed.parse_frame"),
    ("distributed.merge_frames_s", "s", "lower", "total", "distributed.merge_frames"),
    ("distributed.frame_bytes", "bytes", "lower", "count", "distributed.frame_bytes"),
    ("trace.pairs_per_s_traced", "pairs/s", "higher", "rate", "traced"),
    ("trace.pairs_per_s_untraced", "pairs/s", "higher", "rate", "untraced"),
    ("trace.overhead_ratio", "ratio", "lower", "rate", "overhead"),
)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.unit = 0                   # window or detection interval being run
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.spans = []                 # [id, parent id, unit, name, start, end]
        self._stack = []                # [span id, time covered by child spans]
        self._undo = []

    def _wrap(self, name, original, inner=None, hook=None):
        inner = inner or original

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            record = [span_id, parent, self.unit, name, perf_counter(), 0.0]
            self.spans.append(record)
            frame = [span_id, 0.0]
            self._stack.append(frame)
            try:
                result = inner(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                span = record[5] - record[4]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += span
                self.total[name] += span
                self.self_time[name] += span - frame[1]
                self.calls[name] += 1
            if hook:
                hook(result, self.spans[parent][3] if parent >= 0 else None)
            return result

        return traced

    def _restore_counting_overflows(self, original):
        """restore(on_overflow="warn") signals a skipped array only by a
        RuntimeWarning; count them, then let them through."""

        def restore(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = original(*args, **kwargs)
            for w in caught:
                if issubclass(w.category, RuntimeWarning):
                    self.counts["short_sketch.restore_overflows"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return restore

    def _count_candidates(self, result, parent):
        self.counts["short_sketch.candidates"] += len(result)
        if parent == "window_detector.finalize_window":
            self.counts["window_detector.candidates"] += len(result)

    def _count_accepted(self, result, parent):
        self.counts["window_detector.accepted"] += len(result)

    def _count_frame(self, result, parent):
        self.counts["distributed.frame_bytes"] += len(result)

    def install(self, sspd):
        """Wrap the functions and methods above in the loaded sspd package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sspd" or n.startswith("sspd.")]
        hooks = {"distributed.serialize": self._count_frame}
        for module_name, fn_name in FUNCTIONS:
            original = getattr(getattr(sspd, module_name), fn_name)
            name = f"{module_name}.{fn_name}"
            wrapped = self._wrap(name, original, hook=hooks.get(name))
            for module in modules:
                if module.__dict__.get(fn_name) is original:
                    self._undo.append((module, fn_name, original))
                    setattr(module, fn_name, wrapped)
        for name, module_name, cls_name, method in METHODS:
            cls = getattr(getattr(sspd, module_name), cls_name)
            original = cls.__dict__[method]
            if name == "short_sketch.restore":
                wrapped = self._wrap(name, original, self._restore_counting_overflows(original),
                                     self._count_candidates)
            elif name == "window_detector.finalize_window":
                wrapped = self._wrap(name, original, hook=self._count_accepted)
            else:
                wrapped = self._wrap(name, original)
            self._undo.append((cls, method, original))
            setattr(cls, method, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def per_layer(self, traced_rates: list[float], untraced_rates: list[float]) -> dict:
        """Every PER_LAYER metric; a layer the workload never called reads 0."""
        rates = {"traced": statistics.median(traced_rates) if traced_rates else 0.0,
                 "untraced": statistics.median(untraced_rates) if untraced_rates else 0.0}
        rates["overhead"] = rates["untraced"] / rates["traced"] if rates["traced"] else 0.0
        out = {}
        for name, unit, _, source, key in PER_LAYER:
            if source == "total":
                value = self.total[key]
            elif source == "self":
                value = self.self_time[key]
            elif source == "calls":
                value = self.calls[key]
            elif source == "count":
                value = self.counts[key]
            elif source == "ratio":
                value = self.counts[key[0]] / self.counts[key[1]] if self.counts[key[1]] else 0.0
            else:
                value = rates[key]
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path, header: dict, per_layer: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            **header,
            "per_layer": per_layer,
            "span_fields": ["id", "parent", "unit", "name", "start_s", "end_s"],
            "spans": self.spans,
        }))
