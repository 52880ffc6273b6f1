"""Per-layer tracing, installed from outside the program.

A Tracer swaps the public stage functions of polemap for wrappers that record
one span per call (name, start, end, parent span, attempt id) and the counts
the stage returns. polemap itself is not edited: the wrappers replace every
module attribute that refers to a stage function, so calls from inside the
package and from the benchmark are both seen, and close() puts the originals
back. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import ExitStack, contextmanager

import numpy as np


def _polemap_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and name.split(".")[0] == "polemap"
    ]


@contextmanager
def patched(original, replacement):
    """Replace every polemap module attribute bound to `original`."""
    sites = [
        (module, name)
        for module in _polemap_modules()
        for name, value in list(vars(module).items())
        if value is original
    ]
    for module, name in sites:
        setattr(module, name, replacement)
    try:
        yield
    finally:
        for module, name in sites:
            setattr(module, name, original)


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or None, attempt id].
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.attempt = 0
        self._stack: list[int] = []
        self._restore = ExitStack()

    def new_attempt(self) -> None:
        self.attempt += 1

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrapper(self, original, span, on_result=None, on_error=None, starts_attempt=False):
        tracer = self

        def traced(*args, **kwargs):
            if starts_attempt:
                tracer.attempt += 1
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            record = [span, time.perf_counter(), None, parent, tracer.attempt]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(args, exc)
                raise
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap(self, original, span, **hooks) -> None:
        self._restore.enter_context(patched(original, self._wrapper(original, span, **hooks)))

    def wrap_method(self, cls, attr, span, **hooks) -> None:
        original = getattr(cls, attr)
        setattr(cls, attr, self._wrapper(original, span, **hooks))
        self._restore.callback(setattr, cls, attr, original)

    def close(self) -> None:
        """Put every wrapped function back."""
        self._restore.close()

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, attempt in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "attempt": attempt}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def install(tracer: Tracer, attempt_starts_at_extraction: bool) -> None:
    """Wrap the stage functions of every layer.

    When the program drives its own loop (run_pipeline), the benchmark cannot
    mark attempts itself, so each extraction call opens a new attempt.
    """
    from polemap import (
        association,
        dataset_io,
        extraction,
        localization,
        map_io,
        registration,
        relocalization,
    )

    def kept(stage):
        def on_result(args, result):
            tracer.add(f"{stage}.in", len(args[0]))
            tracer.add(f"{stage}.out", len(result))

        def on_error(args, exc):
            tracer.add(f"{stage}.in", len(args[0]))

        return {"on_result": on_result, "on_error": on_error}

    def merged(args, stats):
        tracer.add("registration.merged", stats.merged)
        tracer.add("registration.registered", stats.merged + stats.inserted)

    def icp(args, result):
        tracer.add("relocalization.icp_calls")
        tracer.add("relocalization.icp_residual_sum", result[1])

    def failed(args, exc):
        if isinstance(exc, relocalization.RelocalizationFailure):
            tracer.add(f"relocalization.fail.{exc.reason}")

    tracer.wrap_method(dataset_io.Dataset, "frame", "dataset_io.frame")
    tracer.wrap(
        extraction.extract_clusters, "extraction.extract_clusters",
        on_result=lambda args, result: tracer.add("extraction.clusters", len(result)),
        starts_attempt=attempt_starts_at_extraction,
    )
    tracer.wrap(registration.register_frame, "registration.register_frame", on_result=merged)
    tracer.wrap(registration.build_local_map, "registration.build_local_map")
    tracer.wrap(
        association.associate_maps, "association.associate_maps",
        on_result=lambda args, result: tracer.add("association.pairs", len(result)),
    )
    tracer.wrap(relocalization.geometric_consistency_filter, "relocalization.consistency",
                **kept("relocalization.consistency"))
    tracer.wrap(relocalization.ransac_filter, "relocalization.ransac",
                **kept("relocalization.ransac"))
    tracer.wrap(relocalization.coarse_align, "relocalization.coarse_align")
    tracer.wrap(relocalization.fine_align, "relocalization.icp", on_result=icp)
    tracer.wrap(relocalization.relocalize, "relocalization.relocalize", on_error=failed)
    tracer.wrap(localization.run_pipeline, "localization.run_pipeline",
                on_result=lambda args, result: tracer.add("localization.frames",
                                                          len(result.trajectory)))
    tracer.wrap(map_io.save_map, "map_io.save_map")
    tracer.wrap(map_io.load_map, "map_io.load_map")


LAYERS = ("dataset_io", "extraction", "registration", "association",
          "relocalization", "localization", "map_io")
FAILURES = ("no-matches", "consistency-collapse", "ransac-failure", "degenerate-fit")
# Per-call timings reported for these spans, by metric name.
PER_CALL_MS = {
    "dataset_io.frame_ms": "dataset_io.frame",
    "extraction.frame_ms": "extraction.extract_clusters",
    "registration.register_ms": "registration.register_frame",
    "registration.local_map_ms": "registration.build_local_map",
    "association.call_ms": "association.associate_maps",
    "relocalization.consistency_ms": "relocalization.consistency",
    "relocalization.ransac_ms": "relocalization.ransac",
    "relocalization.icp_ms": "relocalization.icp",
    "map_io.load_ms": "map_io.load_map",
    "map_io.save_ms": "map_io.save_map",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass; a layer the pass never called reads 0."""
    spans = tracer.spans
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] is not None:
            child_time[span[3]] += duration[i]
    self_time = [d - c for d, c in zip(duration, child_time)]

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    metrics: dict[str, tuple[float, str]] = {}
    for metric, name in PER_CALL_MS.items():
        calls = by_name.get(name, [])
        metrics[metric] = (1000.0 * _ratio(sum(duration[i] for i in calls), len(calls)), "ms")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        layer_self[span[0].split(".")[0]] += self_time[i]
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (_ratio(layer_self[layer], wall_s), "ratio")
    top_level = sum(duration[i] for i, span in enumerate(spans) if span[3] is None)
    metrics["perfbench.self_share"] = (_ratio(wall_s - top_level, wall_s), "ratio")

    c = tracer.counts
    metrics["extraction.clusters"] = (c.get("extraction.clusters", 0), "count")
    metrics["association.pairs"] = (c.get("association.pairs", 0), "count")
    metrics["registration.merged_ratio"] = (
        _ratio(c.get("registration.merged", 0), c.get("registration.registered", 0)), "ratio")
    for stage in ("consistency", "ransac"):
        key = f"relocalization.{stage}"
        metrics[f"{key}_kept"] = (_ratio(c.get(f"{key}.out", 0), c.get(f"{key}.in", 0)), "ratio")
    residual = _ratio(c.get("relocalization.icp_residual_sum", 0.0),
                      c.get("relocalization.icp_calls", 0))
    metrics["relocalization.icp_residual_m"] = (residual, "m")
    for reason in FAILURES:
        key = f"relocalization.fail.{reason}"
        metrics[key] = (c.get(key, 0), "count")

    pipeline = set(by_name.get("localization.run_pipeline", []))
    attempts = [1000.0 * duration[i] for i in by_name.get("relocalization.relocalize", [])
                if spans[i][3] in pipeline]
    p50, p90 = np.percentile(attempts, [50, 90]) if attempts else (0.0, 0.0)
    metrics["localization.attempt_ms_p50"] = (float(p50), "ms")
    metrics["localization.attempt_ms_p90"] = (float(p90), "ms")
    metrics["localization.self_ms"] = (
        1000.0 * _ratio(sum(self_time[i] for i in pipeline), c.get("localization.frames", 0)), "ms")
    return metrics
