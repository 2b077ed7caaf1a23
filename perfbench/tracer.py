"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public kst functions the CLI reaches, everywhere a
module holds them by name (``kst.cli`` and ``kst.quality`` import them
directly, and ``kst.cli`` dispatches through a dict of commands). Each call
becomes a span; a function's self time is its span's duration minus the time
covered by wrapped callees. Spans stay in memory until :meth:`write_spans`.

A name in :data:`LAYERS` that kst no longer defines is reported as absent and
its metrics read 0, so the trace survives code moving between modules.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

# module -> functions wrapped; each gets a ``<module>.<function>.self_s``
# metric and the ones in CALL_METRICS a ``.calls`` metric too.
LAYERS = {
    "dataset": ("parse_samples", "aggregate_trials", "derive_gpu_rates",
                "build_table", "merge_platforms"),
    "preprocess": ("fit_transform",),
    "cluster": ("agglomerative_ward", "kmeans_fit", "cut_dendrogram"),
    "quality": ("select_k", "gap_statistic", "silhouette", "dunn_index",
                "calinski_harabasz", "quality_report"),
    "similarity": ("family_similarity",),
    "stability": ("stability_series", "stability_summary"),
    "report": ("emit_report", "pca_project", "export_boxplot_data"),
    "cli": ("cmd_select_k", "cmd_cluster", "cmd_similar", "cmd_stability",
            "cmd_ingest_check"),
}

CALL_METRICS = (
    "dataset.parse_samples", "dataset.aggregate_trials", "dataset.derive_gpu_rates",
    "dataset.build_table", "dataset.merge_platforms",
    "cluster.agglomerative_ward", "cluster.kmeans_fit",
    "quality.select_k", "quality.gap_statistic", "quality.silhouette",
    "quality.dunn_index", "quality.calinski_harabasz", "quality.quality_report",
    "stability.stability_series", "report.emit_report",
)


def _source_bytes(source: Any) -> int:
    if isinstance(source, (str, bytes)):
        return len(source)
    return os.fstat(source.fileno()).st_size


def _count_parse(counters: Counter, arguments: dict, result: Any) -> None:
    counters["dataset.samples"] += len(result)
    counters["dataset.input_bytes"] += _source_bytes(arguments["source"])


def _count_kmeans(counters: Counter, arguments: dict, result: Any) -> None:
    counters["cluster.kmeans_fit.iterations"] += result.iterations


def _count_gap(counters: Counter, arguments: dict, result: Any) -> None:
    a = arguments
    counters["quality.gap_reference_fits"] += a["b"] * (a["k_max"] - a["k_min"] + 1)


# function -> hook adding to counters from the call's bound arguments and result
COUNTERS = {
    "dataset.parse_samples": _count_parse,
    "cluster.kmeans_fit": _count_kmeans,
    "quality.gap_statistic": _count_gap,
}
COUNTER_UNITS = {
    "dataset.samples": "count",
    "dataset.input_bytes": "bytes",
    "cluster.kmeans_fit.iterations": "count",
    "quality.gap_reference_fits": "count",
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass yields, in report order."""
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            names.append(f"{module}.{fn}.self_s")
            if f"{module}.{fn}" in CALL_METRICS:
                names.append(f"{module}.{fn}.calls")
    return names + list(COUNTER_UNITS)


class Tracer:
    """Wraps kst's public functions while installed and records their spans."""

    def __init__(self):
        self.absent: list[str] = []
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, request)
        self.request = ""
        self._stack: list[list] = []  # [span id, time covered by wrapped callees]
        self._next_id = 0
        self._patches: list[tuple[dict, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Zero the per-pass totals; spans are kept."""
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((span_id, parent, name, start, end, self.request))
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self.counters, bound.arguments, result)
                except (AttributeError, KeyError, TypeError):
                    # the function's signature or result changed shape
                    if name not in self.absent:
                        self.absent.append(name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "kst" or n.startswith("kst.")]
        self.absent = []
        for module, functions in LAYERS.items():
            home = sys.modules.get(f"kst.{module}")
            for fn_name in functions:
                name = f"{module}.{fn_name}"
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for m in modules:
                    namespace = vars(m)
                    for attr, value in list(namespace.items()):
                        if value is original:
                            self._patch(namespace, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    self._patch(value, key, wrapper)

    def _patch(self, container: dict, key: Any, wrapper: Callable) -> None:
        self._patches.append((container, key, container[key]))
        container[key] = wrapper

    def uninstall(self) -> None:
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original

    def metrics(self) -> dict[str, tuple[float, str]]:
        """This pass's per-layer values as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for module, functions in LAYERS.items():
            for fn in functions:
                name = f"{module}.{fn}"
                out[f"{name}.self_s"] = (self.self_s[name], "s")
                if name in CALL_METRICS:
                    out[f"{name}.calls"] = (self.calls[name], "count")
        for name, unit in COUNTER_UNITS.items():
            out[name] = (self.counters[name], unit)
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: id, parent id, name, start, end, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
