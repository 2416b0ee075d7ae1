"""Spans around the benchmark's own calls into each gardner layer.

A span is (key, start, end, request id, detail). Spans stay in memory and
are summarised when the run ends. ``Untraced`` has the same interface and
records nothing, so the untraced run pays one extra function call per
layer call and no bookkeeping.
"""
from __future__ import annotations

from collections import defaultdict
from statistics import median
from time import perf_counter


class Untraced:
    request = 0

    def call(self, key, fn, *args, tag=None, detail=None):
        return fn(*args)


class Spans(Untraced):
    def __init__(self) -> None:
        self.records: list[tuple[str, float, float, int, str | None]] = []

    def call(self, key, fn, *args, tag=None, detail=None):
        """Run fn(*args) under a span. ``tag(result)`` may append a suffix
        chosen by the result, as in ``matrix.is_g_matrix_fast.valid``."""
        start = perf_counter()
        out = fn(*args)
        end = perf_counter()
        if tag is not None:
            key = f"{key}.{tag(out)}"
        self.records.append((key, start, end, self.request, detail))
        return out

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per key: calls, busy_s, share of wall time and median ms; per
        detail, the median ms as ``<key>.p50_ms.<detail>``."""
        by_key: dict[str, list[float]] = defaultdict(list)
        by_detail: dict[str, list[float]] = defaultdict(list)
        for key, start, end, _, detail in self.records:
            by_key[key].append(end - start)
            if detail is not None:
                by_detail[f"{key}.p50_ms.{detail}"].append(end - start)
        out: dict[str, float] = {}
        for key, times in by_key.items():
            busy = sum(times)
            out[f"{key}.calls"] = len(times)
            out[f"{key}.busy_s"] = busy
            out[f"{key}.share"] = busy / wall_s
            out[f"{key}.p50_ms"] = median(times) * 1e3
        for name, times in by_detail.items():
            out[name] = median(times) * 1e3
        return out
