"""Spans recorded around the benchmark's calls into each layer.

A span is ``{"id", "name", "start_ns", "end_ns", "parent", "request"}``:
``parent`` is the id of the span that caused it (``None`` for a request's
root) and all spans of one request share ``request``.  Spans stay in memory
and are written as JSON lines when the run ends.

:data:`PER_LAYER` lists every per-layer metric the traced mode reports, with
its unit.  A workload reports all of them; a layer it never calls reads 0
(that workload does no work there).
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

STRATEGY_BLOCKS = (
    "select_lots",
    "lot_descriptions",
    "rank_lots",
    "to_auctions",
    "auction_descriptions",
    "rank_auctions",
    "back_to_lots",
    "mix",
)

PER_LAYER = {
    "text.analyze_us": "us",
    "ir.search_ms": "ms",
    "ir.postings_per_query": "count",
    "ir.statistics_build_ms": "ms",
    "engine.scatter_gather_ms": "ms",
    "engine.plan_cache_hit_ratio": "ratio",
    "serving.pool_ms": "ms",
    "serving.router_ms": "ms",
    "serving.http_ms": "ms",
    "serving.encode_us": "us",
    "serving.decode_us": "us",
    "serving.reply_bytes": "bytes",
    "serving.boot_s": "s",
    "serving.collapse_hits": "count",
    "workload.result_cache_hit_ratio": "ratio",
    "spinql.compile_us": "us",
    "analysis.verify_us": "us",
    "pra.optimize_us": "us",
    "pra.evaluate_ms": "ms",
    "relational.rows_out": "count",
    **{f"strategy.{block}_ms": "ms" for block in STRATEGY_BLOCKS},
    "strategy.fresh_read_ms": "ms",
    "triples.load_ms": "ms",
    "storage.save_s": "s",
    "storage.open_ms": "ms",
}

_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[dict] = []
        self._requests = 0

    def new_request(self) -> int:
        self._requests += 1
        return self._requests

    @contextmanager
    def span(self, name: str, request: int, parent: int | None = None):
        """Record one span; yields its id for child spans."""
        record = {
            "id": len(self.spans) + 1,
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
            "parent": parent,
            "request": request,
        }
        self.spans.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record["id"]
        finally:
            record["end_ns"] = time.perf_counter_ns()

    def add(self, name: str, request: int, parent: int | None, start_ns: int, end_ns: int) -> None:
        """Record a span measured elsewhere (e.g. a strategy block's timing)."""
        self.spans.append(
            {
                "id": len(self.spans) + 1,
                "name": name,
                "start_ns": start_ns,
                "end_ns": end_ns,
                "parent": parent,
                "request": request,
            }
        )

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [
            (span["end_ns"] - span["start_ns"]) / 1e9
            for span in self.spans
            if span["name"] == name
        ]

    def median(self, name: str, unit: str) -> float:
        values = self.durations(name)
        return statistics.median(values) * _SCALE[unit] if values else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def write_trace(run, workload: str, tracer: Tracer) -> None:
    """Write the run's spans to ``perfbench/_work/traces/<workload>-seed<N>.jsonl``."""
    path = run.root / "perfbench" / "_work" / "traces" / f"{workload}-seed{run.seed}.jsonl"
    tracer.write(path)
    run.note(f"trace: {len(tracer.spans)} spans in {path.relative_to(run.root)}")


def per_layer_metrics(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, ``values`` filled in and the rest 0."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}


def codec_costs(tracer: Tracer, request: int, parent: int, relation) -> int:
    """Encode and decode ``relation`` with the worker wire codec; returns bytes."""
    from repro.serving.codec import decode_message, encode_message

    with tracer.span("serving.encode", request, parent):
        frame = encode_message({"result": relation})
    with tracer.span("serving.decode", request, parent):
        decode_message(frame)
    return len(frame)
