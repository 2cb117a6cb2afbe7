"""Latency-attribution and resource-profile reports (``pacon-bench profile``).

Turns one observed run's tracer + hub state into two human-readable
tables and a top-N list:

* per-op-class mean latency decomposed into the attribution buckets
  (cache, network, queue_wait, barrier, publish_stall, mds_service,
  mds_queue) plus the explicit residual — the sum of the printed columns
  reconstructs the mean end-to-end latency exactly;
* the top-N slowest individual operations with their own breakdowns and
  span trees' worth of context (op, path, outcome);
* per-resource utilization and queueing: lifetime utilization, busy
  time, acquires, total/mean wait, and the peak queue length.

All numbers come from :func:`repro.obs.hub.attribution_rollup` and
:meth:`MetricsHub.resource_snapshot`, so the report always agrees with
the exported ``pacon.metrics/v4`` document.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.hub import attribution_rollup
from repro.sim.trace import ATTRIBUTION_BUCKETS, Tracer

__all__ = ["slowest_ops", "render_attribution_table",
           "render_slowest_ops", "render_resource_table", "render_report"]


def slowest_ops(tracer: Tracer, top: int = 10) -> List[Dict[str, Any]]:
    """The ``top`` highest-latency completed ops with their attributions.

    Ties break on op_id so the ordering (and any file written from it)
    is deterministic for same-seed runs.
    """
    attributions = tracer.attributions() if tracer.enabled else {}
    ranked = sorted(attributions.items(),
                    key=lambda kv: (-kv[1]["duration"], kv[0]))
    return [dict(att, op_id=op_id) for op_id, att in ranked[:top]]


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:.2f}"


def render_attribution_table(tracer: Tracer) -> str:
    """Per-op-class mean latency decomposition (all times in µs)."""
    rollup = attribution_rollup(tracer)
    if not rollup["ops"]:
        return "no completed operations traced"
    headers = (["op", "count", "mean_us"] + list(ATTRIBUTION_BUCKETS)
               + ["residual"])
    rows = []
    for op_class in sorted(rollup["ops"]):
        entry = rollup["ops"][op_class]
        rows.append([op_class, str(entry["count"]),
                     _us(entry["mean_latency"])]
                    + [_us(entry["buckets"][b]) for b in ATTRIBUTION_BUCKETS]
                    + [_us(entry["residual"])])
    return _table(headers, rows)


def render_slowest_ops(tracer: Tracer, top: int = 10) -> str:
    """Top-N slowest ops, one line each, with bucket breakdowns in µs."""
    ops = slowest_ops(tracer, top=top)
    if not ops:
        return "no completed operations traced"
    headers = (["op_id", "op", "dur_us"] + list(ATTRIBUTION_BUCKETS)
               + ["residual", "detail"])
    rows = []
    for att in ops:
        rows.append([str(att["op_id"]), att["op"], _us(att["duration"])]
                    + [_us(att["buckets"][b]) for b in ATTRIBUTION_BUCKETS]
                    + [_us(att["residual"]), att["detail"]])
    return _table(headers, rows)


def render_resource_table(hub) -> str:
    """Per-resource utilization/queueing table (waits in µs)."""
    snapshot = hub.resource_snapshot()
    if not snapshot:
        return "no resources registered"
    headers = ["resource", "cap", "util", "busy_us", "acquires",
               "wait_us", "mean_wait_us", "peak_q"]
    rows = []
    for name in sorted(snapshot):
        res = snapshot[name]
        acquires = res["total_acquires"]
        mean_wait = res["total_wait_time"] / acquires if acquires else 0.0
        rows.append([
            name, str(res["capacity"]), f"{res['utilization']:.3f}",
            _us(res["busy_time"]), str(acquires),
            _us(res["total_wait_time"]), _us(mean_wait),
            str(res["peak_queue"]),
        ])
    return _table(headers, rows)


def render_report(hub, tracer: Optional[Tracer] = None,
                  top: int = 10) -> str:
    """The full ``pacon-bench profile`` report."""
    tracer = tracer if tracer is not None else hub.tracer
    parts = [
        "== Latency attribution by op class (mean, us) ==",
        render_attribution_table(tracer),
        "",
        f"== Top {top} slowest operations ==",
        render_slowest_ops(tracer, top=top),
        "",
        "== Resource utilization and queueing ==",
        render_resource_table(hub),
    ]
    open_spans = tracer.open_span_count()
    if open_spans:
        parts.append(f"\n... {open_spans} spans still open")
    return "\n".join(parts)


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(cells)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
