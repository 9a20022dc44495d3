"""Per-layer metrics of a traced run, computed from reconciled spans.

Each entry names the boundary it is measured at and how the number is
formed.  Time metrics are self time per call of the boundary (a span's
duration minus what its child spans cover, so garbage-collector pauses
and nested layers are billed to themselves).  Where a workload never
reaches a boundary the metric prints 0 and is listed as absent with
the reason; where it should reach it and the count is zero, the run
fails, so a wrapper that did not install cannot pass silently.
"""

from __future__ import annotations

#: name -> (unit, better, how).  ``how`` is one of
#: ("self", spans...)       self time per call, in the unit
#: ("inclusive", span)      inclusive time per call
#: ("payload", span, key)   counts[key] per call of span
#: ("per_op", spans...)     calls of spans per workload operation
#: ("self_per_op", spans...) self time per workload operation
#: ("calls", span)          calls of span in the traced window
#: ("extra",)               supplied by the workload
PER_LAYER = {
    "relation.insert_ms": ("ms", "lower", ("self", "relation.insert")),
    "engine.mine_ms": ("ms", "lower", ("inclusive", "engine.mine")),
    "engine.encode_ms": ("ms", "lower", ("self", "engine.mine")),
    "mining.search_ms": ("ms", "lower", ("self", "mining.search")),
    "mining.itemsets": ("count", "lower",
                        ("payload", "mining.search", "mining.search")),
    "persistence.restore_ms": ("ms", "lower",
                               ("self", "persistence.restore")),
    "journal.recover_ms": ("ms", "lower", ("self", "journal.recover")),
    "deltas.compile_ms": ("ms", "lower", ("self", "deltas.compile")),
    "engine.apply_ms": ("ms", "lower", ("self", "engine.apply")),
    "maintenance.walk_ms": ("ms", "lower", ("self", "maintenance.walk")),
    "derive.rules_ms": ("ms", "lower", ("self", "derive.rules")),
    "journal.append_ms": ("ms", "lower", ("self", "journal.append")),
    "journal.fsyncs": ("count", "lower",
                       ("payload", "journal.append", "journal.fsyncs")),
    "journal.bytes_per_event": ("B", "lower", ("extra",)),
    "journal.snapshot_ms": ("ms", "lower", ("self", "journal.snapshot")),
    "service.flush_ms": ("ms", "lower", ("self", "service.flush")),
    "service.snapshot_ms": ("ms", "lower", ("self", "service.snapshot")),
    "catalog.build_ms": ("ms", "lower", ("self", "catalog.build")),
    "catalog.builds": ("count", "lower", ("per_op", "catalog.build")),
    "catalog.query_ms": ("ms", "lower", ("self", "catalog.query")),
    "sketch.build_ms": ("ms", "lower", ("self", "sketch.build")),
    "estimate.compute_ms": ("ms", "lower", ("self", "estimate.compute")),
    # Estimate wall minus its compute, sketch and catalog children:
    # the lock / cold-path wait.
    "service.estimate_wait_ms": ("ms", "lower",
                                 ("self", "service.estimate")),
    "server.render_ms": ("ms", "lower", ("self", "server.render")),
    "server.encode_ms": ("ms", "lower", ("self", "server.encode")),
    "server.response_bytes": ("B", "lower",
                              ("payload", "server.encode", "server.encode")),
    "server.submit_us": ("us", "lower", ("self", "server.submit")),
    "server.flush_ms": ("ms", "lower", ("self", "server.flush")),
    "server.flushes": ("count", "higher", ("calls", "server.flush")),
    "server.snapshot_hit_ratio": ("ratio", "higher", ("extra",)),
    "server.rejected_429": ("count", "lower", ("extra",)),
    "gc.pause_ms": ("ms", "lower", ("self_per_op", "gc0", "gc1", "gc2")),
    "gc.gen2_collections": ("count", "lower", ("calls", "gc2")),
    "trace.unattributed_pct": ("%", "lower", ("extra",)),
    "trace.overhead_pct": ("%", "lower", ("extra",)),
}

#: Which end-to-end metric each layer should move, on which workload
#: (documentation printed beside the traced numbers).
MOVES = {
    "relation.insert_ms": "write_p50_ms (bulk-mine)",
    "engine.mine_ms": "write_p50_ms, read_p50_ms (bulk-mine)",
    "engine.encode_ms": "write_p50_ms, read_p50_ms (bulk-mine)",
    "mining.search_ms": "write_p50_ms (bulk-mine)",
    "mining.itemsets": "write_p50_ms (bulk-mine)",
    "persistence.restore_ms": "read_p50_ms (bulk-mine)",
    "journal.recover_ms": "read_p50_ms (bulk-mine)",
    "deltas.compile_ms": "write_p50_ms (curation-stream), "
                         "read_p50_ms (bulk-mine)",
    "engine.apply_ms": "write_p50_ms, work_per_s (curation-stream)",
    "maintenance.walk_ms": "write_p50_ms (curation-stream)",
    "derive.rules_ms": "write_p50_ms (curation-stream)",
    "journal.append_ms": "write_p50_ms (curation-stream)",
    "journal.fsyncs": "write_p50_ms (curation-stream)",
    "journal.bytes_per_event": "write_p50_ms (curation-stream)",
    "journal.snapshot_ms": "flush tail (curation-stream)",
    "service.flush_ms": "write_p50_ms (curation-stream)",
    "service.snapshot_ms": "read_p50_ms (bulk-mine, serve-mixed)",
    "catalog.build_ms": "read_p50_ms (curation-stream, serve-mixed)",
    "catalog.builds": "read_p50_ms (curation-stream, serve-mixed)",
    "catalog.query_ms": "read_p50_ms (curation-stream, serve-mixed)",
    "sketch.build_ms": "setup_s (curation-stream), estimate latency",
    "estimate.compute_ms": "estimate latency (curation-stream)",
    "service.estimate_wait_ms": "estimate latency (curation-stream)",
    "server.render_ms": "read_p50_ms, work_per_s (serve-mixed)",
    "server.encode_ms": "read_p50_ms, work_per_s (serve-mixed)",
    "server.response_bytes": "read_p50_ms (serve-mixed)",
    "server.submit_us": "write_p50_ms (serve-mixed)",
    "server.flush_ms": "read tail (serve-mixed)",
    "server.flushes": "read tail (serve-mixed)",
    "server.snapshot_hit_ratio": "read_p50_ms (serve-mixed)",
    "server.rejected_429": "ok_ratio (serve-mixed)",
    "gc.pause_ms": "every timing metric, all workloads",
    "gc.gen2_collections": "every timing metric, all workloads",
    "trace.unattributed_pct": "(accounting remainder)",
    "trace.overhead_pct": "(traced minus untraced write_p50_ms)",
}

#: Boundaries each workload must reach; a zero count there fails the
#: traced run.
EXPECTED = {
    "bulk-mine": (
        "relation.insert_ms", "engine.mine_ms", "engine.encode_ms",
        "mining.search_ms", "mining.itemsets", "persistence.restore_ms",
        "journal.recover_ms", "deltas.compile_ms", "engine.apply_ms",
        "derive.rules_ms", "journal.append_ms", "journal.fsyncs",
        "journal.snapshot_ms", "service.flush_ms", "service.snapshot_ms",
        "catalog.build_ms", "catalog.builds", "catalog.query_ms"),
    "curation-stream": (
        "relation.insert_ms", "engine.mine_ms", "mining.search_ms",
        "deltas.compile_ms", "engine.apply_ms", "maintenance.walk_ms",
        "derive.rules_ms", "journal.append_ms", "journal.fsyncs",
        "journal.bytes_per_event", "journal.snapshot_ms",
        "service.flush_ms", "catalog.build_ms", "catalog.builds",
        "catalog.query_ms", "sketch.build_ms", "estimate.compute_ms",
        "service.estimate_wait_ms"),
    "serve-mixed": (
        "relation.insert_ms", "engine.mine_ms", "mining.search_ms",
        "deltas.compile_ms", "engine.apply_ms", "maintenance.walk_ms",
        "derive.rules_ms", "service.snapshot_ms", "catalog.build_ms",
        "catalog.builds", "catalog.query_ms", "estimate.compute_ms",
        "server.render_ms", "server.encode_ms", "server.response_bytes",
        "server.submit_us", "server.flush_ms", "server.flushes",
        "server.snapshot_hit_ratio"),
}

#: Largest share of the traced operations' time (root spans) that may
#: be the roots' own self time, claimed by no traced layer.  A boundary
#: whose wrapper fails to install moves its time there.
#: Measured at full size: bulk-mine 0.02, curation-stream 0.01,
#: serve-mixed 0.40-0.44, where request parsing, routing and the awaits
#: of the handler are the request's own.
UNCLAIMED_BOUND = {"bulk-mine": 0.15, "curation-stream": 0.1,
                   "serve-mixed": 0.6}

_SCALE = {"ms": 1e-6, "us": 1e-3}


def _is_op(name: str) -> bool:
    return name.startswith("op.") or name == "server.request"


def compute(workload: str, recon: dict, counts: dict,
            extra: dict) -> tuple[dict, dict, list[str]]:
    """Return ``(metrics, absent, missing)``: every per-layer metric
    with value and unit, the absent ones with a reason, and the
    expected boundaries that recorded nothing."""
    self_ns = recon["self_ns"]
    calls = recon["calls"]
    inclusive = recon["inclusive_ns"]
    ops = sum(count for name, count in calls.items() if _is_op(name)) or 1
    metrics: dict = {}
    absent: dict = {}
    missing: list[str] = []
    for name, (unit, _better, how) in PER_LAYER.items():
        kind = how[0]
        value = 0.0
        seen = 0
        if kind == "self":
            seen = calls.get(how[1], 0)
            if seen:
                value = self_ns.get(how[1], 0) * _SCALE[unit] / seen
        elif kind == "inclusive":
            seen = calls.get(how[1], 0)
            if seen:
                value = inclusive.get(how[1], 0) * _SCALE[unit] / seen
        elif kind == "payload":
            seen = calls.get(how[1], 0)
            if seen:
                value = counts.get(how[2], 0) / seen
        elif kind == "per_op":
            seen = sum(calls.get(span, 0) for span in how[1:])
            value = seen / ops
        elif kind == "self_per_op":
            seen = sum(calls.get(span, 0) for span in how[1:])
            value = sum(self_ns.get(span, 0)
                        for span in how[1:]) * _SCALE[unit] / ops
        elif kind == "calls":
            seen = calls.get(how[1], 0)
            value = float(seen)
        else:
            if name in extra:
                value = float(extra[name])
                seen = 1
        metrics[name] = {"value": value, "unit": unit}
        if not seen:
            if name in EXPECTED.get(workload, ()):
                missing.append(name)
            else:
                absent[name] = f"not exercised on {workload}"
    return metrics, absent, missing
