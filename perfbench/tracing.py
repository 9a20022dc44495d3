"""Span tracing around the program's public callables.

The benchmark never edits the program: :func:`install` replaces each
traced callable *where its caller looks the name up* (a class
attribute, or a module global such as ``repro.core.engine.compile_plan``
that the engine imported by name) with a wrapper that records a span,
and :meth:`Tracer.uninstall` puts every original back.

A span is ``(name, start_ns, end_ns, span_id, parent_id, trace_id)``.
The current span lives in a :mod:`contextvars` variable, so nesting is
right for plain calls, across threads (a new thread starts a new trace)
and across asyncio tasks (each connection handler has its own
context).  A span's parent is the innermost span of its context that
is still open, so work a task does after the span it was created under
has ended starts a trace of its own.  Garbage-collector pauses arrive
through ``gc.callbacks`` in the thread that triggered them and are
recorded as ``gc0``/``gc1``/``gc2`` child spans (by generation) of
whatever span was open, so no layer is billed for them, and a child
span never reaches outside its parent.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import inspect
import itertools
import json
import os
import time
from collections import defaultdict

_now = time.monotonic_ns  # CLOCK_MONOTONIC: comparable across processes

class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Per-name call counts and summed integer payloads (itemsets
        #: returned, bytes encoded, fsyncs issued).
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        #: Ids of the spans entered and not yet exited, in any thread.
        self._open: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started: int | None = None

    # -- recording ---------------------------------------------------------

    def _open_parent(self):
        """The innermost span of this context that is still open.  A
        task can outlive the span it was created under (a background
        flush scheduled by a request) and then sees that span in its
        copied context; what it records belongs to no ended span."""
        parent = self._current.get()
        while parent is not None and parent[0] not in self._open:
            parent = parent[2]
        return parent

    def _enter(self, name: str):
        parent = self._open_parent()
        span_id = next(self._ids)
        trace_id = parent[1] if parent is not None else span_id
        token = self._current.set((span_id, trace_id, parent))
        # Opened before its start is read and closed after its end is,
        # so a collection triggered by this bookkeeping (setting the
        # context allocates) lands inside whichever span it is billed to.
        self._open.add(span_id)
        return (name, _now(), span_id,
                parent[0] if parent is not None else None, trace_id, token)

    def _exit(self, frame, name: str | None = None) -> None:
        recorded, start, span_id, parent_id, trace_id, token = frame
        end = _now()
        self._open.discard(span_id)
        self._current.reset(token)
        self.spans.append((name or recorded, start, end, span_id, parent_id,
                           trace_id))

    def span(self, name: str):
        """Context manager recording one span (used for workload roots)."""
        return _SpanContext(self, name)

    def wrap(self, name: str, fn, *, counter=None, rename=None,
             count_only: bool = False):
        """``fn`` wrapped in a span.  ``counter(result)`` adds to
        ``counts[name]``; ``rename(result)`` names the span after the
        call (so a boundary's no-op calls can be told from its real
        work).  ``count_only`` counts calls without a span."""
        tracer = self

        if count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                frame = tracer._enter(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(frame, None if rename is None
                             else rename(result))
                if counter is not None and result is not None:
                    tracer.counts[name] += counter(result)
        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with its traced version."""
        original = inspect.getattr_static(owner, attr) \
            if inspect.isclass(owner) else getattr(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(
                self.wrap(name, original.__func__, **options))
        else:
            replacement = self.wrap(name, original, **options)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _on_gc(self, phase: str, info: dict) -> None:
        # Collections never overlap: they run under the interpreter
        # lock in the thread that triggered them.
        if phase == "start":
            self._gc_started = _now()
            return
        started, self._gc_started = self._gc_started, None
        if started is None:
            return
        parent = self._open_parent()
        span_id = next(self._ids)
        self.spans.append((
            f"gc{info.get('generation', '')}", started, _now(), span_id,
            parent[0] if parent is not None else None,
            parent[1] if parent is not None else span_id))

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every patched callable and detach the GC hook."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans and counts as one JSON document."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "span_id",
                                  "parent_id", "trace_id"],
                       "spans": self.spans,
                       "counts": dict(self.counts)},
                      handle)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._frame = self._tracer._enter(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._exit(self._frame)


def install(tracer: Tracer, *, server: bool = False) -> Tracer:
    """Install every wrapper the benchmark reads.

    ``server=True`` additionally wraps the HTTP tier (request dispatch,
    rule rendering, JSON encoding) and names the service's flush and
    submit spans as the server's.
    """
    import repro.app.service as service_module
    import repro.core.engine as engine_module
    import repro.core.persistence as persistence_module
    import repro.mining.eclat as eclat_module
    from repro.core.catalog import CatalogQuery, RuleCatalog
    from repro.core.journal import JournalStore
    from repro.mining.backend import AprioriFupBackend, _FupOverLocalMiner
    from repro.relation.relation import AnnotatedRelation

    tracer.patch(AnnotatedRelation, "insert", "relation.insert")
    tracer.patch(engine_module.CorrelationEngine, "mine", "engine.mine")
    tracer.patch(engine_module.CorrelationEngine, "apply_batch",
                 "engine.apply")
    tracer.patch(engine_module.CorrelationEngine, "warm_sketches",
                 "sketch.build")
    # The engine imported these by name: wrap them in its namespace.
    tracer.patch(engine_module, "compile_plan", "deltas.compile")
    for walk in ("refresh_for_added_items", "decay_for_removed_items",
                 "decay_for_deleted_tuples"):
        tracer.patch(engine_module, walk, "maintenance.walk")
    for derive in ("derive_rules", "derive_rules_for_unions"):
        tracer.patch(engine_module, derive, "derive.rules")
    # Initial search: the backend's miner, or the vertical miner the
    # substrate path imports from its module at call time.
    tracer.patch(AprioriFupBackend, "mine_initial", "mining.search",
                 counter=len)
    tracer.patch(_FupOverLocalMiner, "mine_initial", "mining.search",
                 counter=len)
    tracer.patch(eclat_module, "mine_frequent_itemsets_vertical",
                 "mining.search", counter=len)
    # Journal recovery looks ``persistence.restore`` up on the module.
    tracer.patch(persistence_module, "restore", "persistence.restore")
    tracer.patch(JournalStore, "recover", "journal.recover")
    tracer.patch(JournalStore, "append_batch", "journal.append")
    # Only the calls that write a snapshot count as journal.snapshot.
    tracer.patch(JournalStore, "maybe_snapshot", "journal.snapshot",
                 rename=lambda wrote: ("journal.snapshot" if wrote
                                       else "journal.snapshot_skipped"))
    tracer.patch(os, "fsync", "journal.fsyncs", count_only=True)
    tracer.patch(RuleCatalog, "__init__", "catalog.build")
    for terminal in ("top", "all", "count"):
        tracer.patch(CatalogQuery, terminal, "catalog.query")
    tracer.patch(service_module, "estimate_snapshot", "estimate.compute")
    service = service_module.CorrelationService
    tracer.patch(service, "flush",
                 "server.flush" if server else "service.flush")
    tracer.patch(service, "submit",
                 "server.submit" if server else "service.submit")
    tracer.patch(service, "snapshot", "service.snapshot")
    tracer.patch(service, "estimate", "service.estimate")
    if server:
        _install_server(tracer)
    tracer.start_gc()
    return tracer


class _TracedJson:
    """Stands in for the ``json`` module inside ``repro.server.http`` so
    response encoding is a span and its size a count."""

    def __init__(self, tracer: Tracer) -> None:
        self.loads = json.loads
        self.JSONDecodeError = json.JSONDecodeError
        self.dumps = tracer.wrap("server.encode", json.dumps,
                                 counter=len)

    def __getattr__(self, attr):
        return getattr(json, attr)


def _install_server(tracer: Tracer) -> None:
    import repro.server.http as http_module

    server_class = http_module.CorrelationServer
    tracer.patch(server_class, "_dispatch", "server.request")
    tracer.patch(http_module, "rule_to_json", "server.render")
    tracer.patch(http_module, "estimated_rule_to_json", "server.render")
    original = http_module.json
    http_module.json = _TracedJson(tracer)
    tracer._patches.append((http_module, "json", original))


# -- analysis ----------------------------------------------------------------

def self_times(spans: list[tuple]) -> dict[int, int]:
    """Self time (ns) of every span: its duration minus the part of it
    that its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, span_id, parent_id, trace_id in spans:
        if parent_id is not None:
            children[parent_id].append((start, end))
    result = {}
    for name, start, end, span_id, parent_id, trace_id in spans:
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


def _union_length(intervals: list[tuple[int, int]]) -> int:
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def reconcile(spans: list[tuple], window: tuple[int, int]) -> dict:
    """Self times by name plus the explicit remainders, over the spans
    whose trace root starts inside ``window``.

    Unless child spans overlap, ``sum(self) + unattributed - overlap ==
    wall``: ``unattributed`` is wall time no root span covers (benchmark
    code, input generation, idle) and ``overlap`` is root time counted twice
    because roots ran concurrently (a background flush beside a read,
    interleaved requests on the server's event loop).
    """
    low, high = window
    roots = {span[3]: span for span in spans
             if span[4] is None and span[1] >= low and span[1] <= high}
    inside = [span for span in spans if span[5] in roots]
    wall_end = max([high] + [span[2] for span in roots.values()])
    wall = wall_end - low
    selfs = self_times(inside)
    by_name: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for span in inside:
        by_name[span[0]] += selfs[span[3]]
        calls[span[0]] += 1
    root_intervals = [(span[1], span[2]) for span in roots.values()]
    covered = _union_length(root_intervals)
    root_total = sum(end - start for start, end in root_intervals)
    unattributed = wall - covered
    overlap = root_total - covered
    residual = sum(by_name.values()) + unattributed - overlap - wall
    return {
        "wall_ns": wall,
        "self_ns": dict(by_name),
        "root_ns": root_total,
        # A collection outside every open span is a root of its own,
        # billed to the collector, not to an operation.
        "root_self_ns": sum(selfs[span_id] for span_id, span
                            in roots.items() if not _is_gc(span[0])),
        "calls": dict(calls),
        "roots": len(roots),
        "root_names": sorted({span[0] for span in roots.values()}),
        "unattributed_ns": unattributed,
        "overlap_ns": overlap,
        "residual_ns": residual,
        "inclusive_ns": _inclusive(inside),
    }


def _is_gc(name: str) -> bool:
    return name in ("gc0", "gc1", "gc2")


def _inclusive(spans: list[tuple]) -> dict[str, int]:
    """Inclusive time by name, not double counting a name nested in
    itself."""
    parents = {span[3]: span for span in spans}
    totals: dict[str, int] = defaultdict(int)
    for span in spans:
        ancestor = span[4]
        nested = False
        while ancestor is not None and ancestor in parents:
            if parents[ancestor][0] == span[0]:
                nested = True
                break
            ancestor = parents[ancestor][4]
        if not nested:
            totals[span[0]] += span[2] - span[1]
    return dict(totals)
