"""Span tracing around the library's public entry points (traced run only).

:func:`install` wraps, for the duration of the traced phase, the calls
into each layer's public functions and restores the originals on
uninstall.  Nothing inside the library changes; spans are recorded at
the layer boundaries the benchmark can see from outside:

==============================  =========================================
span                            wrapped callable
==============================  =========================================
``service.submit``              ``QueryService.submit``
``stats.snapshot``              ``CollectionCatalog.stats_snapshot``
``plan_cache.get_or_compile``   ``PlanCache.get_or_compile``
``compiler.compile``            ``compile_query`` (as the service's plan
                                cache and ``JsonProcessor`` call it)
``compiler.parse`` /            ``parse_query`` / ``translate`` /
``compiler.translate`` /        the rule pipeline's ``rewrite`` /
``compiler.rewrite`` /          ``apply_cost_planning``
``compiler.cost``
``result_cache.fingerprint``    ``source_fingerprints`` (service)
``result_cache.get``            ``ResultCache.get``
``executor.run``                ``PartitionedExecutor.run``
``backend.run_units``           ``ExecutionBackend.run_units`` of every
                                backend class
==============================  =========================================

Spans live in memory (name, start, end, parent, thread, request id) and
are written out once at the end.  A span's *self time* is its duration
minus its children's.  Work inside process-pool workers is not spanned;
its per-operator time comes from the library's own wall-clock profile.

Service requests execute on the service's slot threads, which the
benchmark cannot tag with a request id.  :func:`assign_service_groups`
splits each slot thread's top-level spans into per-execution groups
(each begins with the stats snapshot or plan-cache lookup that opens an
execution) and matches each group to the client-side request whose
submit time plus reported queue time lands on the group's start.
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    request: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: int | None = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        record = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            0.0,
            parent.id if parent is not None else None,
            threading.get_ident(),
            request,
            attrs,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "thread": span.thread,
                            "request": span.request,
                            "attrs": {
                                k: v
                                for k, v in span.attrs.items()
                                if isinstance(v, (int, float, str, bool))
                            },
                        }
                    )
                    + "\n"
                )


# -- wrapping -----------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn, annotate=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

    return wrapper


def _annotate_plan_cache(span, args, kwargs, result):
    span.attrs["query"] = args[1] if len(args) > 1 else kwargs.get("text")
    span.attrs["hit"] = bool(result[1])


def _annotate_result_get(span, args, kwargs, result):
    span.attrs["hit"] = result is not None


def _annotate_executor(span, args, kwargs, result):
    span.attrs["parallel"] = result.parallel_wall_seconds
    span.attrs["global"] = result.global_seconds
    span.attrs["exchange_tuples"] = result.stats.exchange_tuples
    span.attrs["exchange_bytes"] = result.stats.exchange_bytes
    if result.profile is not None:
        span.attrs["profile"] = profile_summary(result.profile)


def profile_summary(profile) -> dict:
    """Exclusive seconds per operator kind plus DATASCAN counters."""
    ops: dict[str, float] = {}
    scan = {"items": 0, "bytes": 0, "cache_hits": 0, "cache_misses": 0}
    scan_seconds = 0.0

    def walk(node):
        nonlocal scan_seconds
        kind = node.operator.lower()
        ops[kind] = ops.get(kind, 0.0) + node.exclusive_seconds
        if node.operator == "DATASCAN":
            scan_seconds += node.exclusive_seconds
            counters = node.counters
            scan["items"] += counters.get("items_scanned", 0)
            scan["bytes"] += counters.get("bytes_scanned", 0)
            scan["cache_hits"] += counters.get("cache_hits", 0)
            scan["cache_misses"] += counters.get("cache_misses", 0)
        for child in node.nested + node.children:
            walk(child)

    walk(profile.root)
    return {"ops": ops, "scan": scan, "scan_seconds": scan_seconds}


class _RewriteProxy:
    """Stand-in for a rule pipeline whose ``rewrite`` is spanned."""

    def __init__(self, tracer, pipeline):
        self._tracer = tracer
        self._pipeline = pipeline

    def rewrite(self, *args, **kwargs):
        with self._tracer.span("compiler.rewrite"):
            return self._pipeline.rewrite(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._pipeline, name)


def _run_units_wrapper(tracer: Tracer, original):
    @functools.wraps(original)
    def run_units(self, units):
        units = list(units)
        with tracer.span("backend.run_units") as span:
            # Sizing pickles costs time of its own; the trace.measure
            # span keeps it out of the layer's self time.
            with tracer.span("trace.measure"):
                span.attrs["unit_bytes"] = sum(
                    len(pickle.dumps(unit)) for unit in units
                )
            span.attrs["units"] = len(units)
            span.attrs["outcome_bytes"] = 0
            workers: list[float] = []
            span.attrs["worker_seconds"] = workers
            for outcome in original(self, units):
                workers.append(outcome.measured_seconds)
                with tracer.span("trace.measure"):
                    span.attrs["outcome_bytes"] += len(pickle.dumps(outcome))
                yield outcome

    return run_units


def install(tracer: Tracer):
    """Wrap every traced entry point; returns the function that unwraps."""
    import repro.compiler.pipeline as pipeline
    import repro.processor as processor
    import repro.service.plan_cache as plan_cache
    import repro.service.service as service
    import repro.stats.cost as cost
    from repro.data.catalog import CollectionCatalog
    from repro.hyracks.backends import BACKENDS
    from repro.hyracks.executor import PartitionedExecutor
    from repro.service.result_cache import ResultCache

    saved: list[tuple[object, str, object]] = []

    def replace(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(owner, attr, name, annotate=None):
        replace(
            owner, attr, _spanned(tracer, name, getattr(owner, attr), annotate)
        )

    wrap(service.QueryService, "submit", "service.submit")
    wrap(CollectionCatalog, "stats_snapshot", "stats.snapshot")
    wrap(
        plan_cache.PlanCache,
        "get_or_compile",
        "plan_cache.get_or_compile",
        _annotate_plan_cache,
    )
    wrap(plan_cache, "compile_query", "compiler.compile")
    wrap(processor, "compile_query", "compiler.compile")
    wrap(pipeline, "parse_query", "compiler.parse")
    wrap(pipeline, "translate", "compiler.translate")
    wrap(cost, "apply_cost_planning", "compiler.cost")
    original_pipeline = pipeline.rule_pipeline
    replace(
        pipeline,
        "rule_pipeline",
        functools.wraps(original_pipeline)(
            lambda *a, **k: _RewriteProxy(tracer, original_pipeline(*a, **k))
        ),
    )
    wrap(service, "source_fingerprints", "result_cache.fingerprint")
    wrap(ResultCache, "get", "result_cache.get", _annotate_result_get)
    wrap(PartitionedExecutor, "run", "executor.run", _annotate_executor)
    for backend_class in BACKENDS.values():
        replace(
            backend_class,
            "run_units",
            _run_units_wrapper(tracer, backend_class.run_units),
        )

    def uninstall():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return uninstall


# -- analysis -----------------------------------------------------------------

_GROUP_OPENERS = ("stats.snapshot", "plan_cache.get_or_compile")


def assign_service_groups(
    tracer: Tracer, requests: list[dict], client_threads: set[int]
) -> int:
    """Tag slot-thread spans with the request they executed.

    *requests* are client records with ``id``, ``query``, ``t_submit``,
    ``t_submitted`` (submit call start/end) and ``queue`` (the
    response's ``queue_seconds``).  Returns how many requests matched.
    """
    by_thread: dict[int, list[Span]] = {}
    for span in tracer.spans:
        if span.parent is None and span.thread not in client_threads:
            by_thread.setdefault(span.thread, []).append(span)
    groups: list[dict] = []
    for spans in by_thread.values():
        spans.sort(key=lambda s: s.start)
        current = None
        for span in spans:
            opens = span.name in _GROUP_OPENERS and (
                current is None
                or span.name == "stats.snapshot"
                or any(
                    s.name == "plan_cache.get_or_compile"
                    for s in current["spans"]
                )
            )
            if opens:
                current = {"start": span.start, "spans": [], "query": None}
                groups.append(current)
            if current is None:
                continue
            current["spans"].append(span)
            if span.name == "plan_cache.get_or_compile":
                current["query"] = span.attrs.get("query")
    unassigned = sorted(groups, key=lambda g: g["start"])
    matched = 0
    for request in sorted(requests, key=lambda r: r["t_submit"] + r["queue"]):
        low = request["t_submit"] + request["queue"]
        high = request["t_submitted"] + request["queue"]
        best, best_distance = None, 0.005
        for group in unassigned:
            if group["query"] != request["query"]:
                continue
            start = group["start"]
            distance = max(low - start, start - high, 0.0)
            if distance < best_distance:
                best, best_distance = group, distance
        if best is None:
            continue
        unassigned.remove(best)
        matched += 1
        request["group"] = [span.id for span in best["spans"]]
        for span in best["spans"]:
            span.request = request["id"]
    _propagate_requests(tracer)
    return matched


def _propagate_requests(tracer: Tracer) -> None:
    by_id = {span.id: span for span in tracer.spans}
    for span in sorted(tracer.spans, key=lambda s: s.start):
        if span.request is None and span.parent is not None:
            parent = by_id.get(span.parent)
            if parent is not None:
                span.request = parent.request


def self_seconds(tracer: Tracer) -> dict[int, float]:
    """Per-span self time: duration minus the children's durations."""
    child_total: dict[int, float] = {}
    for span in tracer.spans:
        if span.parent is not None:
            child_total[span.parent] = (
                child_total.get(span.parent, 0.0) + span.seconds
            )
    return {
        span.id: max(span.seconds - child_total.get(span.id, 0.0), 0.0)
        for span in tracer.spans
    }
