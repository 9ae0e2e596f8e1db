"""Turn a run's records and spans into named metrics.

End-to-end metrics come from the untraced phase only.  Per-layer
metrics come from the traced phase: ``*_s`` layer times are seconds per
request (a layer's total over the phase divided by the requests
measured), so they add up along one request; ``*_p50_s`` / ``*_tail_s``
are distributions; counts and bytes are per request unless named as a
total.  A layer a workload never enters reads 0.
"""

from __future__ import annotations

from common import mean, median, tail
from spans import assign_service_groups, self_seconds

#: Operator kinds reported as ``op.<kind>_s``.
OPERATORS = (
    "datascan",
    "assign",
    "select",
    "unnest",
    "subplan",
    "aggregate",
    "group-by",
    "join",
    "sort",
    "distribute-result",
)

MIB = 1024 * 1024


def layer_metrics(workload: str, run: dict, extras: dict) -> dict:
    """Per-layer metrics of the traced phase (see module docstring)."""
    traced = run["traced"]
    tracer = run["tracer"]
    reads = [r for r in traced.records if r["kind"] == "read"]
    n = max(len(reads), 1)
    service_reads = [r for r in reads if "t_submitted" in r and "queue" in r]
    matched = 0
    if workload != "raw-scan":
        matched = assign_service_groups(
            tracer, service_reads, traced.client_threads
        )
    spans = tracer.spans
    by_id = {span.id: span for span in spans}
    own = self_seconds(tracer)

    def total(name: str) -> float:
        return sum(span.seconds for span in spans if span.name == name)

    def named(name: str):
        return [span for span in spans if span.name == name]

    lookups = named("plan_cache.get_or_compile")
    gets = named("result_cache.get")
    runs = named("executor.run")
    unit_runs = named("backend.run_units")
    workers = [w for span in unit_runs for w in span.attrs["worker_seconds"]]
    profiles = [span.attrs["profile"] for span in runs if "profile" in span.attrs]
    queues = [r["queue"] for r in service_reads]
    walls = [r["wall"] for r in service_reads]
    counters = run["service_counters"]

    metrics = {
        "service.submit_s": total("service.submit") / n,
        "service.queue_p50_s": median(queues),
        "service.queue_tail_s": tail(queues)[0],
        "service.exec_p50_s": median(walls),
        "service.rejected": counters["rejected"],
        "service.retried": counters["retried"],
        "service.failed": counters["failed"],
        "plan_cache.hit_ratio": _ratio(
            sum(1 for s in lookups if s.attrs.get("hit")), len(lookups)
        ),
        "compiler.compile_s": total("compiler.compile") / n,
        "compiler.parse_s": total("compiler.parse") / n,
        "compiler.translate_s": total("compiler.translate") / n,
        "compiler.rewrite_s": total("compiler.rewrite") / n,
        "compiler.cost_s": total("compiler.cost") / n,
        "compiler.calls": len(named("compiler.compile")),
        "stats.sample_s": median(run["sample_s"]),
        "stats.snapshot_s": total("stats.snapshot") / n,
        "result_cache.hit_ratio": _ratio(
            sum(1 for s in gets if s.attrs.get("hit")), len(gets)
        ),
        "result_cache.fingerprint_s": total("result_cache.fingerprint") / n,
        "result_cache.get_s": total("result_cache.get") / n,
        "executor.run_s": total("executor.run") / n,
        "executor.parallel_s": sum(s.attrs["parallel"] for s in runs) / n,
        "executor.global_s": sum(s.attrs["global"] for s in runs) / n,
        "backend.run_units_s": sum(own[s.id] for s in unit_runs) / n,
        "backend.worker_p50_s": median(workers),
        "backend.worker_max_s": mean(
            max(s.attrs["worker_seconds"], default=0.0) for s in unit_runs
        ),
        "backend.dispatch_s": sum(
            max(own[s.id] - max(s.attrs["worker_seconds"], default=0.0), 0.0)
            for s in unit_runs
        )
        / n,
        "backend.unit_bytes": sum(s.attrs["unit_bytes"] for s in unit_runs) / n,
        "backend.outcome_bytes": sum(
            s.attrs["outcome_bytes"] for s in unit_runs
        )
        / n,
        "backend.first_wave_ratio": run["first_wave_ratio"],
        "exchange.tuples": sum(s.attrs["exchange_tuples"] for s in runs) / n,
        "exchange.bytes": sum(s.attrs["exchange_bytes"] for s in runs) / n,
    }
    for kind in OPERATORS:
        metrics[f"op.{kind}_s"] = (
            sum(p["ops"].get(kind, 0.0) for p in profiles) / n
        )
    scan_bytes = sum(p["scan"]["bytes"] for p in profiles)
    scan_seconds = sum(p["scan_seconds"] for p in profiles)
    hits = sum(p["scan"]["cache_hits"] for p in profiles)
    misses = sum(p["scan"]["cache_misses"] for p in profiles)
    metrics["scan.items"] = sum(p["scan"]["items"] for p in profiles) / n
    metrics["scan.mib_s"] = (
        scan_bytes / MIB / scan_seconds if scan_seconds > 0 else 0.0
    )
    metrics["segments.hit_ratio"] = _ratio(hits, hits + misses)

    # Unattributed time: a request's wall minus what its layers account
    # for (client-side spans under the request root, the reported queue
    # wait, and the slot-thread spans matched to it).
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
    roots = {s.request: s for s in spans if s.name == "request"}
    wall_total = unattributed = 0.0
    for record in reads:
        wall = record.get("from_submit", 0.0)
        root = roots.get(record["id"])
        accounted = children.get(root.id, 0.0) if root is not None else 0.0
        accounted += record.get("queue", 0.0)
        accounted += sum(by_id[i].seconds for i in record.get("group", ()))
        wall_total += wall
        unattributed += max(wall - accounted, 0.0)
    metrics["trace.unattributed_share"] = _ratio(unattributed, wall_total)
    metrics["trace.matched_share"] = (
        _ratio(matched, len(service_reads)) if service_reads else 1.0
    )
    untraced_wall = sum(
        r.get("from_submit", 0.0)
        for r in run["phase"].records
        if r["kind"] == "read"
    )
    metrics["trace.overhead"] = (
        wall_total / untraced_wall - 1.0 if untraced_wall > 0 else 0.0
    )
    metrics["gen.lag_p50_s"] = extras["gen_lag_p50_s"]
    metrics["gen.lag_max_s"] = extras["gen_lag_max_s"]
    before, after = run["process_before"], run["process_after"]
    metrics["proc.threads_delta"] = after["threads"] - before["threads"]
    metrics["proc.fds_delta"] = after["fds"] - before["fds"]
    metrics["proc.tmp_entries_delta"] = (
        after["tmp_entries"] - before["tmp_entries"]
    )
    metrics["error_rate"] = extras["error_rate"]
    metrics["fresh_after_write_s"] = extras["fresh_after_write_s"]
    metrics["within_50ms_share"] = extras["within_limit_share"]
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
