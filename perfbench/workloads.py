"""The three workloads: set-up, timed phase, answer checks.

``raw-scan``
    One closed-loop client on a long-lived ``JsonProcessor`` (process
    backend, one worker per usable core, no segment or result cache)
    running whole seeded rounds of Q0, Q0b, Q1, Q1b and Q2 over two
    equal-size collections, 30 and 1 measurements per array.
``warm-mix``
    Closed-loop clients (two, or one per usable core if fewer) on a
    one-slot ``QueryService`` (a worker per core) whose segment cache is
    filled during set-up, result cache off, so each request queues
    behind the other client's; the paper queries plus one seeded Q0 date
    and one Q1 ``dataType`` variant, a third of the load per query
    class.
``hot-repeat``
    An open loop: one generator thread submits to a ``QueryService``
    with the result cache on (``content`` fingerprints) at a fixed
    rate; a collector thread awaits the responses, which are checked
    once the timed phase ends.  Reads follow
    skewed popularity over a pool that fits in the result cache, whose
    answers for both file versions are cached during set-up.  One
    operation in 20 rewrites a source file in place between its two
    versions; every read submitted after a write must see the new one.

Every configuration keeps slots x workers <= usable cores.
"""

from __future__ import annotations

import os
import queue
import shutil
import threading
import time

from common import (
    canonical,
    median,
    peak_rss_mib,
    process_sample,
    reset_peak_rss,
    tail,
    usable_cores,
)
from inputs import CLASSES, load_rewrite, write_version

#: ``hot-repeat`` offered load, operations per second.
HOT_RATE = 20.0

#: ``hot-repeat``'s latency limit for ``within_limit_share``.
HOT_LIMIT_S = 0.05

#: Nominal seconds of one ``raw-scan`` round (all ten queries once) on a
#: two-core host; ``--seconds`` buys one round per this many seconds.
RAW_ROUND_S = 7.0

#: set-ups per run; ``setup_s`` is their median.
SETUPS = 3


class System:
    """One set-up instance of a workload's system under test."""

    def __init__(self, workload, manifest, work_dir, index):
        self.workload = workload
        self.plan = manifest["plan"]
        self.data_dir = manifest["data_dir"]
        self.refs = manifest["refs"]
        self.segment_dir = None
        self.processor = None
        self.service = None
        self.version = 0
        self.rewrite = load_rewrite(manifest)
        self.cores = usable_cores()
        # raw-scan and warm-mix: one execution at a time with a worker
        # per core; hot-repeat: two slots (one per core if fewer) so a
        # hit never waits behind another.
        self.slots = min(2, self.cores) if workload == "hot-repeat" else 1
        self.workers = max(1, self.cores // self.slots)
        if workload != "raw-scan":
            self.segment_dir = os.path.join(work_dir, f"segments{index}")
            shutil.rmtree(self.segment_dir, ignore_errors=True)
        self.setup_seconds = 0.0
        self.sample_seconds = 0.0
        self.setup_failures: list[str] = []
        self.first_wave = None

    def text(self, qid: str) -> str:
        return self.plan["pool"][qid]["text"]

    def expect(self, qid: str, version: int | None = None) -> str:
        return self.refs[self.version if version is None else version][qid]

    def setup(self) -> None:
        """Open, sample, start, fork and prefill; timed as ``setup_s``."""
        from repro import CollectionCatalog, JsonProcessor, QueryService
        from repro import TenantQuota

        started = time.perf_counter()
        catalog = CollectionCatalog(self.data_dir)
        sample_start = time.perf_counter()
        catalog.stats_snapshot()
        self.sample_seconds = time.perf_counter() - sample_start
        if self.workload == "raw-scan":
            self.processor = JsonProcessor(
                catalog, backend="process", max_workers=self.cores
            )
            # The first query forks the pool; its partitions are the
            # first wave that backend.first_wave_ratio compares.
            first = self._check_setup_query("Q1@wide")
            self.first_wave = first.partition_seconds[: self.cores]
        else:
            hot = self.workload == "hot-repeat"
            self.service = QueryService(
                catalog,
                backend="process",
                max_concurrent_queries=self.slots,
                max_workers=self.workers,
                max_queue_depth=256,
                default_quota=TenantQuota(
                    max_concurrent=self.slots, max_queued=256
                ),
                result_cache_size=16 if hot else 0,
                segment_cache_dir=self.segment_dir,
            )
            if hot:
                self._prefill(sorted(self.plan["pool"]))
                self.write(1)
                self._prefill(sorted(self.plan["pool"]))
                self.write(0)
            else:
                self._prefill(["Q0", "Q0b", "Q1", "Q1b", "Q2"])
        self.setup_seconds = time.perf_counter() - started

    def _check_setup_query(self, qid):
        result = self.processor.execute(self.text(qid))
        if canonical(result.items) != self.expect(qid):
            self.setup_failures.append(f"set-up answer for {qid} differs")
        return result

    def _prefill(self, qids) -> None:
        tickets = [(qid, self.service.submit(self.text(qid))) for qid in qids]
        for qid, ticket in tickets:
            response = ticket.result()
            if canonical(response.items) != self.expect(qid):
                self.setup_failures.append(
                    f"set-up answer for {qid} (version {self.version}) differs"
                )

    def measure_first_wave(self, repeats: int = 2) -> float:
        """In-worker seconds of the fresh pool's first wave over steady state."""
        if not self.first_wave:
            return 0.0
        steady = []
        for _ in range(repeats):
            result = self._check_setup_query("Q1@wide")
            steady.append(sum(result.partition_seconds[: self.cores]))
        base = median(steady)
        return sum(self.first_wave) / base if base > 0 else 0.0

    def write(self, version: int) -> None:
        write_version(self.data_dir, self.rewrite, version)
        self.version = version

    def service_counters(self) -> dict:
        if self.service is None:
            return {"rejected": 0, "retried": 0, "failed": 0}
        stats = self.service.stats()
        return {key: stats[key] for key in ("rejected", "retried", "failed")}

    def close(self) -> None:
        if self.processor is not None:
            self.processor.close()
        if self.service is not None:
            self.service.close()
        if self.rewrite is not None and self.version != 0:
            self.write(0)


# -- timed phases -------------------------------------------------------------


class Phase:
    """Records of one timed phase."""

    def __init__(self, system):
        self.records: list[dict] = []
        self.writes: list[dict] = []
        self.started = 0.0
        self.ended = 0.0
        self.ops_used = 0
        self.client_threads: set[int] = set()
        self.classes = {
            qid: entry["class"] for qid, entry in system.plan["pool"].items()
        }


def _answered(record, items, accept) -> None:
    """Keep an answer for :func:`_verify`: serializing answers during the
    timed phase would compete with the measured threads for the GIL."""
    record["items"] = items
    record["accept"] = accept
    record["ok"] = True


def _verify(system, phase) -> None:
    """Check every kept answer against the references for its versions."""
    for record in phase.records:
        if "items" not in record:
            continue
        got = canonical(record.pop("items"))
        accept = record.pop("accept")
        record["ok"] = any(
            got == system.expect(record["qid"], v) for v in accept
        )
        if not record["ok"]:
            record["error"] = "wrong answer"


def run_raw_scan(system, ops, seconds, tracer=None, rounds=None) -> Phase:
    """Whole rounds of the pool: *rounds*, or one per
    :data:`RAW_ROUND_S` of *seconds*, so every run does the same work."""
    if rounds is None:
        rounds = max(1, round(seconds / RAW_ROUND_S))
    phase = Phase(system)
    phase.client_threads.add(threading.get_ident())
    round_len = len(system.plan["pool"])
    profile = "wall" if tracer is not None else None
    phase.started = time.perf_counter()
    index = 0
    for _ in range(rounds):
        for op in ops[index : index + round_len]:
            record = {
                "id": len(phase.records) + 1,
                "kind": "read",
                "qid": op["qid"],
                "class": system.plan["pool"][op["qid"]]["class"],
            }
            text = system.text(op["qid"])
            record["query"] = text
            t0 = record["t_submit"] = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("request", request=record["id"]):
                        result = system.processor.execute(text, profile=profile)
                else:
                    result = system.processor.execute(text, profile=profile)
                t1 = time.perf_counter()
                _answered(record, result.items, (0,))
            except Exception as error:  # recorded as a failed operation
                t1 = time.perf_counter()
                record["ok"] = False
                record["error"] = f"{type(error).__name__}: {error}"
            record["latency"] = t1 - t0
            record["from_submit"] = t1 - t0
            record["done"] = t1
            phase.records.append(record)
        index += round_len
    phase.ended = time.perf_counter()
    phase.ops_used = index
    _verify(system, phase)
    return phase


def run_warm_mix(system, ops, seconds, tracer=None, limit=None) -> Phase:
    """Closed-loop clients until *seconds* pass (or *limit* ops are used)."""
    from repro import AdmissionError

    phase = Phase(system)
    profile = "wall" if tracer is not None else None
    lock = threading.Lock()
    cursor = [0]
    phase.started = time.perf_counter()
    deadline = phase.started + seconds

    def client():
        phase.client_threads.add(threading.get_ident())
        while True:
            with lock:
                if limit is not None:
                    if cursor[0] >= limit:
                        return
                elif time.perf_counter() >= deadline:
                    return
                op = ops[cursor[0] % len(ops)]
                cursor[0] += 1
                record = {
                    "id": cursor[0],
                    "kind": "read",
                    "qid": op["qid"],
                    "class": system.plan["pool"][op["qid"]]["class"],
                }
            text = system.text(op["qid"])
            record["query"] = text
            record["t_submit"] = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("request", request=record["id"]):
                        ticket = system.service.submit(text, profile=profile)
                        record["t_submitted"] = time.perf_counter()
                        response = ticket.result()
                else:
                    ticket = system.service.submit(text, profile=profile)
                    record["t_submitted"] = time.perf_counter()
                    response = ticket.result()
                t1 = time.perf_counter()
                record["queue"] = response.queue_seconds
                record["wall"] = response.wall_seconds
                _answered(record, response.items, (0,))
            except AdmissionError as error:
                t1 = time.perf_counter()
                record["ok"] = False
                record["error"] = f"rejected: {error.reason}"
            except Exception as error:  # recorded as a failed operation
                t1 = time.perf_counter()
                record["ok"] = False
                record["error"] = f"{type(error).__name__}: {error}"
            record["latency"] = t1 - record["t_submit"]
            record["from_submit"] = record["latency"]
            record["done"] = t1
            with lock:
                phase.records.append(record)

    clients = [
        threading.Thread(target=client, name=f"perfbench-client-{i}")
        for i in range(min(2, system.cores))
    ]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    phase.ended = time.perf_counter()
    phase.ops_used = cursor[0]
    phase.records.sort(key=lambda r: r["id"])
    _verify(system, phase)
    return phase


def run_hot_repeat(system, ops, seconds, tracer=None, limit=None) -> Phase:
    """Open loop at :data:`HOT_RATE` for *seconds* (or *limit* ops)."""
    from repro import AdmissionError

    phase = Phase(system)
    phase.client_threads.add(threading.get_ident())
    pending: queue.Queue = queue.Queue()
    # (write end time, version now on disk), in order; reads accept the
    # version current at submit plus any written before they finished.
    history = [(float("-inf"), system.version)]

    def collector():
        phase.client_threads.add(threading.get_ident())
        while True:
            item = pending.get()
            if item is None:
                return
            record, ticket = item
            try:
                response = ticket.result()
                seen = time.perf_counter()
                record["queue"] = response.queue_seconds
                record["wall"] = response.wall_seconds
                done = record["t_submitted"] + record["queue"] + record["wall"]
                record["done"] = done
                record["latency"] = done - record["due"]
                record["from_submit"] = done - record["t_submit"]
                accept = {_version_at(history, record["t_submit"])}
                accept |= {
                    version
                    for when, version in list(history)
                    if record["t_submit"] < when <= seen
                }
                _answered(record, response.items, sorted(accept))
            except Exception as error:  # recorded as a failed operation
                record["ok"] = False
                record["error"] = f"{type(error).__name__}: {error}"
                record["done"] = time.perf_counter()
                record["latency"] = record["done"] - record["due"]
                record["from_submit"] = record["done"] - record["t_submit"]
            phase.records.append(record)

    worker = threading.Thread(target=collector, name="perfbench-collector")
    worker.start()
    interval = 1.0 / HOT_RATE
    phase.started = time.perf_counter()
    index = 0
    try:
        while True:
            due = phase.started + index * interval
            if limit is not None:
                if index >= limit:
                    break
            elif due >= phase.started + seconds:
                break
            op = ops[index % len(ops)]
            index += 1
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if op["kind"] == "write":
                start = time.perf_counter()
                system.write(1 - system.version)
                end = time.perf_counter()
                history.append((end, system.version))
                phase.writes.append(
                    {"due": due, "start": start, "end": end, "lag": start - due}
                )
                continue
            record = {
                "id": index,
                "kind": "read",
                "qid": op["qid"],
                "class": system.plan["pool"][op["qid"]]["class"],
                "due": due,
            }
            text = system.text(op["qid"])
            record["query"] = text
            record["t_submit"] = time.perf_counter()
            record["lag"] = record["t_submit"] - due
            try:
                if tracer is not None:
                    with tracer.span("request", request=record["id"]):
                        ticket = system.service.submit(text)
                else:
                    ticket = system.service.submit(text)
            except AdmissionError as error:
                record["ok"] = False
                record["error"] = f"rejected: {error.reason}"
                record["done"] = time.perf_counter()
                record["latency"] = record["done"] - due
                record["from_submit"] = record["done"] - record["t_submit"]
                phase.records.append(record)
                continue
            record["t_submitted"] = time.perf_counter()
            pending.put((record, ticket))
    finally:
        pending.put(None)
        worker.join()
    phase.ended = max(
        [time.perf_counter()] + [r.get("done", 0.0) for r in phase.records]
    )
    phase.ops_used = index
    phase.records.sort(key=lambda r: r["id"])
    _verify(system, phase)
    return phase


def _version_at(history, when) -> int:
    """The version on disk at *when*: the last write that ended by then."""
    return [version for end, version in history if end <= when][-1]


RUNNERS = {
    "raw-scan": run_raw_scan,
    "warm-mix": run_warm_mix,
    "hot-repeat": run_hot_repeat,
}


# -- metrics --------------------------------------------------------------------


def end_to_end(phase: Phase, setup_values: list[float]) -> dict:
    """The end-to-end metrics of one untraced phase (plus extras)."""
    reads = [r for r in phase.records if r["kind"] == "read"]
    done = [r for r in reads if "latency" in r and "rejected" not in r.get(
        "error", "")]
    latencies = [r["latency"] for r in done]
    ok = [r for r in reads if r.get("ok")]
    duration = max(phase.ended - phase.started, 1e-9)
    tail_value, tail_pct, tail_n = tail(latencies)
    metrics = {
        "setup_s": median(setup_values),
        "latency_p50_s": median(latencies),
        "latency_tail_s": tail_value,
        "throughput_qps": len(ok) / duration,
    }
    # Per query class: execution seconds (a service request's reported
    # wall time, queueing excluded; a processor call's latency), as the
    # median over the class's queries of each query's median, so the
    # figure neither mixes in the query the request queued behind nor
    # moves with how often each query happened to run.
    per_query: dict[str, list[float]] = {}
    for record in done:
        per_query.setdefault(record["qid"], []).append(
            record.get("wall", record["latency"])
        )
    query_p50 = {qid: median(values) for qid, values in per_query.items()}
    for cls in CLASSES:
        metrics[f"{cls}_p50_s"] = median(
            value
            for qid, value in query_p50.items()
            if phase.classes[qid] == cls
        )
    attempted = len(reads) + len(phase.writes)
    failed = len(reads) - len(ok)
    extras = {
        "latency_tail_percentile": tail_pct,
        "latency_samples": tail_n,
        "attempted": attempted,
        "failed": failed,
        "wrong_answers": sum(
            1 for r in reads if r.get("error") == "wrong answer"
        ),
        "error_rate": failed / attempted if attempted else 0.0,
        "errors": sorted({r["error"] for r in reads if "error" in r})[:10],
        "phase_seconds": duration,
        "class_samples": {
            cls: sum(1 for r in done if r["class"] == cls) for cls in CLASSES
        },
        "query_p50_s": dict(sorted(query_p50.items())),
        "query_samples": {q: len(v) for q, v in sorted(per_query.items())},
    }
    extras["within_limit_share"] = (
        sum(1 for r in ok if r["latency"] <= HOT_LIMIT_S) / len(reads)
        if reads
        else 0.0
    )
    extras["fresh_after_write_s"] = _fresh_after_write(phase)
    lags = [r["lag"] for r in reads if "lag" in r] + [
        w["lag"] for w in phase.writes
    ]
    extras["gen_lag_p50_s"] = median(lags)
    extras["gen_lag_max_s"] = max(lags, default=0.0)
    return metrics, extras


def _fresh_after_write(phase: Phase) -> float:
    """Median time from a write's end to the first correct later answer."""
    reads = sorted(
        (r for r in phase.records if r["kind"] == "read" and r.get("ok")),
        key=lambda r: r["t_submit"],
    )
    values = []
    for write in phase.writes:
        later = [r for r in reads if r["t_submit"] >= write["end"]]
        if later:
            values.append(min(r["done"] for r in later) - write["end"])
    return median(values)


def run_workload(
    workload: str,
    manifest: dict,
    work_dir: str,
    ops: list[dict],
    seconds: float,
    trace: bool,
) -> dict:
    """Set up, measure, tear down; returns the raw material of a report."""
    tmp_roots = [
        os.path.join(work_dir, "tmp"),
        os.path.join(work_dir, "spill"),
    ]
    setups: list[System] = []
    for index in range(SETUPS):
        system = System(workload, manifest, work_dir, index)
        if index == SETUPS - 1:
            # Leak baseline: before the measured system exists, so a
            # clean close() returns every counter to it.
            before = process_sample(tmp_roots, system.segment_dir)
        system.setup()
        setups.append(system)
        if index < SETUPS - 1:
            system.close()
    failures = [f for s in setups for f in s.setup_failures]
    first_wave_ratio = (
        system.measure_first_wave() if workload == "raw-scan" else 0.0
    )
    runner = RUNNERS[workload]
    reset_peak_rss()
    result = {
        "setup_s": [s.setup_seconds for s in setups],
        "sample_s": [s.sample_seconds for s in setups],
        "setup_failures": failures,
        "first_wave_ratio": first_wave_ratio,
        "slots": system.slots,
        "workers": system.workers,
    }
    try:
        if not trace:
            phase = runner(system, ops, seconds)
            result["phase"] = phase
            result["peak_rss_mib"] = peak_rss_mib()
        else:
            counters_before = system.service_counters()
            untraced = runner(system, ops, seconds / 2)
            result["phase"] = untraced
            result["peak_rss_mib"] = peak_rss_mib()
            from spans import Tracer, install

            tracer = Tracer()
            counters_mid = system.service_counters()
            uninstall = install(tracer)
            try:
                if workload == "raw-scan":
                    rounds = untraced.ops_used // len(system.plan["pool"])
                    traced = runner(system, ops, seconds, tracer, rounds=rounds)
                else:
                    traced = runner(
                        system, ops, seconds, tracer, limit=untraced.ops_used
                    )
            finally:
                uninstall()
            counters_after = system.service_counters()
            result["traced"] = traced
            result["tracer"] = tracer
            result["service_counters"] = {
                key: counters_after[key] - counters_mid[key]
                for key in counters_after
            }
            result["service_counters_untraced"] = {
                key: counters_mid[key] - counters_before[key]
                for key in counters_mid
            }
    finally:
        system.close()
    after = process_sample(tmp_roots, system.segment_dir)
    result["process_before"] = before
    result["process_after"] = after
    return result
