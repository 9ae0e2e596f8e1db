#!/usr/bin/env python
"""Benchmark the execution backends and the scan fast path.

Generates a synthetic partitioned sensor collection and writes two
reports:

``BENCH_parallel.json`` (default) — runs Q0 / Q1 / Q2 under each
backend (``sequential``, ``thread``, ``process``): measured parallel
wall seconds of the partition phases, scanned items per second, the
speedup relative to the sequential backend on the same query, and a
cold vs warm segment-cache column per backend.  Every backend's items
are checked identical to sequential's before timing is reported, so a
speedup can never come from computing less.  Host reporting records
``os.sched_getaffinity`` (the cores this process may actually use);
when only one usable core is available, ``speedup_vs_sequential`` is
refused (``null`` + reason) — a pool of workers time-slicing one core
cannot measure parallelism.

``BENCH_scan.json`` (``--scan``) — benchmarks DATASCAN itself, once per
distinct projection the paper queries' compiled plans carry: the
product path through ``CollectionCatalog.scan_collection`` (the tape)
uncached plus segment-cache cold and warm passes, with items-per-second
and the warm-vs-cold speedup.  ``stages`` splits the tape's time into
its two phases, as "On-Demand JSON" does: stage 1 (``build_tape``, the
structural index) and stage 2 (navigation and materialization), with
the index's token count.  The raw-text skipper and the differential
harness's eager parse-then-navigate reference are timed directly on
the same files, to give ``speedup_vs_eager`` — and as a gate: the run
exits non-zero when the tape's items/s falls below the skipper's on
any projection.  Both come from the same run on the same host, so the
gate is a per-core ratio, not a cross-host time.

Usage::

    PYTHONPATH=src python tools/bench.py \
        [--out BENCH_parallel.json] [--partitions 4] \
        [--mib-per-partition 4] [--repeat 3] [--backends process,thread]
    PYTHONPATH=src python tools/bench.py --scan [--scan-out BENCH_scan.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time

from repro import JsonProcessor, SensorDataConfig, write_sensor_collection
from repro.algebra.operators import DataScan
from repro.bench.queries import ALL_QUERIES, q0, q1, q2
from repro.compiler.pipeline import compile_query
from repro.correctness.harness import eager_scan_file
from repro.data.catalog import CollectionCatalog, read_json_file
from repro.jsonlib import tape, textscan

QUERIES = {"Q0": q0, "Q1": q1, "Q2": q2}


def usable_cores() -> int:
    """Cores this process may be scheduled on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def host_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": usable_cores(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# Backend benchmark (BENCH_parallel.json)
# ---------------------------------------------------------------------------


def bench_one(base_dir: str, backend: str, query: str, repeat: int) -> dict:
    """Best-of-*repeat* timing for one (backend, query) pair."""
    with JsonProcessor.from_directory(base_dir, backend=backend) as processor:
        processor.execute(query)  # warm OS cache and worker pools
        best = None
        for _ in range(repeat):
            result = processor.execute(query)
            if best is None or (
                result.parallel_wall_seconds < best.parallel_wall_seconds
            ):
                best = result
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        with JsonProcessor.from_directory(
            base_dir, backend=backend, segment_cache_dir=cache_dir
        ) as processor:
            start = time.perf_counter()
            cold = processor.execute(query)
            cold_seconds = time.perf_counter() - start
            start = time.perf_counter()
            warm = processor.execute(query)
            warm_seconds = time.perf_counter() - start
            if warm.items != best.items or cold.items != best.items:
                raise SystemExit(f"{backend}: cached items differ from uncached")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "items": best.items,
        "strategy": best.strategy,
        "parallel_wall_seconds": best.parallel_wall_seconds,
        "wall_seconds": best.wall_seconds,
        "items_scanned": best.stats.items_scanned,
        "items_per_second": (
            best.stats.items_scanned / best.parallel_wall_seconds
            if best.parallel_wall_seconds > 0
            else None
        ),
        "cache_cold_wall_seconds": cold_seconds,
        "cache_warm_wall_seconds": warm_seconds,
    }


def run(args: argparse.Namespace) -> dict:
    cores = usable_cores()
    report: dict = {
        "host": host_info(),
        "config": {
            "partitions": args.partitions,
            "bytes_per_partition": args.mib_per_partition << 20,
            "repeat": args.repeat,
            "backends": args.backends,
        },
        "queries": {},
    }
    if cores <= 1:
        report["speedup_note"] = (
            "speedup_vs_sequential withheld: only one usable core "
            "(os.sched_getaffinity) — parallel backends cannot beat "
            "sequential by running on the same core"
        )
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as base_dir:
        write_sensor_collection(
            base_dir,
            "sensors",
            partitions=args.partitions,
            bytes_per_partition=args.mib_per_partition << 20,
            config=SensorDataConfig(seed=args.seed),
        )
        for name, make_query in QUERIES.items():
            query = make_query("/sensors")
            entries: dict = {}
            baseline = bench_one(base_dir, "sequential", query, args.repeat)
            entries["sequential"] = baseline
            for backend in args.backends:
                if backend == "sequential":
                    continue
                entry = bench_one(base_dir, backend, query, args.repeat)
                if entry.pop("items") != baseline["items"]:
                    raise SystemExit(
                        f"{name}: {backend} items differ from sequential"
                    )
                entries[backend] = entry
            baseline.pop("items")
            for backend, entry in entries.items():
                entry["speedup_vs_sequential"] = (
                    baseline["parallel_wall_seconds"]
                    / entry["parallel_wall_seconds"]
                    if cores > 1 and entry["parallel_wall_seconds"] > 0
                    else None
                )
            report["queries"][name] = entries
            summary = ", ".join(
                f"{backend} {entry['parallel_wall_seconds']:.3f}s"
                + (
                    f" ({entry['speedup_vs_sequential']:.2f}x)"
                    if entry["speedup_vs_sequential"] is not None
                    else ""
                )
                for backend, entry in entries.items()
            )
            print(f"{name}: {summary}")
    return report


# ---------------------------------------------------------------------------
# Scan benchmark (BENCH_scan.json)
# ---------------------------------------------------------------------------


def paper_projections() -> dict:
    """Each distinct DATASCAN projection of the paper queries.

    Maps the projection to ``(path, query names)``, compiled with the
    default rewrite rules — exactly what the product scans.
    """
    shapes: dict = {}
    for name, make_query in ALL_QUERIES.items():
        plan = compile_query(make_query("/sensors")).plan
        for scan in plan.operators_of(DataScan):
            path, names = shapes.setdefault(
                str(scan.project_path), (scan.project_path, [])
            )
            if name not in names:
                names.append(name)
    return shapes


def _best_of(repeat: int, scan) -> tuple[float, int]:
    """Best wall seconds of *repeat* calls of *scan* (returns an item
    count; every call must agree)."""
    best = None
    items = None
    for _ in range(repeat):
        start = time.perf_counter()
        count = scan()
        seconds = time.perf_counter() - start
        if items is not None and count != items:
            raise SystemExit("scan item counts differ across repeats")
        items = count
        best = seconds if best is None else min(best, seconds)
    return best, items


def _catalog_scan(catalog: CollectionCatalog, path):
    return lambda: sum(1 for _ in catalog.scan_collection("/sensors", path))


def _direct_scan(scan, files: list[str], path):
    return lambda: sum(len(list(scan(file_path, path))) for file_path in files)


def _stage_split(files: list[str], path) -> dict:
    """Time the tape's two phases separately over every record.

    Stage 1 is ``build_tape`` (indexing, including the span decodes);
    stage 2 is navigation over the built tape.  Records are timed one
    at a time so only one file's tapes are alive at once.
    """
    index_seconds = navigate_seconds = 0.0
    records = tokens = items = 0
    plan = tape.index_plan(path)
    clock = time.perf_counter
    for file_path in files:
        text = read_json_file(file_path)
        pos = textscan._skip_ws(text, 0)
        while pos < len(text):
            out: list = []
            start = clock()
            record, pos = tape.build_tape(text, pos, *plan)
            built = clock()
            tape.navigate_tape(text, record, path, out, None)
            index_seconds += built - start
            navigate_seconds += clock() - built
            records += 1
            tokens += len(record)
            items += len(out)
            pos = textscan._skip_ws(text, pos)
    return {
        "index_seconds": index_seconds,
        "navigate_seconds": navigate_seconds,
        "tape_records": records,
        "tape_tokens": tokens,
        "items": items,
    }


def bench_projection(base_dir: str, path, repeat: int) -> dict:
    """Product scan (uncached, cache cold, cache warm) of one projection,
    plus the skipper and eager reference for ``speedup_vs_eager``."""
    catalog = CollectionCatalog(base_dir, segment_cache_dir="")
    files = catalog.files("/sensors")
    _catalog_scan(catalog, path)()  # warm the OS page cache
    uncached, items = _best_of(repeat, _catalog_scan(catalog, path))
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        cached = CollectionCatalog(base_dir, segment_cache_dir=cache_dir)
        cold, cold_items = _best_of(1, _catalog_scan(cached, path))
        warm, warm_items = _best_of(repeat, _catalog_scan(cached, path))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    references = {
        "text": _best_of(repeat, _direct_scan(textscan.scan_file, files, path)),
        "eager": _best_of(repeat, _direct_scan(eager_scan_file, files, path)),
    }
    stages = min(
        (_stage_split(files, path) for _ in range(repeat)),
        key=lambda split: split["index_seconds"] + split["navigate_seconds"],
    )
    counts = {
        cold_items,
        warm_items,
        stages.pop("items"),
        *(n for _, n in references.values()),
    }
    if counts != {items}:
        raise SystemExit(f"{path}: scanners disagree on the item count")
    eager_seconds = references["eager"][0]
    return {
        "items": items,
        "uncached_seconds": uncached,
        "items_per_second": items / uncached if uncached > 0 else None,
        "speedup_vs_eager": eager_seconds / uncached if uncached > 0 else None,
        "cache_cold_seconds": cold,
        "cache_warm_seconds": warm,
        "warm_speedup_vs_cold": cold / warm if warm > 0 else None,
        "stages": stages,
        "references": {
            name: {
                "uncached_seconds": seconds,
                "items_per_second": items / seconds if seconds > 0 else None,
                "speedup_vs_eager": (
                    eager_seconds / seconds if seconds > 0 else None
                ),
            }
            for name, (seconds, _) in references.items()
        },
    }


def slower_than_skipper(report: dict) -> list[str]:
    """Projections whose tape items/s is below the raw skipper's."""
    return [
        projection
        for projection, entry in report["projections"].items()
        if entry["items_per_second"]
        < entry["references"]["text"]["items_per_second"]
    ]


def run_scan(args: argparse.Namespace) -> dict:
    report: dict = {
        "host": host_info(),
        "config": {
            "partitions": args.partitions,
            "bytes_per_partition": args.mib_per_partition << 20,
            "repeat": args.repeat,
        },
        "projections": {},
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as base_dir:
        write_sensor_collection(
            base_dir,
            "sensors",
            partitions=args.partitions,
            bytes_per_partition=args.mib_per_partition << 20,
            config=SensorDataConfig(seed=args.seed),
        )
        for projection, (path, names) in paper_projections().items():
            entry = bench_projection(base_dir, path, args.repeat)
            entry["queries"] = names
            report["projections"][projection] = entry
            print(
                f"scan {projection} ({'/'.join(names)}): "
                f"uncached {entry['uncached_seconds']:.3f}s "
                f"({entry['items_per_second']:.0f} items/s, "
                f"{entry['speedup_vs_eager']:.1f}x eager), "
                f"cold {entry['cache_cold_seconds']:.3f}s, "
                f"warm {entry['cache_warm_seconds']:.3f}s "
                f"({entry['warm_speedup_vs_cold']:.1f}x); "
                f"index {entry['stages']['index_seconds']:.3f}s "
                f"({entry['stages']['tape_tokens']} tokens), "
                f"navigate {entry['stages']['navigate_seconds']:.3f}s; "
                f"skipper {entry['references']['text']['items_per_second']:.0f}"
                " items/s"
            )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--out", default="BENCH_parallel.json")
    parser.add_argument("--scan-out", default="BENCH_scan.json")
    parser.add_argument(
        "--scan",
        action="store_true",
        help="benchmark DATASCAN / segment cache instead of backends",
    )
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--mib-per-partition", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--backends",
        default="thread,process",
        help="comma-separated backends to compare against sequential",
    )
    args = parser.parse_args(argv)
    args.backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if args.scan:
        report = run_scan(args)
        out = args.scan_out
    else:
        report = run(args)
        out = args.out
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    if args.scan:
        slow = slower_than_skipper(report)
        if slow:
            print(
                "FAIL: the tape scans fewer items/s than the raw skipper "
                f"on {', '.join(slow)}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
