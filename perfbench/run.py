#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload raw-scan --seed 1 --seconds 35 --trace 0

Workloads: ``raw-scan``, ``warm-mix``, ``hot-repeat`` (see
``workloads.py``).  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs half the time untraced and then replays
the same operations with spans recorded around every layer's public
entry points, and reports the per-layer metrics (see ``report.py``).
Metric names and units come from ``BENCHMARK.json``.

A run generates its inputs from the seed in a child process, together
with reference answers from a sequential, cache-free processor (cached
per data version under ``.perfbench/refs``), then sets the system up
three times (``setup_s`` is the median), measures, checks every answer
and closes everything it started.  Human-readable lines go to stdout
first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of each run
is written to ``.perfbench/results/`` and, for traced runs, the spans
to ``.perfbench/traces/``.

``--scale tiny`` shrinks every input for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, ".perfbench")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("raw-scan", "warm-mix", "hot-repeat"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="replace one reference answer (checks the answer check)",
    )
    parser.add_argument("--prepare", metavar="WORK_DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _check_layout() -> dict:
    """The metric catalogue, or exit 2 when the program is not here."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no repro package under {SRC}; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    try:
        with open(spec_path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot read {spec_path}: {error}", file=sys.stderr)
        sys.exit(2)


def _prepare_child(args) -> None:
    """``--prepare``: generate inputs and references (child process)."""
    sys.path.insert(0, SRC)
    from inputs import prepare

    prepare(
        args.workload,
        args.seed,
        args.scale,
        args.prepare,
        os.path.join(BENCH_DIR, "refs"),
    )


def _prepare(args, work_dir: str) -> dict:
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--scale",
        args.scale,
        "--prepare",
        work_dir,
    ]
    completed = subprocess.run(command, timeout=170)
    if completed.returncode != 0:
        raise RuntimeError(f"input preparation failed ({completed.returncode})")
    with open(os.path.join(work_dir, "manifest.json"), encoding="utf-8") as f:
        return json.load(f)


def _select(values: dict, catalogue: list[dict]) -> dict:
    missing = [m["name"] for m in catalogue if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in catalogue
    }


def main(argv=None) -> int:
    args = _parse(argv)
    spec = _check_layout()
    if args.prepare:
        _prepare_child(args)
        return 0
    work_dir = os.path.join(BENCH_DIR, f"run-{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    from common import host_info, log, pin_environment

    pinned = pin_environment(work_dir)
    sys.path.insert(0, SRC)
    try:
        return _run(args, spec, work_dir, pinned, host_info())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        import multiprocessing

        leftover = multiprocessing.active_children()
        if leftover:
            log(f"perfbench: {len(leftover)} child processes still alive")


def _run(args, spec, work_dir, pinned, host) -> int:
    from common import log
    from inputs import operation_sequence
    from report import layer_metrics
    from workloads import end_to_end, run_workload

    started = time.perf_counter()
    manifest = _prepare(args, work_dir)
    log(
        f"perfbench: inputs ready in {time.perf_counter() - started:.1f}s "
        f"(references {'cached' if manifest['refs_cached'] else 'computed'})"
    )
    if args.corrupt_reference:
        first = sorted(manifest["refs"][0])[0]
        for refs in manifest["refs"]:
            refs[first] = '["deliberately wrong"]'
    ops = operation_sequence(manifest["plan"], 100_000)
    run = run_workload(
        args.workload,
        manifest,
        work_dir,
        ops,
        args.seconds,
        bool(args.trace),
    )
    metrics, extras = end_to_end(run["phase"], run["setup_s"])
    metrics["peak_rss_mib"] = run["peak_rss_mib"]
    phases = [run["phase"]]
    if args.trace:
        phases.append(run["traced"])
        values = layer_metrics(args.workload, run, extras)
        catalogue = spec["per_layer"]
    else:
        values = metrics
        catalogue = spec["end_to_end"]
    attempted = failed = wrong = 0
    errors: list[str] = []
    for phase in phases:
        _, phase_extras = end_to_end(phase, run["setup_s"])
        attempted += phase_extras["attempted"]
        failed += phase_extras["failed"]
        wrong += phase_extras["wrong_answers"]
        errors += phase_extras["errors"]
    failed += len(run["setup_failures"])
    correct = wrong == 0 and not run["setup_failures"]
    selected = _select(values, catalogue)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "host": host,
        "env": pinned,
        "slots": run["slots"],
        "workers_per_slot": run["workers"],
        "input_digest": manifest["input_digest"],
        "setup_s": run["setup_s"],
        "stats_sample_s": run["sample_s"],
        "setup_failures": run["setup_failures"],
        "errors": sorted(set(errors))[:10],
        "end_to_end": metrics,
        "extras": extras,
        # (seconds into the phase, query, latency, answered correctly)
        "samples": [
            [
                round(r["t_submit"] - run["phase"].started, 4),
                r["qid"],
                round(r.get("latency", 0.0), 5),
                r.get("ok", False),
            ]
            for r in run["phase"].records
            if r["kind"] == "read"
        ],
        "process_before": run["process_before"],
        "process_after": run["process_after"],
        "metrics": values,
    }
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(
        os.path.join(BENCH_DIR, "results", stem + ".json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if args.trace:
        os.makedirs(os.path.join(BENCH_DIR, "traces"), exist_ok=True)
        run["tracer"].dump(os.path.join(BENCH_DIR, "traces", stem + ".jsonl"))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"env {json.dumps(pinned, sort_keys=True)}")
    print(
        f"setup_s runs {[round(v, 4) for v in run['setup_s']]}; "
        f"slots {run['slots']} x workers {run['workers']}"
    )
    print(
        f"latency_tail_s is p{extras['latency_tail_percentile']:.1f} "
        f"of {extras['latency_samples']} samples; per class "
        f"{extras['class_samples']}"
    )
    for name in sorted(extras):
        value = extras[name]
        if isinstance(value, (int, float)):
            print(f"  {name:32s} {value:.6g}")
    for name, value in sorted({**metrics, **values}.items()):
        print(f"  {name:32s} {value:.6g}")
    if errors or run["setup_failures"]:
        print(f"errors {sorted(set(errors))[:5]} {run['setup_failures'][:5]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": selected,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
