"""Shared helpers: pinned environment, host facts, statistics, process probes.

Nothing here imports :mod:`repro`; the entry point pins the environment
before the library is first imported.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import threading

#: Every ``REPRO_*`` variable the library reads, with the value each run
#: pins it to.  ``None`` means "set to the work-directory path named by
#: :func:`pin_environment`".  An empty string is the library's explicit
#: "off" (see ``repro.envutil``).
PINNED_ENV = {
    "REPRO_BACKEND": "",
    "REPRO_PROFILE": "",
    "REPRO_SEGMENT_CACHE": "",
    "REPRO_SCAN_MODE": "ondemand",
    "REPRO_COST": "on",
    "REPRO_CACHE_FINGERPRINT": "content",
    "REPRO_DEADLINE": "",
    "REPRO_SPILL_DIR": None,
    "REPRO_STATS_SAMPLE": "64",
    "REPRO_BENCH_SCALE": "",
}


def pin_environment(work_dir: str) -> dict:
    """Clear every inherited ``REPRO_*`` variable and set the pinned ones.

    Temporary files (the service's cancel-flag directory, crash
    sentinels, spill scopes) are redirected under *work_dir* so a run
    reads and writes only inside its own checkout.  Returns the pinned
    values for the result record.
    """
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    tmp_dir = os.path.join(work_dir, "tmp")
    spill_dir = os.path.join(work_dir, "spill")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(spill_dir, exist_ok=True)
    pinned = {}
    for name, value in PINNED_ENV.items():
        value = spill_dir if value is None else value
        os.environ[name] = value
        pinned[name] = value
    os.environ["TMPDIR"] = tmp_dir
    import tempfile

    tempfile.tempdir = tmp_dir
    return pinned


def usable_cores() -> int:
    """Cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def host_info() -> dict:
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        affinity = None
    return {
        "affinity_cores": affinity,
        "usable_cores": usable_cores(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def canonical(items) -> str:
    """Byte-comparable serialization of a result item list."""
    return json.dumps(items, separators=(",", ":"))


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def tail(values, beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile that has at least *beyond* samples above it.

    Returns ``(value, percentile, samples)``.  With ``n`` sorted samples
    the value at index ``n - beyond - 1`` has exactly *beyond* samples
    after it; with too few samples for that, the maximum is returned
    and the percentile reads 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= beyond:
        return ordered[-1], 100.0, n
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, n


# -- process probes -----------------------------------------------------------


def _status_kib(pid, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> bool:
    """Reset this process's peak-RSS mark (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mib() -> float:
    """Peak RSS of this process plus its largest live child, in MiB."""
    import multiprocessing

    own = _status_kib("self", "VmHWM")
    children = [
        _status_kib(child.pid, "VmHWM")
        for child in multiprocessing.active_children()
    ]
    return (own + max(children, default=0)) / 1024.0


def rss_mib() -> float:
    return _status_kib("self", "VmRSS") / 1024.0


def count_entries(*roots: str, suffix: str | None = None) -> int:
    """Files and directories below *roots* (optionally only *suffix*)."""
    total = 0
    for root in roots:
        if not root or not os.path.isdir(root):
            continue
        for _dirpath, dirnames, filenames in os.walk(root):
            names = dirnames + filenames
            if suffix is not None:
                names = [name for name in names if name.endswith(suffix)]
            total += len(names)
    return total


def process_sample(tmp_roots: list[str], segment_dir: str | None) -> dict:
    """Threads, open fds, RSS and temp entries of this process right now."""
    try:
        fds = len(os.listdir("/proc/self/fd"))
    except OSError:
        fds = 0
    return {
        "threads": threading.active_count(),
        "fds": fds,
        "rss_mib": rss_mib(),
        "tmp_entries": count_entries(*tmp_roots)
        + count_entries(segment_dir or "", suffix=".tmp"),
    }


def log(message: str) -> None:
    """Progress line on stderr (stdout carries the report)."""
    print(message, file=sys.stderr, flush=True)
