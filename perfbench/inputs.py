"""Seeded inputs: data sets, query pools, operation sequences, references.

Everything a run consumes is derived from ``(workload, seed, scale)``:

- the JSON collections, written by ``repro.write_sensor_collection``
  with a seed-derived :class:`~repro.SensorDataConfig`;
- the query pool (paper queries Q0-Q2 and seeded constant variants);
- the operation sequence (query order, popularity, write positions);
- for ``hot-repeat``, the two versions of the rewritten source file.

Reference answers come from a one-shot *sequential* ``JsonProcessor``
with every cache and cost-based planning off, computed once per data
version and kept under ``.perfbench/refs`` keyed by a digest of the
input bytes and query texts.  :func:`prepare` runs in a child process
so its memory never counts toward the measured process's peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil

from common import canonical

WORKLOADS = ("raw-scan", "warm-mix", "hot-repeat")

KIB = 1024
MIB = 1024 * 1024

#: Data sizes per scale.  ``full`` is what the benchmark measures;
#: ``tiny`` keeps the benchmark's own tests fast.
SIZES = {
    "full": {
        "raw_partition_bytes": 512 * KIB,
        "warm_partition_bytes": 512 * KIB,
        "hot_partition_bytes": 2 * MIB,
        "file_bytes": 64 * KIB,
        "partitions": 4,
    },
    "tiny": {
        "raw_partition_bytes": 16 * KIB,
        "warm_partition_bytes": 16 * KIB,
        "hot_partition_bytes": 32 * KIB,
        "file_bytes": 4 * KIB,
        "partitions": 4,
    },
}

#: Query classes reported as ``select_p50_s`` / ``group_p50_s`` /
#: ``join_p50_s``.
CLASSES = ("select", "group", "join")

#: The paper queries (``repro.bench.queries``) and their classes.
PAPER_CLASSES = {
    "Q0": "select",
    "Q0b": "select",
    "Q1": "group",
    "Q1b": "group",
    "Q2": "join",
}

UNWRAPPED_PATH = '("results")()'


def _paper(qid: str, collection: str, wrapped: bool = True) -> str:
    from repro.bench.queries import ALL_QUERIES

    return ALL_QUERIES[qid](collection, wrapped=wrapped)


def _variant(text: str, old: str, new: str) -> str:
    """*text* with one of the paper query's constants replaced."""
    if old not in text:
        raise ValueError(f"paper query no longer contains {old!r}")
    return text.replace(old, new)


def _q0_on(collection: str, month: int, day: int) -> str:
    text = _paper("Q0", collection)
    text = _variant(
        text,
        "month-from-dateTime($datetime) eq 12",
        f"month-from-dateTime($datetime) eq {month}",
    )
    return _variant(
        text,
        "day-from-dateTime($datetime) eq 25",
        f"day-from-dateTime($datetime) eq {day}",
    )


def _q1_for(collection: str, data_type: str) -> str:
    return _variant(_paper("Q1", collection), '"TMIN"', f'"{data_type}"')


def _hot_join(collection: str, threshold: float) -> str:
    tmax = '  and $r_max("dataType") eq "TMAX"\n'
    return _variant(
        _paper("Q2", collection, wrapped=False),
        tmax,
        tmax + f'  and $r_max("value") ge {threshold}\n',
    )


def _hot_select(collection: str, threshold: float) -> str:
    return (
        f'for $r in collection("{collection}"){UNWRAPPED_PATH}\n'
        'where $r("dataType") eq "TMAX"\n'
        f'  and $r("value") ge {threshold}\n'
        "return $r"
    )


def _hot_group(collection: str, threshold: float) -> str:
    return (
        f'for $r in collection("{collection}"){UNWRAPPED_PATH}\n'
        'where $r("dataType") eq "TMAX"\n'
        f'  and $r("value") ge {threshold}\n'
        'group by $station := $r("station")\n'
        "return count($r)"
    )


#: TMAX readings at or above this value are what ``hot-repeat``'s
#: queries keep (small answers, so a hit's cost is the cache path, not
#: the answer's size); the rewritten value is one of them.
HOT_THRESHOLD = 39.5


def _config(seed: int, salt: int, measurements: int, file_bytes: int):
    from repro import SensorDataConfig

    return SensorDataConfig(
        seed=seed * 1009 + salt,
        measurements_per_array=measurements,
        target_file_bytes=file_bytes,
    )


def plan_inputs(workload: str, seed: int, scale: str = "full") -> dict:
    """What to generate and which queries to run (no I/O)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = SIZES[scale]
    rng = random.Random(f"{workload}/{seed}/pool")
    parts = sizes["partitions"]
    file_bytes = sizes["file_bytes"]
    if workload == "raw-scan":
        collections = [
            # (name, partitions, bytes/partition, measurements, wrapped)
            ("/wide", parts, sizes["raw_partition_bytes"], 30, True),
            ("/narrow", parts, sizes["raw_partition_bytes"], 1, True),
        ]
        pool = {
            f"{qid}@{coll.strip('/')}": {"text": _paper(qid, coll), "class": cls}
            for coll in ("/wide", "/narrow")
            for qid, cls in PAPER_CLASSES.items()
        }
    elif workload == "warm-mix":
        collections = [
            ("/sensors", parts, sizes["warm_partition_bytes"], 30, True)
        ]
        coll = "/sensors"
        pool = {
            qid: {"text": _paper(qid, coll), "class": cls}
            for qid, cls in PAPER_CLASSES.items()
        }
        # One seeded variant each keeps every query's sample count high
        # enough for a steady per-query median.
        month, day = rng.randrange(1, 13), rng.randrange(1, 29)
        pool[f"Q0-{month:02d}{day:02d}"] = {
            "text": _q0_on(coll, month, day),
            "class": "select",
        }
        data_type = rng.choice(["TMAX", "WIND", "PRCP"])
        pool[f"Q1-{data_type}"] = {
            "text": _q1_for(coll, data_type),
            "class": "group",
        }
    else:  # hot-repeat
        collections = [
            ("/hot", parts, sizes["hot_partition_bytes"], 30, False)
        ]
        coll = "/hot"
        pool = {
            "select": {
                "text": _hot_select(coll, HOT_THRESHOLD),
                "class": "select",
            },
            "group": {
                "text": _hot_group(coll, HOT_THRESHOLD),
                "class": "group",
            },
            "join": {
                "text": _hot_join(coll, HOT_THRESHOLD),
                "class": "join",
            },
        }
        # Fixed skew: the seed varies data and order, not the mix.
        for qid, weight in (("select", 6), ("group", 3), ("join", 1)):
            pool[qid]["weight"] = weight
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "file_bytes": file_bytes,
        "collections": [list(c) for c in collections],
        "pool": pool,
    }


def generate(plan: dict, data_dir: str) -> None:
    """Write the plan's collections under *data_dir*."""
    from repro import write_sensor_collection

    for salt, (name, parts, per_part, measurements, wrapped) in enumerate(
        plan["collections"]
    ):
        write_sensor_collection(
            data_dir,
            name,
            parts,
            per_part,
            _config(plan["seed"], salt, measurements, plan["file_bytes"]),
            wrapped=wrapped,
        )


_VALUE = re.compile(
    rb'"dataType": "TMAX", "station": "[^"]*", "value": (\d+)\.(\d)(?=[,}])'
)


def choose_rewrite(plan: dict, data_dir: str) -> dict:
    """Pick the ``hot-repeat`` file and value to rewrite in place.

    A seeded choice among TMAX readings at or above
    :data:`HOT_THRESHOLD`, so the select and join queries' answers
    differ between the two versions.  Only the last digit changes, so
    both versions have the same size and stay valid JSON.
    """
    rng = random.Random(f"{plan['workload']}/{plan['seed']}/rewrite")
    files = sorted(
        os.path.join(root, name)
        for root, _dirs, names in os.walk(data_dir)
        for name in names
        if name.endswith(".json")
    )
    candidates = []
    for path in files:
        with open(path, "rb") as handle:
            data = handle.read()
        for match in _VALUE.finditer(data):
            value = float(match.group(1) + b"." + match.group(2))
            if value >= HOT_THRESHOLD:
                candidates.append((path, match.start(2)))
    if not candidates:
        raise RuntimeError("no TMAX reading above the threshold to rewrite")
    path, offset = rng.choice(candidates)
    with open(path, "rb") as handle:
        original = handle.read()
    digit = original[offset] - ord("0")
    flipped = bytes([ord("0") + (digit + 1) % 10])
    rewritten = original[:offset] + flipped + original[offset + 1 :]
    return {
        "path": os.path.relpath(path, data_dir),
        "offset": offset,
        "versions": [original, rewritten],
    }


def _input_digest(plan: dict, data_dir: str, extra: bytes = b"") -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(plan, sort_keys=True).encode())
    for root, dirs, names in sorted(os.walk(data_dir)):
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, data_dir).encode())
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    digest.update(extra)
    return digest.hexdigest()[:32]


def reference_answer(data_dir: str, text: str) -> str:
    """One query's canonical answer from a one-shot sequential processor
    with no segment cache, no result cache and no cost-based planning."""
    from repro import CollectionCatalog, JsonProcessor

    catalog = CollectionCatalog(data_dir, segment_cache_dir="")
    with JsonProcessor(catalog, backend="sequential", cost=False) as proc:
        return canonical(proc.execute(text).items)


def reference_answers(plan: dict, data_dir: str) -> dict[str, str]:
    """Reference answers for the whole pool, one query per usable core."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from common import usable_cores

    qids = sorted(plan["pool"])
    with ProcessPoolExecutor(
        max_workers=min(usable_cores(), len(qids)),
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        futures = {
            qid: pool.submit(reference_answer, data_dir, plan["pool"][qid]["text"])
            for qid in qids
        }
        return {qid: future.result() for qid, future in futures.items()}


def write_version(data_dir: str, rewrite: dict, version: int) -> None:
    """Rewrite the chosen file in place with one of its two versions."""
    path = os.path.join(data_dir, rewrite["path"])
    with open(path, "r+b") as handle:
        handle.write(rewrite["versions"][version])


def prepare(
    workload: str, seed: int, scale: str, work_dir: str, ref_dir: str
) -> dict:
    """Generate inputs under *work_dir*/data and resolve reference answers.

    Writes ``manifest.json`` (plan, references per data version and, for
    ``hot-repeat``, the rewrite) plus ``versions/0`` and ``versions/1``
    (the rewritten file's two contents) and returns the manifest.
    """
    plan = plan_inputs(workload, seed, scale)
    data_dir = os.path.join(work_dir, "data")
    shutil.rmtree(data_dir, ignore_errors=True)
    generate(plan, data_dir)
    rewrite = None
    if workload == "hot-repeat":
        rewrite = choose_rewrite(plan, data_dir)
    extra = rewrite["versions"][1] if rewrite else b""
    key = _input_digest(plan, data_dir, extra)
    os.makedirs(ref_dir, exist_ok=True)
    ref_path = os.path.join(ref_dir, f"{workload}-{key}.json")
    try:
        with open(ref_path, encoding="utf-8") as handle:
            refs = json.load(handle)
        cached = True
    except (OSError, ValueError):
        cached = False
        refs = [reference_answers(plan, data_dir)]
        if rewrite is not None:
            write_version(data_dir, rewrite, 1)
            refs.append(reference_answers(plan, data_dir))
            write_version(data_dir, rewrite, 0)
        temp = ref_path + f".{os.getpid()}.tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(refs, handle)
        os.replace(temp, ref_path)
    manifest = {
        "plan": plan,
        "data_dir": data_dir,
        "refs": refs,
        "refs_cached": cached,
        "input_digest": key,
        "rewrite": None,
    }
    if rewrite is not None:
        versions_dir = os.path.join(work_dir, "versions")
        os.makedirs(versions_dir, exist_ok=True)
        for index, content in enumerate(rewrite["versions"]):
            with open(os.path.join(versions_dir, str(index)), "wb") as handle:
                handle.write(content)
        manifest["rewrite"] = {
            "path": rewrite["path"],
            "offset": rewrite["offset"],
            "versions_dir": versions_dir,
        }
    with open(os.path.join(work_dir, "manifest.json"), "w") as handle:
        json.dump(manifest, handle)
    return manifest


def load_rewrite(manifest: dict) -> dict | None:
    """The manifest's rewrite with both file versions loaded as bytes."""
    spec = manifest["rewrite"]
    if spec is None:
        return None
    versions = []
    for index in (0, 1):
        with open(os.path.join(spec["versions_dir"], str(index)), "rb") as f:
            versions.append(f.read())
    return {"path": spec["path"], "offset": spec["offset"], "versions": versions}


def operation_sequence(plan: dict, length: int) -> list[dict]:
    """The seeded operation sequence a run draws from, in order.

    ``raw-scan``: whole rounds, each a seeded permutation of the pool.
    ``warm-mix``: blocks of one query per class in seeded order, each a
    seeded member of its class, so every class gets a third of the load.
    ``hot-repeat``: reads by skewed popularity; one operation in every
    block of 20 is a write, at a seeded position (never the first two).
    """
    rng = random.Random(f"{plan['workload']}/{plan['seed']}/ops")
    pool = plan["pool"]
    ops: list[dict] = []
    if plan["workload"] == "raw-scan":
        ids = sorted(pool)
        while len(ops) < length:
            round_ids = ids[:]
            rng.shuffle(round_ids)
            ops.extend({"kind": "read", "qid": qid} for qid in round_ids)
        return ops[:length]
    if plan["workload"] == "warm-mix":
        by_class = {
            cls: sorted(q for q, e in pool.items() if e["class"] == cls)
            for cls in CLASSES
        }
        while len(ops) < length:
            block = list(CLASSES)
            rng.shuffle(block)
            for cls in block:
                ops.append({"kind": "read", "qid": rng.choice(by_class[cls])})
        return ops[:length]
    ids = sorted(pool)
    weights = [pool[qid]["weight"] for qid in ids]
    while len(ops) < length:
        write_at = rng.randrange(2, 20)
        for index in range(20):
            if index == write_at:
                ops.append({"kind": "write"})
            else:
                qid = rng.choices(ids, weights)[0]
                ops.append({"kind": "read", "qid": qid})
    return ops[:length]
