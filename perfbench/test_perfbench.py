"""The benchmark's own tests (tiny inputs; about a minute in total).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from inputs import WORKLOADS, generate, operation_sequence, plan_inputs  # noqa: E402
from inputs import choose_rewrite  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _run(*extra: str, workload: str, trace: int = 0, seed: int = 3):
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        "1.5",
        "--trace",
        str(trace),
        "--scale",
        "tiny",
        *extra,
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = _run(workload=workload, trace=trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    catalogue = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in catalogue]
    for metric in catalogue:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    if not trace:
        for metric in catalogue:
            assert result["metrics"][metric["name"]]["value"] > 0, metric


def test_wrong_reference_answer_lands_in_error_rate():
    result = _run("--corrupt-reference", workload="warm-mix", trace=1, seed=4)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["error_rate"]["value"] > 0


def _digest(directory: str) -> str:
    digest = hashlib.sha256()
    for root, dirs, names in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _inputs(workload: str, seed: int, directory: str):
    plan = plan_inputs(workload, seed, "tiny")
    generate(plan, directory)
    rewrite = None
    if workload == "hot-repeat":
        chosen = choose_rewrite(plan, directory)
        rewrite = (chosen["path"], chosen["offset"], chosen["versions"][1])
    return _digest(directory), plan, operation_sequence(plan, 500), rewrite


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_input_bytes_and_operation_sequence(workload, tmp_path):
    first = _inputs(workload, 7, str(tmp_path / "a"))
    again = _inputs(workload, 7, str(tmp_path / "b"))
    other = _inputs(workload, 8, str(tmp_path / "c"))
    assert first == again
    assert first[0] != other[0]
    assert first[2] != other[2]
