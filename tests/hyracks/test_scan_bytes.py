"""DATASCAN's scanned bytes come from the scanner's source spans.

``ExecutionStats.scanned_item_bytes`` (and the profile's
``bytes_scanned``) is ``ScanCounters.scanned_bytes``: the same on every
backend and in every segment-cache state, summed per scan — a
self-join's two scans count twice — and smaller for a deeper
projection.
"""

import pytest

from repro import JsonProcessor, SensorDataConfig, write_sensor_collection
from repro.bench.queries import q0, q0b, q2
from repro.data.catalog import CollectionCatalog
from repro.jsonlib import tape
from repro.jsonlib.path import parse_path
from repro.jsonlib.textscan import ScanCounters
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.resilience.faults import FaultPlan

LISTING6 = parse_path('("root")()("results")()')
BACKENDS = ("sequential", "thread", "process")


@pytest.fixture(autouse=True)
def _no_env_cache(monkeypatch):
    monkeypatch.delenv("REPRO_SEGMENT_CACHE", raising=False)


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("sensors")
    write_sensor_collection(
        str(base),
        "sensors",
        partitions=2,
        bytes_per_partition=12_000,
        config=SensorDataConfig(seed=7),
    )
    return str(base)


def direct_bytes(base_dir, path):
    """Scanned bytes of one scan of every file, straight from the tape."""
    counters = ScanCounters()
    for file_path in CollectionCatalog(base_dir).files("/sensors"):
        for _ in tape.scan_file(file_path, path, counters=counters):
            pass
    return counters.scanned_bytes


def scanned(base_dir, query, backend="sequential", cache_dir=None, **kwargs):
    with JsonProcessor.from_directory(
        base_dir, backend=backend, segment_cache_dir=cache_dir, **kwargs
    ) as processor:
        return processor.execute(query).stats.scanned_item_bytes


class TestScannedBytes:
    def test_identical_across_backends_and_cache_states(
        self, base_dir, tmp_path
    ):
        expected = direct_bytes(base_dir, LISTING6)
        assert expected > 0
        query = q0("/sensors")
        for backend in BACKENDS:
            assert scanned(base_dir, query, backend) == expected
            cache_dir = str(tmp_path / backend)
            assert scanned(base_dir, query, backend, cache_dir) == expected  # cold
            assert scanned(base_dir, query, backend, cache_dir) == expected  # warm

    def test_fault_injecting_source_forwards_the_counters(self, base_dir):
        # A retried partition counts its successful attempt only.
        plan = FaultPlan(seed=3).fail_partition(1, times=1)
        resilience = ResilienceConfig(
            partition_policy="retry",
            retry=RetryPolicy(max_attempts=2, base_backoff_seconds=0.0, seed=3),
        )
        assert scanned(
            base_dir, q0("/sensors"), fault_plan=plan, resilience=resilience
        ) == direct_bytes(base_dir, LISTING6)

    def test_self_join_counts_both_scans(self, base_dir):
        single = direct_bytes(base_dir, LISTING6)
        for backend in BACKENDS:
            assert scanned(base_dir, q2("/sensors"), backend) == 2 * single

    def test_profile_reports_the_same_bytes(self, base_dir):
        with JsonProcessor.from_directory(base_dir) as processor:
            result = processor.execute(q0("/sensors"), profile="counter")
        (scan,) = result.profile.find("DATASCAN")
        assert scan.counters["bytes_scanned"] == direct_bytes(base_dir, LISTING6)
        assert result.stats.scanned_item_bytes == scan.counters["bytes_scanned"]

    def test_deeper_projection_forwards_fewer_bytes(self, base_dir):
        objects = scanned(base_dir, q0("/sensors"))
        dates = scanned(base_dir, q0b("/sensors"))
        assert 0 < dates < objects / 3


def test_ablation_projection_depth_reports_fewer_bytes_for_q0b():
    from repro.bench.experiments import ablation_projection_depth

    rows = {row[0]: row for row in ablation_projection_depth().rows}
    assert 0 < rows["Q0b"][2] < rows["Q0"][2]
