"""Collection catalogs: partitioned data sources for the runtime.

A :class:`CollectionCatalog` maps collection names (the strings queries
pass to ``collection("...")``) to partitioned directories of JSON files
and implements the :class:`~repro.algebra.context.DataSource` protocol:

- ``read_collection`` materializes every item (the naive strategy the
  un-rewritten plans use),
- ``scan_collection`` streams items through the on-demand tape scanner
  (:mod:`repro.jsonlib.tape`) — the DATASCAN strategy,
- ``partition_count`` drives partitioned-parallel execution.

:class:`InMemorySource` provides the same protocol over in-memory JSON
texts, for tests and small examples.  Both run one per-file routine
(:class:`_ScanSource`); a source only says how to list, read,
tape-scan and fingerprint its files or texts.

Both sources take an ``on_malformed`` policy (``fail`` | ``skip_record``
| ``skip_file``) deciding what a scan does with malformed JSON, and an
``attach_degradation`` hook the executor uses to collect the skips of
one query into its :class:`~repro.resilience.report.DegradationReport`.
"""

from __future__ import annotations

import os
import threading
from typing import Iterator

from repro.cache.config import resolve_segment_cache, validate_fingerprint_mode
from repro.cache.segments import canonical_projection, text_fingerprint
from repro.errors import FileScanError, JsonError, ReproError
from repro.jsonlib import tape
from repro.jsonlib.items import Item
from repro.jsonlib.parser import parse, parse_many, parse_many_resilient
from repro.jsonlib.path import Path
from repro.jsonlib.textscan import ScanCounters
from repro.resilience.policies import validate_on_malformed
from repro.stats.sampling import SourceStatistics

_BOM = "\ufeff"


def _normalize(name: str) -> str:
    return "/" + name.strip("/")


def blank_bom(text: str) -> str:
    """Replace a leading byte-order mark with a space.

    The scanners accept a BOM-prefixed text (RFC 8259); the parser does
    not.  Blanking rather than stripping keeps every later offset where
    the scanner reports it, so ``skip_record`` events line up.
    """
    return " " + text[1:] if text.startswith(_BOM) else text


def read_json_file(file_path: str) -> str:
    """A JSON file's text, a leading BOM dropped (as ``tape.scan_file``)."""
    with open(file_path, "r", encoding="utf-8-sig") as handle:
        return handle.read()


class _ScanSource:
    """Everything the two sources share: the malformed-input policy, the
    segment cache, per-thread attachments, and the one per-file routine
    behind ``read_collection`` and ``scan_collection``.

    A subclass keeps its collections in ``_collections`` (normalized
    name -> partitions) and supplies ``_entries`` (``(label, source)``
    per file or text), ``_read_text``, ``_scan`` (the tape scanner for
    its kind of source) and ``_fingerprint``.
    """

    def __init__(
        self,
        on_malformed: str,
        segment_cache_dir: str | None,
        fingerprint_mode: str | None,
        stats_sample: int | None,
    ):
        self.on_malformed = validate_on_malformed(on_malformed)
        self.segment_cache = resolve_segment_cache(
            segment_cache_dir, fingerprint_mode
        )
        self.stats = SourceStatistics(stats_sample)
        self._local = threading.local()

    def configure_scan(
        self,
        segment_cache_dir: str | None = None,
        fingerprint_mode: str | None = None,
    ) -> None:
        """Override the segment cache after construction.

        ``None`` leaves a setting untouched; an empty
        ``segment_cache_dir`` string disables the cache.
        ``fingerprint_mode`` (``"stat"`` | ``"content"``) selects how
        cached files detect changes; in-memory texts are always keyed
        by content hash.
        """
        if segment_cache_dir is not None:
            self.segment_cache = resolve_segment_cache(
                segment_cache_dir, fingerprint_mode
            )
        elif fingerprint_mode is not None and self.segment_cache is not None:
            self.segment_cache.fingerprint_mode = validate_fingerprint_mode(
                fingerprint_mode
            )

    # -- resilience wiring -------------------------------------------------------

    @property
    def _report(self):
        return getattr(self._local, "report", None)

    @property
    def _counters(self):
        return getattr(self._local, "scan_counters", None)

    def attach_degradation(self, report) -> None:
        """Attach (or detach, with None) a degradation report.

        While attached, records and files skipped under a non-``fail``
        ``on_malformed`` policy are recorded on *report*.  The
        attachment is **per thread**, so parallel execution backends can
        give every partition worker its own report without racing.
        """
        self._local.report = report

    def attach_scan_counters(self, counters) -> None:
        """Attach (or detach, with None) projection scan counters.

        While attached, every scan accumulates its projection hit/skip
        counts on *counters* (a
        :class:`~repro.jsonlib.textscan.ScanCounters`).  Per thread,
        like :meth:`attach_degradation`.
        """
        self._local.scan_counters = counters

    def __getstate__(self):
        # The report/counters attachments are per-thread runtime state;
        # a pickled source (a process-backend work unit) starts detached.
        state = self.__dict__.copy()
        del state["_local"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._local = threading.local()

    def _record_skipped_record(
        self, label: str, offset: int | None, message: str
    ) -> None:
        if self._report is not None:
            self._report.record_skipped_record(label, offset, message)

    def _record_skipped_file(self, label: str, cause: Exception) -> None:
        if self._report is not None:
            self._report.record_skipped_file(label, cause)

    def _record_cache_event(self, kind: str, label: str, message: str) -> None:
        if self._report is not None:
            self._report.record_cache_event(kind, label, message)

    def _recorder(self, label: str):
        def record(offset: int | None, message: str) -> None:
            self._record_skipped_record(label, offset, message)

        return record

    # -- collections ---------------------------------------------------------------

    def _partitions(self, name: str) -> list:
        key = _normalize(name)
        if key not in self._collections:
            raise ReproError(f"unknown collection {name!r}")
        return self._collections[key]

    def partition_count(self, name: str) -> int:
        """Number of partitions of a collection."""
        return len(self._partitions(name))

    def collection_stats(self, name: str):
        """Sampled :class:`~repro.stats.sampling.CollectionStats` (or None)."""
        return self.stats.collection_stats(self, name)

    def refresh_stats(self, name: str | None = None) -> None:
        """Drop sampled statistics so the next consumer re-samples."""
        self.stats.invalidate(name)

    # -- the per-file routine ------------------------------------------------------

    def read_collection(self, name: str, partition: int | None = None) -> list[Item]:
        """Materialize every top-level item of the collection."""
        items: list[Item] = []
        for label, source in self._entries(name, partition):
            text = self._read_text(source)
            if self.on_malformed == "skip_record":
                items.extend(
                    parse_many_resilient(
                        text,
                        on_malformed="skip_record",
                        recorder=self._recorder(label),
                    )
                )
                continue
            try:
                items.extend(parse_many(text))
            except JsonError as error:
                if self.on_malformed == "fail":
                    raise FileScanError(label, error) from error
                self._record_skipped_file(label, error)
        return items

    def scan_collection(
        self, name: str, path: Path, partition: int | None = None
    ) -> Iterator[Item]:
        """Stream the collection's items projected through *path*.

        Memory is bounded by the largest file (``skip_file`` buffers one
        file's matches; a cached file is one segment).
        """
        for label, source in self._entries(name, partition):
            if self.segment_cache is not None:
                yield from self._scan_cached(label, source, path)
                continue
            counters = self._counters
            if self.on_malformed == "skip_record":
                yield from self._scan(
                    source,
                    path,
                    on_malformed="skip_record",
                    recorder=self._recorder(label),
                    counters=counters,
                )
            elif self.on_malformed == "skip_file":
                # Buffer the file's matches so a mid-file error drops the
                # whole file, not just its tail.
                try:
                    items = list(self._scan(source, path, counters=counters))
                except JsonError as error:
                    self._record_skipped_file(label, error)
                    continue
                yield from items
            else:
                try:
                    yield from self._scan(source, path, counters=counters)
                except JsonError as error:
                    raise FileScanError(label, error) from error

    def _scan_cached(self, label: str, source, path: Path) -> list[Item]:
        """Serve one file from the segment cache, scanning cold on miss.

        The observable behaviour — items, errors, skip events, and the
        ``matched``/``skipped`` counter deltas — is byte-identical with
        the uncached scan: a cold scan stages its counters and merges
        them even when the scan fails mid-file (matching the direct
        pass-through), a hit replays the stored deltas and skip events.
        Only complete scans are stored; a failed or skipped file is
        rescanned next time.
        """
        counters = self._counters
        cache = self.segment_cache
        policy = self.on_malformed
        projection = canonical_projection(path)
        fingerprint = None
        if cache.disabled_reason is None:
            # Cache-off degradation (disabled_reason set): scan cold,
            # skip probe and store.
            fingerprint = self._fingerprint(source)
        if fingerprint is not None:
            segment, status = cache.load_classified(
                label, fingerprint, projection, policy
            )
            if segment is not None:
                if counters is not None:
                    counters.cache_hits += 1
                    counters.absorb(segment.counters)
                for offset, message in segment.skip_events:
                    self._record_skipped_record(label, offset, message)
                return segment.items
            if status == "corrupt":
                if counters is not None:
                    counters.cache_corrupt += 1
                self._record_cache_event(
                    "corrupt",
                    label,
                    "segment failed its integrity check; rescanned cold",
                )
            elif status == "io-error":
                self._record_cache_event(
                    "io-error", label, "segment read failed; rescanned cold"
                )
                if cache.disabled_reason is not None:
                    self._record_cache_event(
                        "disabled", label, cache.disabled_reason
                    )
        if counters is not None:
            counters.cache_misses += 1
        attempt = ScanCounters()
        events: list[tuple[int | None, str]] = []
        if policy == "skip_record":
            def recorder(offset: int | None, message: str) -> None:
                events.append((offset, message))
                self._record_skipped_record(label, offset, message)

            items = list(self._scan(
                source,
                path,
                on_malformed="skip_record",
                recorder=recorder,
                counters=attempt,
            ))
        else:
            try:
                items = list(self._scan(source, path, counters=attempt))
            except JsonError as error:
                if counters is not None:
                    counters.merge(attempt)
                if policy == "fail":
                    raise FileScanError(label, error) from error
                self._record_skipped_file(label, error)
                return []
        if counters is not None:
            counters.merge(attempt)
        if fingerprint is not None:
            stored = cache.store(
                label, fingerprint, projection, policy,
                items, attempt.as_dict(), events,
            )
            if not stored and cache.disabled_reason is not None:
                self._record_cache_event("disabled", label, cache.disabled_reason)
        return items


class CollectionCatalog(_ScanSource):
    """Registry of partitioned on-disk collections.

    Collections register explicitly (``register``) or are discovered from
    a base directory whose layout is
    ``<base>/<collection>/partition<i>/*.json``.
    """

    _scan = staticmethod(tape.scan_file)
    _read_text = staticmethod(read_json_file)

    def __init__(
        self,
        base_dir: str | None = None,
        on_malformed: str = "fail",
        segment_cache_dir: str | None = None,
        fingerprint_mode: str | None = None,
        stats_sample: int | None = None,
    ):
        super().__init__(
            on_malformed, segment_cache_dir, fingerprint_mode, stats_sample
        )
        self._collections: dict[str, list[list[str]]] = {}
        if base_dir is not None:
            self.discover(base_dir)

    def _entries(self, name: str, partition: int | None) -> list[tuple[str, str]]:
        return [(path, path) for path in self.files(name, partition)]

    def _fingerprint(self, file_path: str):
        try:
            return self.segment_cache.source_fingerprint(file_path)
        except OSError:
            return None

    # -- registration ----------------------------------------------------------

    def register(self, name: str, partitions: list[list[str]]) -> None:
        """Register a collection as an explicit list of partition file lists.

        Registration invalidates the collection's sampled statistics;
        the next stats consumer re-samples the fresh data.
        """
        self._collections[_normalize(name)] = [
            list(files) for files in partitions
        ]
        self.stats.invalidate(_normalize(name))

    def register_directory(self, name: str, directory: str) -> None:
        """Register ``directory`` (with ``partition<i>`` subdirs) as *name*.

        A directory holding JSON files directly becomes one partition.
        Raises :class:`~repro.errors.ReproError` when any partition
        directory holds no ``*.json`` files — an empty partition would
        silently return no data from every query over it.
        """
        partition_dirs = sorted(
            entry.path
            for entry in os.scandir(directory)
            if entry.is_dir() and entry.name.startswith("partition")
        )
        if not partition_dirs:
            partition_dirs = [directory]
        partitions = []
        for partition_dir in partition_dirs:
            files = sorted(
                os.path.join(partition_dir, file_name)
                for file_name in os.listdir(partition_dir)
                if file_name.endswith(".json")
            )
            if not files:
                raise ReproError(
                    f"cannot register collection {name!r}: no *.json files "
                    f"in {partition_dir!r}"
                )
            partitions.append(files)
        self.register(name, partitions)

    def discover(self, base_dir: str) -> None:
        """Register every ``<base>/<collection>`` subdirectory.

        Raises :class:`~repro.errors.ReproError` when *base_dir* holds no
        collection subdirectories at all — a catalog discovered from an
        empty directory cannot answer any query.
        """
        found = False
        for entry in os.scandir(base_dir):
            if entry.is_dir():
                self.register_directory("/" + entry.name, entry.path)
                found = True
        if not found:
            raise ReproError(
                f"no collection directories found under {base_dir!r}"
            )

    # -- DataSource protocol ----------------------------------------------------

    def files(self, name: str, partition: int | None = None) -> list[str]:
        """File paths of one partition (or all of them)."""
        partitions = self._partitions(name)
        if partition is None:
            return [path for files in partitions for path in files]
        return list(partitions[partition])

    def total_bytes(self, name: str, partition: int | None = None) -> int:
        """On-disk size of a collection (or one partition)."""
        return sum(os.path.getsize(path) for path in self.files(name, partition))

    def read_document(self, uri: str) -> Item:
        """Materialize a single JSON document by file path."""
        return parse(read_json_file(uri))

    # -- statistics --------------------------------------------------------------

    def stats_partitions(self, name: str) -> list:
        """Per-partition ``(texts, total_bytes)`` pairs for the sampler.

        *texts* lazily yields each file's content in registration order;
        unreadable files are skipped (sampling is advisory) but their
        on-disk size still counts toward the extrapolation total.
        """

        def file_texts(files: list[str]):
            for file_path in files:
                try:
                    yield read_json_file(file_path)
                except OSError:
                    continue

        out = []
        for files in self._partitions(name):
            total = 0
            for file_path in files:
                try:
                    total += os.path.getsize(file_path)
                except OSError:
                    pass
            out.append((file_texts(files), total))
        return out

    def stats_snapshot(self, names=None):
        """A :class:`~repro.stats.sampling.StatsSnapshot` over *names*.

        Defaults to every registered collection; collections that fail
        to sample are simply absent from the snapshot.
        """
        if names is None:
            names = sorted(self._collections)
        return self.stats.snapshot(self, names)


class InMemorySource(_ScanSource):
    """DataSource over in-memory JSON texts (tests, small examples).

    ``collections`` maps names to lists of partitions, each partition a
    list of JSON texts; ``documents`` maps URIs to JSON texts.
    """

    _scan = staticmethod(tape.scan_text)
    _read_text = staticmethod(blank_bom)
    _fingerprint = staticmethod(text_fingerprint)

    def __init__(
        self,
        collections: dict[str, list[list[str]]] | None = None,
        documents: dict[str, str] | None = None,
        on_malformed: str = "fail",
        segment_cache_dir: str | None = None,
        fingerprint_mode: str | None = None,
        stats_sample: int | None = None,
    ):
        super().__init__(
            on_malformed, segment_cache_dir, fingerprint_mode, stats_sample
        )
        self._collections = {
            _normalize(name): partitions
            for name, partitions in (collections or {}).items()
        }
        self._documents = dict(documents or {})

    def add_document(self, uri: str, text: str) -> None:
        """Register a document text under *uri*."""
        self._documents[uri] = text

    def add_collection(self, name: str, partitions: list[list[str]]) -> None:
        """Register a collection of JSON-text partitions.

        Like :meth:`CollectionCatalog.register`, invalidates the
        collection's sampled statistics.
        """
        self._collections[_normalize(name)] = partitions
        self.stats.invalidate(_normalize(name))

    def _entries(self, name: str, partition: int | None) -> list[tuple[str, str]]:
        """(label, text) pairs of one partition (or all of them)."""
        key = _normalize(name)
        partitions = self._partitions(name)
        if partition is None:
            return [
                (f"{key}[partition {p}] text {i}", text)
                for p, texts in enumerate(partitions)
                for i, text in enumerate(texts)
            ]
        return [
            (f"{key}[partition {partition}] text {i}", text)
            for i, text in enumerate(partitions[partition])
        ]

    def read_document(self, uri: str) -> Item:
        if uri not in self._documents:
            raise ReproError(f"unknown document {uri!r}")
        return parse(blank_bom(self._documents[uri]))

    def stats_partitions(self, name: str) -> list:
        """Per-partition ``(texts, total_bytes)`` pairs for the sampler."""
        return [
            (list(texts), sum(len(text) for text in texts))
            for texts in self._partitions(name)
        ]

    def stats_snapshot(self, names=None):
        """A :class:`~repro.stats.sampling.StatsSnapshot` over *names*."""
        if names is None:
            names = sorted(self._collections)
        return self.stats.snapshot(self, names)
