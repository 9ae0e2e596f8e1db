"""Binary columnar segment files for projected scan results.

A *segment* is the full projected output of scanning one source (a file
on disk or one in-memory text) under one projection path and one
malformed-input policy, together with everything needed to replay the
scan's observable side effects: the projection hit/skip counter deltas
and the skipped-record events a degradation report would have seen.

Layout on disk (one file per segment, named by the SHA-256 of the
cache key)::

    RSEG1\\n <pickled header dict> <per-column payload>

Uniform lists of flat dicts — the shape every paper query projects —
are shredded column-wise: each key's values become one column, and
all-float / all-int columns are packed as raw ``array('d')`` /
``array('q')`` bytes (true binary columnar storage; strings and mixed
columns fall back to a pickled list).  Non-uniform results are stored
as pickled rows.  Warm loads therefore deserialize at C speed and
never touch JSON.

Concurrency: writes go to a unique temp file in the cache directory
and are published with :func:`os.replace`, so concurrent partition
workers (threads or processes) are lock-free — readers only ever see
complete segments, and double-writes of the same key are idempotent
last-writer-wins.  A :class:`SegmentCache` holds only its directory
path (plus a picklable fault hook), so it pickles into process-backend
work units for free.  Every store is best-effort: an I/O error skips
that one write, and only a *run* of consecutive I/O errors (a full or
dead disk) turns the cache off — see the :class:`SegmentCache`
docstring.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import tempfile
import zlib
from array import array
from dataclasses import dataclass

from repro.jsonlib.path import KeysOrMembers, Path, ValueByIndex, ValueByKey

_MAGIC = b"RSEG1\n"

#: Version of what a segment header carries, hashed into every segment
#: file name.  A segment written under an older version (before the
#: ``scanned_bytes`` counter existed, say) is never opened again: its
#: lookup is a plain miss, not a corrupt file and not a hit replaying a
#: counter it lacks.  Bump it whenever the replayed header changes.
_FORMAT = 2

# Exceptions that prove the segment file itself is defective (torn,
# bit-flipped, or structurally malformed) and therefore safe to delete:
# the magic/key/CRC ValueErrors raised below, pickle's own failure modes
# on torn bytes, and shape errors from a header/payload that decoded to
# the wrong structure.  Anything else (MemoryError on a huge payload, a
# KeyboardInterrupt, an environment-dependent ImportError) may strike a
# perfectly valid file and must NOT trigger deletion.
_DEFECT_ERRORS = (
    ValueError,
    KeyError,
    TypeError,
    IndexError,
    EOFError,
    pickle.UnpicklingError,
)


def canonical_projection(path: Path) -> str:
    """Stable textual key for a projection path."""
    parts = []
    for step in path:
        if isinstance(step, ValueByKey):
            parts.append("k=" + step.key)
        elif isinstance(step, ValueByIndex):
            parts.append("i=" + str(step.index))
        elif isinstance(step, KeysOrMembers):
            parts.append("*")
        else:  # future step kinds must not silently alias existing keys
            parts.append(repr(step))
    return "/".join(parts)


def file_fingerprint(file_path: str) -> tuple:
    """Stat-based fingerprint of an on-disk source.

    Size, mtime_ns, ctime_ns and inode: truncating, appending or
    touching the file changes the fingerprint, which changes the cache
    key — stale segments are simply never matched again (no explicit
    invalidation pass is needed).  Atomic-replace rewrites change the
    inode, and in-place rewrites change ctime even when an application
    back-dates mtime.

    Staleness window: a same-size in-place rewrite that lands within
    the filesystem's timestamp granularity (coarse-mtime filesystems,
    or sub-resolution back-to-back writes) is undetectable by ``stat``
    alone and would serve the old segment.  For correctness-critical
    runs on such inputs, fingerprint the bytes instead::

        fingerprint = text_fingerprint(open(path, encoding="utf-8").read())
    """
    stat = os.stat(file_path)
    return (
        "stat",
        stat.st_size,
        stat.st_mtime_ns,
        stat.st_ctime_ns,
        stat.st_ino,
    )


def text_fingerprint(text: str) -> tuple:
    """Content fingerprint of an in-memory source: content hash."""
    return ("sha256", hashlib.sha256(text.encode("utf-8")).hexdigest())


def content_file_fingerprint(file_path: str) -> tuple:
    """Content fingerprint of an on-disk source: hash of its bytes.

    Closes :func:`file_fingerprint`'s same-size in-place rewrite
    staleness window at the cost of reading the file on every lookup —
    the right trade for a long-lived server, where inputs are rewritten
    underneath the process.  Because only the bytes matter, touching a
    file (or copying it to a new inode with identical contents) keeps
    its segments warm instead of invalidating them.
    """
    hasher = hashlib.sha256()
    size = 0
    with open(file_path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            size += len(chunk)
            hasher.update(chunk)
    return ("content", size, hasher.hexdigest())


@dataclass
class CachedSegment:
    """A loaded segment: items plus the scan's replayable side effects."""

    items: list
    #: ``ScanCounters.as_dict()`` of the producing scan; a hit replays
    #: only the ``matched``/``skipped``/``scanned_bytes`` fields (see
    #: ``ScanCounters.absorb``) so projection accounting is
    #: byte-identical with a cold scan.
    counters: dict
    #: ``(offset, message)`` pairs for records the producing scan
    #: skipped under ``on_malformed="skip_record"``.
    skip_events: list


def _shred(items: list):
    """Split uniform flat-dict rows into columns; None if not uniform.

    Uniform means every row has the *same keys in the same insertion
    order*: ``load`` rebuilds rows as ``dict(zip(keys, row))``, so a
    row whose keys merely match as a set would come back reordered and
    serialize differently warm vs cold.  Such rows fall back to the
    pickled-rows layout, which preserves each dict verbatim.
    """
    if not items:
        return None
    first = items[0]
    if type(first) is not dict or not first:
        return None
    keys = tuple(first)
    columns: list[list] = [[] for _ in keys]
    for item in items:
        if type(item) is not dict or tuple(item) != keys:
            return None
        for column, key in zip(columns, keys):
            column.append(item[key])
    return keys, columns


def _pack_column(values: list):
    """Pack a column: raw f8/i8 bytes when homogeneous, pickle otherwise."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return ("f8", array("d", values).tobytes())
    if kinds == {int}:
        try:
            return ("i8", array("q", values).tobytes())
        except OverflowError:
            pass
    return ("py", values)


def _unpack_column(kind: str, payload):
    if kind == "f8":
        column = array("d")
        column.frombytes(payload)
        return column.tolist()
    if kind == "i8":
        column = array("q")
        column.frombytes(payload)
        return column.tolist()
    return payload


class SegmentCache:
    """On-disk segment store keyed by (source, fingerprint, projection).

    The malformed-input policy is part of the key: a segment produced
    under ``skip_record`` carries skip events that a ``fail`` scan of
    the same bytes would instead have raised, so segments never cross
    policies.

    Crash safety: every store pickles the payload to bytes first, puts
    a CRC32 of those bytes in the header, writes to a unique temp file,
    fsyncs, and publishes with :func:`os.replace` — a crash can only
    ever leave behind a temp file, never a half-written ``.seg``, and a
    torn or bit-flipped segment (filesystem damage) fails the checksum
    and is classified as *corrupt* (a miss that also deletes the bad
    file so the next complete store repairs it).

    I/O degradation: a store or load that hits :class:`OSError` (a full
    disk, a failing device, or an injected ``fault_hook`` fault) is
    absorbed — the store is skipped, the load is a miss — and counted;
    after ``max_io_errors`` *consecutive* failures the cache turns
    itself off for the rest of the process (``disabled_reason`` is
    set), so a dead cache directory costs one bounded burst of errors
    rather than one error per scan forever.  ``fault_hook`` must be
    picklable (e.g. a bound method of a
    :class:`~repro.resilience.faults.FaultPlan`) for the process
    backend, where the cache ships inside work units.
    """

    #: consecutive OSErrors tolerated before the cache turns itself off.
    max_io_errors = 3

    def __init__(self, cache_dir: str, fingerprint_mode: str = "stat"):
        from repro.cache.config import validate_fingerprint_mode

        self.cache_dir = cache_dir
        self.fingerprint_mode = validate_fingerprint_mode(fingerprint_mode)
        #: one-arg callable (``"store"`` | ``"load"``) invoked before
        #: every store/load I/O; raising :class:`OSError` from it
        #: injects a cache I/O fault (see ``FaultPlan.fail_cache_io``).
        self.fault_hook = None
        #: non-None once the cache has turned itself off; every later
        #: store is skipped and every later load is a miss.
        self.disabled_reason: str | None = None
        self._io_errors = 0

    def _io_failed(self, operation: str, error: OSError) -> None:
        self._io_errors += 1
        if self._io_errors >= self.max_io_errors and self.disabled_reason is None:
            self.disabled_reason = (
                f"segment cache disabled after {self._io_errors} consecutive "
                f"I/O errors (last: {operation}: {error})"
            )

    def _io_ok(self) -> None:
        self._io_errors = 0

    def source_fingerprint(self, file_path: str) -> tuple:
        """Fingerprint an on-disk source under this cache's mode.

        ``stat`` mode keys by :func:`file_fingerprint` (fast, with the
        documented same-size in-place rewrite window); ``content`` mode
        keys by :func:`content_file_fingerprint` (reads the bytes, no
        staleness window).  The mode is part of the fingerprint tuple
        itself, so switching modes never serves a segment keyed under
        the other mode.
        """
        if self.fingerprint_mode == "content":
            return content_file_fingerprint(file_path)
        return file_fingerprint(file_path)

    # -- keys ------------------------------------------------------------------

    def _segment_path(self, source_id, fingerprint, projection, policy) -> str:
        key = repr((_FORMAT, source_id, fingerprint, projection, policy))
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.cache_dir, digest + ".seg")

    # -- store / load ----------------------------------------------------------

    def store(
        self,
        source_id: str,
        fingerprint: tuple,
        projection: str,
        policy: str,
        items: list,
        counters: dict,
        skip_events: list,
    ) -> bool:
        """Write one segment atomically; returns False on I/O failure.

        The payload is serialized up front and its CRC32 recorded in the
        header, the temp file is fsynced before :func:`os.replace`
        publishes it, and any :class:`OSError` (including one injected
        by ``fault_hook``) feeds the consecutive-failure counter that
        can turn the cache off.
        """
        if self.disabled_reason is not None:
            return False
        shredded = _shred(items)
        if shredded is not None:
            keys, columns = shredded
            header = {
                "key": (source_id, fingerprint, projection, policy),
                "counters": counters,
                "skip_events": skip_events,
                "layout": "columnar",
                "columns": keys,
                "rows": len(items),
            }
            payload = [_pack_column(column) for column in columns]
        else:
            header = {
                "key": (source_id, fingerprint, projection, policy),
                "counters": counters,
                "skip_events": skip_events,
                "layout": "rows",
            }
            payload = items
        payload_bytes = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        header["crc32"] = zlib.crc32(payload_bytes)
        try:
            if self.fault_hook is not None:
                self.fault_hook("store")
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                prefix="seg-", suffix=".tmp", dir=self.cache_dir
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_MAGIC)
                    pickle.dump(header, handle, pickle.HIGHEST_PROTOCOL)
                    handle.write(payload_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(
                    temp_path,
                    self._segment_path(source_id, fingerprint, projection, policy),
                )
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError as error:
            self._io_failed("store", error)
            return False
        self._io_ok()
        return True

    def load(
        self,
        source_id: str,
        fingerprint: tuple,
        projection: str,
        policy: str,
    ) -> CachedSegment | None:
        """Load a segment; None on miss, stale fingerprint, or bad file.

        Any defect in the file — wrong magic, truncation, a header that
        is not the expected dict, a malformed payload — is a cache miss,
        never an error: the caller falls back to a cold scan and the
        next complete store overwrites the bad file.

        Trust note: segments are unpickled, and unpickling executes
        code chosen by whoever wrote the file.  Point the cache only at
        directories that are no more writable than the code you run.
        """
        segment, _status = self.load_classified(
            source_id, fingerprint, projection, policy
        )
        return segment

    def load_classified(
        self,
        source_id: str,
        fingerprint: tuple,
        projection: str,
        policy: str,
    ) -> tuple[CachedSegment | None, str]:
        """Load a segment and say why it hit or missed.

        Returns ``(segment, status)`` where status is one of:

        - ``"hit"`` — a complete, checksum-verified segment;
        - ``"miss"`` — no file for this key (or a pre-checksum legacy
          file, silently superseded), the cache is disabled, or parsing
          failed for a reason that does not prove the file defective
          (e.g. :class:`MemoryError`) — the file is kept for next time;
        - ``"corrupt"`` — a file existed but was demonstrably torn,
          bit-flipped, or otherwise defective; the bad file is deleted
          (best-effort) so the next complete store repairs it;
        - ``"io-error"`` — the read itself failed with an
          :class:`OSError` other than file-not-found (counted toward
          the cache's consecutive-failure disable budget).

        Every non-hit outcome is a miss to the caller's scan logic; the
        status only drives counters and degradation events.
        """
        if self.disabled_reason is not None:
            return None, "miss"
        segment_path = self._segment_path(
            source_id, fingerprint, projection, policy
        )
        try:
            if self.fault_hook is not None:
                self.fault_hook("load")
            with open(segment_path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self._io_ok()
            return None, "miss"
        except OSError as error:
            self._io_failed("load", error)
            return None, "io-error"
        self._io_ok()
        try:
            if not raw.startswith(_MAGIC):
                raise ValueError("bad magic")
            buffer = memoryview(raw)[len(_MAGIC):]
            stream = io.BytesIO(buffer)
            header = pickle.load(stream)
            if (
                type(header) is not dict
                or header.get("key")
                != (source_id, fingerprint, projection, policy)
            ):
                # A key mismatch is a SHA-256 collision or hand-edited
                # file; treat it like any other defect.
                raise ValueError("header key mismatch")
            if "crc32" not in header:
                # Legacy pre-checksum segment: unverifiable, so rescan
                # (a plain miss, not damage) and let the next store
                # overwrite it in the new format.
                return None, "miss"
            payload_bytes = buffer[stream.tell():]
            if zlib.crc32(payload_bytes) != header["crc32"]:
                raise ValueError("payload checksum mismatch")
            payload = pickle.loads(payload_bytes)
            if header["layout"] == "columnar":
                keys = header["columns"]
                columns = [
                    _unpack_column(kind, data) for kind, data in payload
                ]
                items = [dict(zip(keys, row)) for row in zip(*columns)]
                if len(items) != header["rows"]:  # zero-column guard
                    items = [{} for _ in range(header["rows"])]
            else:
                items = payload
            segment = CachedSegment(
                items=items,
                counters=header["counters"],
                skip_events=header["skip_events"],
            )
        except _DEFECT_ERRORS:
            # Demonstrably torn/bit-flipped/malformed: delete the file
            # (best-effort) so the next complete store repairs it.
            try:
                os.unlink(segment_path)
            except OSError:
                pass
            return None, "corrupt"
        except Exception:
            # A transient, non-corruption failure (e.g. MemoryError
            # while unpickling a large payload): the file may be
            # perfectly valid, so keep it and treat this load as a
            # plain miss.
            return None, "miss"
        return segment, "hit"
