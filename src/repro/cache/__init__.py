"""Columnar segment cache: warm reruns skip JSON parsing entirely.

Layer 2 of the scan fast path (ROADMAP item 1).  The first scan of a
file under a given projection shreds the projected values into a binary
columnar segment keyed by ``(source id, content fingerprint, canonical
projection, malformed-input policy)``; later scans with an unchanged
fingerprint deserialize the segment straight into items — no JSON is
touched.  See :mod:`repro.cache.segments` for the format and
:mod:`repro.cache.config` for cache-directory resolution
(``REPRO_SEGMENT_CACHE``).
"""

from repro.cache.config import resolve_segment_cache
from repro.cache.segments import (
    CachedSegment,
    SegmentCache,
    canonical_projection,
    file_fingerprint,
    text_fingerprint,
)

__all__ = [
    "resolve_segment_cache",
    "CachedSegment",
    "SegmentCache",
    "canonical_projection",
    "file_fingerprint",
    "text_fingerprint",
]
