"""Segment-cache configuration resolution."""

from repro.cache import SegmentCache
from repro.cache.config import SEGMENT_CACHE_ENV, resolve_segment_cache


class TestSegmentCacheResolution:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(SEGMENT_CACHE_ENV, raising=False)
        assert resolve_segment_cache(None) is None

    def test_explicit_dir(self, tmp_path):
        cache = resolve_segment_cache(str(tmp_path))
        assert isinstance(cache, SegmentCache)
        assert cache.cache_dir == str(tmp_path)

    def test_env_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SEGMENT_CACHE_ENV, str(tmp_path))
        cache = resolve_segment_cache(None)
        assert isinstance(cache, SegmentCache)
        assert cache.cache_dir == str(tmp_path)

    def test_empty_string_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SEGMENT_CACHE_ENV, str(tmp_path))
        assert resolve_segment_cache("") is None
