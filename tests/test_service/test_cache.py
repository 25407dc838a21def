"""Result cache: keying, durability, checksums, quarantine."""

import json
import os

import pytest

import repro
from repro.experiments.chaos import bit_flip_file, truncate_file
from repro.obs.registry import MetricsRegistry
from repro.service.cache import (
    CACHE_VERSION,
    ResultCache,
    key_fields,
    request_key,
)


def fields(**overrides):
    base = key_fields(experiment_id="alpha", seed=11, sanitize=False)
    base.update(overrides)
    return base


class TestRequestKey:
    def test_deterministic(self):
        assert request_key(fields()) == request_key(fields())

    def test_every_key_field_matters(self):
        baseline = request_key(fields())
        assert request_key(fields(experiment_id="beta")) != baseline
        assert request_key(fields(seed=12)) != baseline
        assert request_key(fields(sanitize=True)) != baseline
        assert request_key(fields(package_version="99.0")) != baseline

    def test_version_is_baked_in(self):
        assert fields()["package_version"] == repro.__version__

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            request_key({"experiment_id": "x"})


class TestResultCache:
    def test_miss_then_put_then_memory_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        assert cache.get("k" * 8) is None
        cache.put("k" * 8, {"key": "k" * 8, "result": {"rows": [[1]]}})
        assert cache.get("k" * 8) == {
            "key": "k" * 8,
            "result": {"rows": [[1]]},
        }

    def test_disk_hit_is_bit_identical_to_memory_hit(self, tmp_path):
        root = str(tmp_path / "c")
        writer = ResultCache(root)
        payload = writer.put("deadbeef", {"key": "deadbeef", "result": [1]})
        # A fresh instance (post-drain restart) reads through disk.
        reader = ResultCache(root)
        assert reader.get_payload("deadbeef") == payload

    def test_entry_envelope_is_checksummed(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put("feedface", {"key": "feedface", "result": [2]})
        raw = json.loads(open(cache.path("feedface")).read())
        assert raw["version"] == CACHE_VERSION
        assert raw["checksum"].startswith("sha256:")

    def test_bit_flip_is_detected_and_quarantined(self, tmp_path):
        root = str(tmp_path / "c")
        metrics = MetricsRegistry()
        cache = ResultCache(root, metrics=metrics)
        cache.put("cafebabe", {"key": "cafebabe", "result": [3]})
        cache.discard_memory("cafebabe")
        bit_flip_file(cache.path("cafebabe"), seed=5)
        assert cache.get("cafebabe") is None  # never served corrupt
        assert not os.path.exists(cache.path("cafebabe"))
        assert os.path.exists(cache.path("cafebabe") + ".corrupt")
        counters = metrics.snapshot()["counters"]
        assert counters["service.cache.corrupt"] == 1
        assert counters["service.cache.miss"] == 1

    def test_truncation_is_detected(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put("0badf00d", {"key": "0badf00d", "result": [4]})
        cache.discard_memory("0badf00d")
        truncate_file(cache.path("0badf00d"), keep_fraction=0.5)
        assert cache.get("0badf00d") is None

    def test_recompute_after_quarantine_overwrites(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put("abad1dea", {"key": "abad1dea", "result": [5]})
        cache.discard_memory("abad1dea")
        bit_flip_file(cache.path("abad1dea"), seed=6)
        assert cache.get("abad1dea") is None
        cache.put("abad1dea", {"key": "abad1dea", "result": [5]})
        assert cache.get("abad1dea")["result"] == [5]

    def test_hit_and_miss_counters(self, tmp_path):
        metrics = MetricsRegistry()
        cache = ResultCache(str(tmp_path / "c"), metrics=metrics)
        cache.get("11111111")
        cache.put("11111111", {"key": "11111111", "result": []})
        cache.get("11111111")
        counters = metrics.snapshot()["counters"]
        assert counters["service.cache.miss"] == 1
        assert counters["service.cache.hit"] == 1

    def test_keys_and_len_cover_disk_and_memory(self, tmp_path):
        root = str(tmp_path / "c")
        cache = ResultCache(root)
        cache.put("aa", {"key": "aa", "result": []})
        cache.put("bb", {"key": "bb", "result": []})
        assert cache.keys() == ["aa", "bb"]
        assert len(cache) == 2
        fresh = ResultCache(root)
        assert fresh.keys() == ["aa", "bb"]
