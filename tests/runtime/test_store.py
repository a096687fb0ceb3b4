"""Tests for the content-addressed on-disk result store."""

import pytest

from repro.runtime.store import ResultStore, canonical_json

KEY_A = "ab" + "0" * 62
KEY_B = "cd" + "1" * 62


class TestResultStore:
    def test_miss_then_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(KEY_A) is None
        assert KEY_A not in store
        payload = {"row": {"benchmark": "bv"}, "key": KEY_A}
        store.put(KEY_A, payload)
        assert KEY_A in store
        assert store.get(KEY_A) == payload

    def test_entries_are_sharded_by_key_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY_A, {"x": 1})
        assert path.parent.name == KEY_A[:2]

    def test_keys_len_discard_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"x": 1})
        store.put(KEY_B, {"x": 2})
        assert store.keys() == sorted([KEY_A, KEY_B])
        assert len(store) == 2
        assert store.discard(KEY_A) is True
        assert store.discard(KEY_A) is False
        assert store.clear() == 1
        assert len(store) == 0

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY_A, {"x": 1})
        path.write_text("{not json", encoding="utf-8")
        assert store.get(KEY_A) is None
        assert KEY_A not in store  # membership agrees with get()

    def test_contains_is_a_metrics_free_presence_probe(self, tmp_path):
        from repro import telemetry

        store = ResultStore(tmp_path)
        counters = ("store.hit", "store.miss", "store.corrupt")
        before = [telemetry.counter(name).value for name in counters]
        assert store.contains(KEY_A) is False
        path = store.put(KEY_A, {"x": 1})
        assert store.contains(KEY_A) is True
        path.write_text("{torn", encoding="utf-8")
        assert store.contains(KEY_A) is True  # presence only; get() still refuses it
        assert [telemetry.counter(name).value for name in counters] == before
        assert store.stats()["corrupt"] == 0
        with pytest.raises(ValueError, match="malformed"):
            store.contains("not-a-key")

    def test_corrupt_entries_are_counted_and_warned_once(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        path_a = store.put(KEY_A, {"x": 1})
        store.put(KEY_B, {"x": 2})
        path_a.write_text("{torn", encoding="utf-8")
        store.path_for(KEY_B).write_text("{also torn", encoding="utf-8")
        assert store.stats()["corrupt"] == 0  # stats scans never skew the count
        with caplog.at_level("WARNING", logger="repro.runtime.store"):
            assert store.get(KEY_A) is None
            assert store.get(KEY_B) is None
            assert store.get(KEY_A) is None
        assert store.stats()["corrupt"] == 3
        # One warning per store instance, naming the first offending path.
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert str(path_a) in warnings[0].getMessage()

    def test_fresh_instance_warns_again(self, tmp_path, caplog):
        path = ResultStore(tmp_path).put(KEY_A, {"x": 1})
        path.write_text("{torn", encoding="utf-8")
        for _ in range(2):  # the warning is per instance, not per process
            store = ResultStore(tmp_path)
            with caplog.at_level("WARNING", logger="repro.runtime.store"):
                assert store.get(KEY_A) is None
            assert store.stats()["corrupt"] == 1
        assert sum(r.levelname == "WARNING" for r in caplog.records) == 2

    def test_put_replaces_atomically(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"x": 1})
        store.put(KEY_A, {"x": 2})
        assert store.get(KEY_A) == {"x": 2}
        # no stray temp files left behind
        assert all(not p.name.endswith(".tmp") for p in tmp_path.rglob("*"))

    @pytest.mark.parametrize("bad", ["", "xy", "ZZ" + "0" * 62, "../escape"])
    def test_malformed_keys_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError):
            ResultStore(tmp_path).path_for(bad)


class TestStatsAndPrune:
    def _put(self, store, key, schema, mtime=None):
        path = store.put(key, {"schema": schema, "x": key[:4]})
        if mtime is not None:
            import os

            os.utime(path, (mtime, mtime))
        return path

    def test_stats_counts_entries_bytes_and_schemas(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.stats() == {
            "root": str(tmp_path),
            "entries": 0,
            "total_bytes": 0,
            "corrupt": 0,
            "schema_versions": {},
        }
        self._put(store, KEY_A, schema=4)
        self._put(store, KEY_B, schema=5)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["total_bytes"] == sum(
            p.stat().st_size for p in tmp_path.rglob("*.json")
        )
        assert stats["schema_versions"] == {"4": 1, "5": 1}

    def test_stats_flags_unreadable_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        path = self._put(store, KEY_A, schema=5)
        path.write_text("{torn", encoding="utf-8")
        assert store.stats()["schema_versions"] == {"unreadable": 1}

    def test_prune_evicts_oldest_first_by_entry_count(self, tmp_path):
        store = ResultStore(tmp_path)
        self._put(store, KEY_A, schema=5, mtime=100.0)  # oldest
        self._put(store, KEY_B, schema=5, mtime=200.0)
        removed = store.prune(max_entries=1)
        assert removed == [KEY_A]
        assert store.keys() == [KEY_B]

    def test_prune_enforces_byte_budget(self, tmp_path):
        store = ResultStore(tmp_path)
        path_a = self._put(store, KEY_A, schema=5, mtime=100.0)
        size = path_a.stat().st_size
        self._put(store, KEY_B, schema=5, mtime=200.0)
        assert store.prune(max_bytes=size) == [KEY_A]
        assert store.prune(max_bytes=0) == [KEY_B]
        assert store.keys() == []

    def test_prune_without_limits_is_a_noop(self, tmp_path):
        store = ResultStore(tmp_path)
        self._put(store, KEY_A, schema=5)
        assert store.prune() == []
        assert len(store) == 1

    def test_prune_rejects_negative_limits(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="max_entries"):
            store.prune(max_entries=-1)
        with pytest.raises(ValueError, match="max_bytes"):
            store.prune(max_bytes=-5)

    def test_prune_keep_protects_entries_regardless_of_age(self, tmp_path):
        store = ResultStore(tmp_path)
        self._put(store, KEY_A, schema=5, mtime=100.0)  # oldest, but protected
        self._put(store, KEY_B, schema=5, mtime=200.0)
        removed = store.prune(max_entries=0, keep=[KEY_A])
        assert removed == [KEY_B]
        assert store.keys() == [KEY_A]
        # with everything protected, a prune may legitimately end over-limit
        assert store.prune(max_entries=0, keep=[KEY_A]) == []
        assert store.keys() == [KEY_A]


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
