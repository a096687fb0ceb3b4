"""Tests for the content-addressed on-disk result store."""

import shutil

import pytest

from repro.runtime.dispatch import run_sweep
from repro.runtime.spec import SweepGrid
from repro.runtime.store import (
    RESULT_SCHEMA_VERSION,
    ResultStore,
    atomic_write,
    canonical_json,
)

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

    def test_atomic_write_removes_its_temp_file_when_the_rename_fails(self, tmp_path):
        (tmp_path / "occupied").mkdir()  # a file cannot replace a directory
        with pytest.raises(OSError):
            atomic_write(tmp_path / "occupied", "text")
        assert list(tmp_path.glob("*.tmp")) == []
        atomic_write(tmp_path / "entry", "text")
        assert (tmp_path / "entry").read_text() == "text"

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



class TestMislabeledEntries:
    """An entry is served only under the key and schema it was written for."""

    def _entry(self, key, schema=RESULT_SCHEMA_VERSION):
        return {"schema": schema, "key": key, "row": {"benchmark": "bv"}}

    def test_entry_copied_under_another_key_reads_as_miss(self, tmp_path, caplog):
        from repro import telemetry

        store = ResultStore(tmp_path)
        path_a = store.put(KEY_A, self._entry(KEY_A))
        path_b = store.path_for(KEY_B)
        path_b.parent.mkdir(parents=True)
        shutil.copyfile(path_a, path_b)
        mismatch, hit = telemetry.counter("store.mismatch"), telemetry.counter("store.hit")
        before = (mismatch.value, hit.value)
        with caplog.at_level("WARNING", logger="repro.runtime.store"):
            assert store.get(KEY_B) is None
            assert KEY_B not in store
        assert (mismatch.value, hit.value) == (before[0] + 2, before[1])
        # one warning per store instance, naming the mislabeled path
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert str(path_b) in warnings[0].getMessage()
        # the original is still served under its own key
        assert store.get(KEY_A) == self._entry(KEY_A)
        assert store.stats()["corrupt"] == 0

    def test_entry_of_another_schema_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, self._entry(KEY_A, schema=RESULT_SCHEMA_VERSION - 1))
        assert store.get(KEY_A) is None

    def test_entries_without_a_key_are_served_as_stored(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"schema": RESULT_SCHEMA_VERSION - 1, "x": 1})
        assert store.get(KEY_A) == {"schema": RESULT_SCHEMA_VERSION - 1, "x": 1}

    def test_sweep_recomputes_and_replaces_a_mislabeled_entry(self, tmp_path):
        grid = SweepGrid(benchmarks=("bv", "ising"), backends=("opt8",), num_qubits=6)
        store = ResultStore(tmp_path)
        first = run_sweep(grid, store=store)
        key_a, key_b = first.keys
        shutil.copyfile(store.path_for(key_a), store.path_for(key_b))
        second = run_sweep(grid, store=store)
        assert second.computed_keys == [key_b]
        assert second.rows == first.rows
        assert store.get(key_b)["key"] == key_b

class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
