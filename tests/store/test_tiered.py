"""The write-through memory-over-disk arrangement ``--store`` builds."""

from __future__ import annotations

from repro import perf
from repro.store import MISSING, MemoryStore, SqliteStore, TieredStore


def _tiers(tmp_path, memory_limit=4):
    disk = SqliteStore(str(tmp_path / "results.db"))
    return TieredStore(MemoryStore(default_limit=memory_limit), disk)


def test_write_through_lands_in_both_tiers(tmp_path):
    store = _tiers(tmp_path)
    store.put("ns", (1,), ("tt", 5, 2))
    assert store.memory.get("ns", (1,)) == ("tt", 5, 2)
    assert store.disk.get("ns", (1,)) == ("tt", 5, 2)
    assert store.get("ns", (1,)) == ("tt", 5, 2)
    store.close()


def test_disk_hit_promotes_into_memory(tmp_path):
    store = _tiers(tmp_path)
    store.disk.put("ns", (1,), "cold")  # simulate a prior process's write
    assert store.memory.get("ns", (1,)) is MISSING
    before = perf.counter("store.promote")
    assert store.get("ns", (1,)) == "cold"
    assert perf.counter("store.promote") == before + 1
    assert store.memory.get("ns", (1,)) == "cold"
    # Second lookup is a pure memory hit: no further promotion.
    assert store.get("ns", (1,)) == "cold"
    assert perf.counter("store.promote") == before + 1
    store.close()


def test_memory_eviction_does_not_lose_disk_copy(tmp_path):
    store = _tiers(tmp_path, memory_limit=2)
    for i in range(5):
        store.put("ns", (i,), i)
    assert store.memory.stats()["ns"]["entries"] == 2
    # Everything is still reachable through the disk tier.
    for i in range(5):
        assert store.get("ns", (i,)) == i
    store.close()


def test_invalidate_clears_both_tiers(tmp_path):
    store = _tiers(tmp_path)
    store.put("ns", (200, "a"), 2)
    assert store.invalidate() == 1
    assert store.get("ns", (200, "a")) is MISSING
    assert store.memory.get("ns", (200, "a")) is MISSING
    store.close()


def test_stats_merges_disk_and_memory_views(tmp_path):
    store = _tiers(tmp_path, memory_limit=2)
    for i in range(3):
        store.put("ns", (i,), i)
    stats = store.stats()
    assert stats["ns"]["entries"] == 3          # durable truth
    assert stats["ns"]["memory_entries"] == 2   # bounded hot set
    assert stats["ns"]["memory_limit"] == 2
    store.close()


def test_persistence_survives_a_fresh_tiered_store(tmp_path):
    store = _tiers(tmp_path)
    store.put("ns", (1,), ("tt", 9, 3))
    store.close()
    warm = _tiers(tmp_path)
    assert warm.persistent
    assert warm.path.endswith("results.db")
    assert warm.get("ns", (1,)) == ("tt", 9, 3)
    warm.close()
