"""The bounded in-memory LRU backend."""

from __future__ import annotations

from repro import perf
from repro.store import MISSING, MemoryStore


def test_roundtrip_and_missing():
    store = MemoryStore()
    assert store.get("spcf", (1, "a")) is MISSING
    store.put("spcf", (1, "a"), ("tt", 5, 2))
    assert store.get("spcf", (1, "a")) == ("tt", 5, 2)
    # Namespaces are isolated even for identical keys.
    assert store.get("tts", (1, "a")) is MISSING


def test_values_held_by_reference():
    # The DP memo pool mutates its dicts in place and relies on identity.
    store = MemoryStore()
    memo = {(0, 0): 1}
    store.put("dp", (7,), memo)
    assert store.get("dp", (7,)) is memo


def test_eviction_is_lru_not_fifo():
    store = MemoryStore(default_limit=2)
    store.put("ns", (1,), "a")
    store.put("ns", (2,), "b")
    store.get("ns", (1,))  # refresh (1,): now (2,) is the LRU entry
    store.put("ns", (3,), "c")
    assert store.get("ns", (1,)) == "a"
    assert store.get("ns", (2,)) is MISSING
    assert store.get("ns", (3,)) == "c"


def test_overwrite_never_evicts():
    # The historical ConeCache bug: eviction ran before the key check,
    # so refreshing an entry in a full table dropped an unrelated one.
    store = MemoryStore(default_limit=2)
    store.put("ns", (1,), "a")
    store.put("ns", (2,), "b")
    evicted = perf.counter("store.evict")
    store.put("ns", (2,), "b2")  # overwrite in a full table
    assert perf.counter("store.evict") == evicted
    assert store.get("ns", (1,)) == "a"
    assert store.get("ns", (2,)) == "b2"
    assert store.entries("ns") == 2


def test_per_namespace_limits():
    store = MemoryStore(default_limit=8, limits={"tiny": 1})
    store.put("tiny", (1,), "a")
    store.put("tiny", (2,), "b")
    assert store.entries("tiny") == 1
    assert store.get("tiny", (2,)) == "b"
    for i in range(8):
        store.put("big", (i,), i)
    assert store.entries("big") == 8


def test_invalidate_by_fingerprint():
    store = MemoryStore()
    store.put("ns", (100, "x"), 1)
    store.put("ns", (100, "y"), 2)
    store.put("ns", (200, "x"), 3)
    assert store.invalidate("ns", fingerprint=100) == 2
    assert store.get("ns", (100, "x")) is MISSING
    assert store.get("ns", (200, "x")) == 3


def test_invalidate_all_and_per_namespace():
    store = MemoryStore()
    store.put("a", (1,), 1)
    store.put("a", (2,), 2)
    store.put("b", (1,), 3)
    assert store.invalidate("a") == 2
    assert store.entries("a") == 0
    assert store.entries("b") == 1
    assert store.invalidate() == 1
    assert store.entries("b") == 0


def test_stats_shape():
    store = MemoryStore(default_limit=4, limits={"spcf": 2})
    store.put("spcf", (1,), "a")
    stats = store.stats()
    assert stats == {"spcf": {"entries": 1, "limit": 2}}


def test_namespace_view_counters():
    store = MemoryStore()
    ns = store.namespace("viewtest")
    h0 = perf.counter("store.viewtest.hit")
    m0 = perf.counter("store.viewtest.miss")
    assert ns.get((1,)) is None
    ns.put((1,), 42)
    assert ns.get((1,)) == 42
    assert ns.contains((1,))
    assert perf.counter("store.viewtest.hit") == h0 + 2
    assert perf.counter("store.viewtest.miss") == m0 + 1


def test_namespace_codec_hooks():
    store = MemoryStore()
    ns = store.namespace(
        "codec",
        encode=lambda pair: [pair[0] + 1, pair[1] + 1],
        decode=lambda raw: (raw[0] - 1, raw[1] - 1),
    )
    ns.put((9,), (3, 4))
    # The store holds the encoded form; the view decodes on hit.
    assert store.get("codec", (9,)) == [4, 5]
    assert ns.get((9,)) == (3, 4)


def test_export_absorb_replays_puts_in_recency_order():
    store = MemoryStore()
    store.put("spcf", (1,), ("tt", 5, 2))
    store.put("spcf", (2,), ("sim", 9))
    store.put("other", (3,), "x")
    store.get("spcf", (1,))  # (1,) is now the most recent entry
    entries = store.export(["spcf", "missing"])
    assert [len(entries["spcf"]), entries["missing"]] == [2, []]
    copy = MemoryStore(default_limit=1)
    copy.absorb(entries)
    # Absorbed as puts, in recency order: the bound keeps the last one.
    assert copy.get("spcf", (1,)) == ("tt", 5, 2)
    assert copy.get("spcf", (2,)) is MISSING
    assert copy.get("other", (3,)) is MISSING
