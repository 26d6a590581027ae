"""Behavior of the cross-round cone cache."""

from __future__ import annotations

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import cone_fingerprint, depth
from repro.cec import check_equivalence
from repro.core import ConeCache, LookaheadOptimizer


class TestConeCacheUnit:
    def test_spcf_roundtrip_and_counters(self):
        cache = ConeCache()
        key = (123, "tt", "exact", 1024, 0)
        before_miss = perf.counter("cache.spcf.miss")
        assert cache.get_spcf(key) is None
        assert perf.counter("cache.spcf.miss") == before_miss + 1
        cache.put_spcf(key, ("tt", 0b1010, 2))
        before_hit = perf.counter("cache.spcf.hit")
        assert cache.get_spcf(key) == ("tt", 0b1010, 2)
        assert perf.counter("cache.spcf.hit") == before_hit + 1

    def test_rejected_fingerprints(self):
        cache = ConeCache()
        key = (7, "sim", "exact", 512, 0, "target", 6, True)
        assert not cache.is_rejected(key)
        cache.mark_rejected(key)
        before = perf.counter("cache.rejected.hit")
        assert cache.is_rejected(key)
        assert perf.counter("cache.rejected.hit") == before + 1

    def test_bounded_eviction(self):
        cache = ConeCache(max_entries=4)
        for fp in range(10):
            cache.put_spcf((fp,), ("tt", fp, 1))
        assert cache.stats()["spcf_entries"] <= 4
        # Oldest entries were evicted, newest survive.
        assert cache.get_spcf((9,)) is not None
        assert cache.get_spcf((0,)) is None

    def test_rejected_fifo_eviction(self):
        # Regression: a full rejected set must FIFO-evict one entry at a
        # time, not discard every negative-cache entry wholesale.
        cache = ConeCache(max_entries=4)
        for fp in range(4):
            cache.mark_rejected((fp,))
        cache.mark_rejected((99,))
        assert cache.stats()["rejected_entries"] == 4
        # Only the oldest rejection was forgotten; the rest survive.
        assert not cache.is_rejected((0,))
        assert cache.is_rejected((1,))
        assert cache.is_rejected((2,))
        assert cache.is_rejected((3,))
        assert cache.is_rejected((99,))

    def test_overwrite_full_cache_evicts_nothing(self):
        # Regression: the pre-store _evict ran before the key-exists
        # check, so re-putting an existing key into a full table silently
        # dropped an unrelated entry.  Overwrites must never evict.
        cache = ConeCache(max_entries=4)
        for fp in range(4):
            cache.put_spcf((fp,), ("tt", fp, 1))
        cache.put_spcf((2,), ("tt", 99, 1))  # refresh a key while full
        assert cache.stats()["spcf_entries"] == 4
        for fp in range(4):
            assert cache.get_spcf((fp,)) is not None
        assert cache.get_spcf((2,)) == ("tt", 99, 1)
        # Same contract for the rejected negative-cache.
        for fp in range(4):
            cache.mark_rejected((fp,))
        cache.mark_rejected((1,))  # re-mark while full
        assert cache.stats()["rejected_entries"] == 4
        for fp in range(4):
            assert cache.is_rejected((fp,))

    def test_lru_refresh_on_hit(self):
        # The store upgraded the spcf table from FIFO to LRU: a hit
        # protects the entry from the next eviction.
        cache = ConeCache(max_entries=2)
        cache.put_spcf((1,), ("tt", 1, 1))
        cache.put_spcf((2,), ("tt", 2, 1))
        cache.get_spcf((1,))
        cache.put_spcf((3,), ("tt", 3, 1))
        assert cache.get_spcf((1,)) is not None
        assert cache.get_spcf((2,)) is None

    def test_clear(self):
        cache = ConeCache()
        cache.put_spcf((1,), ("sim", 3))
        cache.put_node_tts(2, [])
        cache.mark_rejected((3,))
        cache.clear()
        assert cache.stats() == {
            "spcf_entries": 0,
            "tts_entries": 0,
            "rejected_entries": 0,
        }


class TestCacheCarry:
    def test_added_since_returns_only_new_entries(self):
        parent = ConeCache()
        parent.put_spcf(("a",), ("tt", 1, 1))
        parent.mark_rejected(("r",))
        parent.put_node_tts(7, [])
        carried = parent.export()
        assert sorted(carried) == ["rejected", "spcf"]  # no tts
        worker = ConeCache()
        worker.absorb(carried)
        assert worker.get_spcf(("a",)) == ("tt", 1, 1)
        worker.put_spcf(("b",), ("sim", 3))
        worker.mark_rejected(("s",))
        added = worker.added_since(carried)
        assert [len(added["spcf"]), len(added["rejected"])] == [1, 1]
        parent.absorb(added)
        assert parent.get_spcf(("b",)) == ("sim", 3)
        assert parent.is_rejected(("s",))
        assert parent.stats()["spcf_entries"] == 2

    def test_store_backed_cache_carries_nothing(self, tmp_path):
        from repro.store import runtime as store_runtime

        store_runtime.reset()
        try:
            store = store_runtime.configure(str(tmp_path / "r.db"))
            assert ConeCache(store=store).export() is None
        finally:
            store_runtime.reset()


class TestCacheAcrossOptimizeCalls:
    def test_second_optimize_reports_cache_hits(self):
        aig = ripple_carry_adder(4)
        opt = LookaheadOptimizer(max_rounds=4)
        first = opt.optimize(aig)
        before_hits = perf.counter("cache.spcf.hit")
        before_rejects = perf.counter("cache.rejected.hit")
        second = opt.optimize(aig)
        # Unchanged cones are recognized: fruitful ones hit the SPCF
        # cache, fruitless ones are skipped through the rejected set.
        assert perf.counter("cache.spcf.hit") > before_hits
        assert perf.counter("cache.rejected.hit") > before_rejects
        assert depth(second) == depth(first)
        assert check_equivalence(aig, second)

    def test_mutated_cone_misses_the_cache(self):
        # A structural change to a cone changes its fingerprint, so the
        # stale entry is never looked up again.
        aig = ripple_carry_adder(3)
        opt = LookaheadOptimizer(max_rounds=2, walk_modes=("target",))
        opt.optimize(aig)

        mutated = ripple_carry_adder(3)
        po = mutated.pos[-1]
        a, b = mutated.pis[0], mutated.pis[1]
        twist = mutated.and_(2 * a, 2 * b)
        mutated.pos[-1] = mutated.xor_(po, twist)
        assert cone_fingerprint(aig, [aig.pos[-1]]) != cone_fingerprint(
            mutated, [mutated.pos[-1]]
        )

        before_miss = perf.counter("cache.spcf.miss")
        out = opt.optimize(mutated)
        assert perf.counter("cache.spcf.miss") > before_miss
        assert check_equivalence(mutated, out)

    def test_shared_cache_between_optimizers(self):
        aig = ripple_carry_adder(4)
        cache = ConeCache()
        kw = dict(max_rounds=2, walk_modes=("target",), cache=cache)
        LookaheadOptimizer(**kw).optimize(aig)
        assert cache.stats()["spcf_entries"] > 0
        before_hits = perf.counter("cache.spcf.hit")
        LookaheadOptimizer(**kw).optimize(aig)
        assert perf.counter("cache.spcf.hit") > before_hits
