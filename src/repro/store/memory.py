"""Bounded in-memory result store (per-namespace LRU).

Replaces the hand-rolled FIFO dicts the memo layers used to carry: one
:class:`MemoryStore` holds any number of namespaces, each an
insertion-ordered dict used as an LRU (a hit refreshes recency, so a
namespace that is over its bound drops the *least recently used* entry,
not merely the oldest insert).  Values are held by reference — callers
that rely on identity (the SPCF DP memo pool mutates its dicts in place)
get the exact object back on every hit.

Overwrites never evict: re-putting an existing key only refreshes its
value and recency.  The previous ad-hoc caches evicted *before* checking
for the key, so refreshing an entry in a full table silently dropped an
unrelated one — the regression tests in ``tests/store`` and
``tests/core/test_cache.py`` pin the fixed behaviour.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence

from .. import perf
from .base import MISSING, ResultStore
from .serialize import encode_key


class MemoryStore(ResultStore):
    """Thread-safe bounded LRU store; the default (non-persistent) backend."""

    persistent = False

    def __init__(
        self,
        default_limit: int = 4096,
        limits: Optional[Dict[str, int]] = None,
    ) -> None:
        if default_limit < 1:
            raise ValueError("default_limit must be >= 1")
        self.default_limit = default_limit
        self.limits = dict(limits) if limits else {}
        self._lock = threading.Lock()
        # ns -> encoded key -> value; dicts preserve insertion order, and
        # move-to-end on hit makes them LRUs.
        self._tables: Dict[str, Dict[str, Any]] = {}

    def limit(self, ns: str) -> int:
        return self.limits.get(ns, self.default_limit)

    def get(self, ns: str, key: Any) -> Any:
        ekey = encode_key(key)
        with self._lock:
            table = self._tables.get(ns)
            if table is None:
                return MISSING
            # Refresh recency: re-insert at the MRU end.
            value = table.pop(ekey, MISSING)
            if value is not MISSING:
                table[ekey] = value
            return value

    def put(self, ns: str, key: Any, value: Any) -> None:
        ekey = encode_key(key)
        with self._lock:
            self._insert(ns, ekey, value)

    def _insert(self, ns: str, ekey: str, value: Any) -> None:
        table = self._tables.setdefault(ns, {})
        if ekey in table:
            # Overwrite: refresh value and recency, never evict.
            del table[ekey]
        else:
            limit = self.limit(ns)
            while len(table) >= limit:
                table.pop(next(iter(table)))
                perf.incr("store.evict")
                perf.incr(f"store.{ns}.evict")
        table[ekey] = value

    def export(self, namespaces: Sequence[str]) -> Dict[str, List[tuple]]:
        """Picklable copy of some namespaces' entries, least recent first.

        :meth:`absorb` replays it into another store as the same
        sequence of puts, so a pool worker can start from this store's
        entries and hand back the ones it added.
        """
        with self._lock:
            return {
                ns: list(self._tables.get(ns, {}).items())
                for ns in namespaces
            }

    def absorb(self, entries: Dict[str, List[tuple]]) -> None:
        """Put every entry of an :meth:`export`, in order."""
        with self._lock:
            for ns, items in entries.items():
                for ekey, value in items:
                    self._insert(ns, ekey, value)

    def invalidate(self, ns: Optional[str] = None) -> int:
        with self._lock:
            spaces = [ns] if ns is not None else list(self._tables)
            removed = 0
            for name in spaces:
                table = self._tables.get(name)
                if table is not None:
                    removed += len(table)
                    table.clear()
            return removed

    def stats(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {
                name: {"entries": len(table), "limit": self.limit(name)}
                for name, table in self._tables.items()
            }

    def __repr__(self) -> str:
        sizes = {name: len(t) for name, t in self._tables.items()}
        return f"MemoryStore({sizes})"
