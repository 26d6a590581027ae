"""Memory-over-disk tiered result store (write-through).

The arrangement ``--store PATH`` builds: a bounded :class:`MemoryStore`
absorbs the hot working set at dict speed while every put also lands in
the :class:`SqliteStore` beneath it, so results survive the process.  A
memory miss falls through to disk; a disk hit is *promoted* into the
memory tier so repeated lookups of warm entries never touch SQLite
again.

Because the memory tier holds values post-``dumps``-compatible (each
namespace's encode hook runs in the :class:`~repro.store.base.Namespace`
view before the store sees the value), promotion is a plain re-insert —
no re-encoding, no identity hazards.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .. import perf
from .base import MISSING, ResultStore
from .memory import MemoryStore
from .sqlite import SqliteStore


class TieredStore(ResultStore):
    """Write-through memory tier in front of a persistent tier."""

    def __init__(self, memory: MemoryStore, disk: ResultStore) -> None:
        self.memory = memory
        self.disk = disk

    @property
    def persistent(self) -> bool:  # type: ignore[override]
        return self.disk.persistent

    @property
    def path(self) -> Optional[str]:
        return getattr(self.disk, "path", None)

    def get(self, ns: str, key: Any) -> Any:
        value = self.memory.get(ns, key)
        if value is not MISSING:
            return value
        value = self.disk.get(ns, key)
        if value is not MISSING:
            perf.incr("store.promote")
            self.memory.put(ns, key, value)
        return value

    def put(self, ns: str, key: Any, value: Any) -> None:
        self.memory.put(ns, key, value)
        self.disk.put(ns, key, value)

    def invalidate(self, ns: Optional[str] = None) -> int:
        removed = self.disk.invalidate(ns)
        self.memory.invalidate(ns)
        return removed

    def stats(self) -> Dict[str, Dict[str, Any]]:
        merged: Dict[str, Dict[str, Any]] = {}
        for name, info in self.disk.stats().items():
            merged[name] = dict(info)
        for name, info in self.memory.stats().items():
            slot = merged.setdefault(name, {"entries": 0})
            slot["memory_entries"] = info["entries"]
            slot["memory_limit"] = info["limit"]
        return merged

    def close(self) -> None:
        self.disk.close()

    def __repr__(self) -> str:
        return f"TieredStore({self.memory!r}, {self.disk!r})"
