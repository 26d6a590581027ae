"""The :class:`ResultStore` protocol and the consumer-facing namespace view.

A result store is a namespaced key/value memo shared by every cache layer
in the system (SPCF payloads, rejected cones, whole cone results,
redundancy proofs).  The contract every backend implements:

* **namespaced** ``get``/``put``/``stats`` — namespaces isolate layers
  with different key schemas and lifetimes inside one store;
* **fingerprint keying** — by convention a key's leading element is the
  structural fingerprint the entry's validity depends on, which makes
  invalidation explicit (:meth:`ResultStore.invalidate`) and staleness
  impossible by construction (a mutated cone has a new fingerprint, so
  stale entries are simply never looked up again);
* **versioned serialization** — persistent backends store payloads
  through :mod:`repro.store.serialize`; a format bump or a corrupt row
  reads back as a miss, never as a wrong payload and never as a crash.

Consumers do not talk to backends directly: :meth:`ResultStore.namespace`
returns a :class:`Namespace` view that owns the ``store.<ns>.hit/miss``
perf counters and optional value encode/decode hooks, so a memo layer is
a handful of one-line delegations (see ``repro.core.cache.ConeCache``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from .. import perf

MISSING = object()
"""Sentinel distinguishing 'no entry' from a stored ``None``."""


class ResultStore:
    """Abstract namespaced key/value result store."""

    #: Whether entries survive the process (disk-backed somewhere).
    persistent = False

    def get(self, ns: str, key: Any) -> Any:
        """The stored value, or :data:`MISSING` if absent."""
        raise NotImplementedError

    def put(self, ns: str, key: Any, value: Any) -> None:
        raise NotImplementedError

    def invalidate(
        self, ns: Optional[str] = None, fingerprint: Optional[int] = None
    ) -> int:
        """Drop entries; returns how many were removed.

        ``ns=None`` clears every namespace; ``fingerprint`` restricts the
        delete to keys whose leading structural fingerprint matches (the
        explicit invalidation-by-fingerprint path).
        """
        raise NotImplementedError

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-namespace statistics: at least ``{"entries": n}`` each."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    # -- conveniences shared by all backends -------------------------------

    def namespace(
        self,
        name: str,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> "Namespace":
        """A counting view of one namespace (see :class:`Namespace`)."""
        return Namespace(self, name, encode=encode, decode=decode)

    def entries(self, ns: str) -> int:
        """Entry count of one namespace (0 if it does not exist)."""
        return int(self.stats().get(ns, {}).get("entries", 0))


class Namespace:
    """One memo layer's view of a store: counters plus value codec hooks.

    ``encode``/``decode`` adapt rich in-memory values (e.g. lists of
    ``TruthTable``) to the codec-safe tuples the backends persist; both
    the memory and disk tiers hold the encoded form, so a view with hooks
    pays one decode per hit and nothing else.
    """

    __slots__ = ("store", "name", "_encode", "_decode", "_hit", "_miss")

    def __init__(
        self,
        store: ResultStore,
        name: str,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.store = store
        self.name = name
        self._encode = encode
        self._decode = decode
        self._hit = f"store.{name}.hit"
        self._miss = f"store.{name}.miss"

    def get(self, key: Any, default: Any = None) -> Any:
        value = self.store.get(self.name, key)
        if value is MISSING:
            perf.incr(self._miss)
            perf.incr("store.miss")
            return default
        perf.incr(self._hit)
        perf.incr("store.hit")
        return self._decode(value) if self._decode is not None else value

    def put(self, key: Any, value: Any) -> None:
        if self._encode is not None:
            value = self._encode(value)
        self.store.put(self.name, key, value)

    def contains(self, key: Any) -> bool:
        return self.get(key, MISSING) is not MISSING

    def clear(self) -> int:
        return self.store.invalidate(self.name)

    def invalidate(self, fingerprint: int) -> int:
        return self.store.invalidate(self.name, fingerprint=fingerprint)

    def entries(self) -> int:
        return self.store.entries(self.name)


class StoreConfig:
    """How a run's result store is built (the ``--store`` surface).

    ``path=None`` is a pure in-memory store (results die with the
    process); a path selects the tiered memory-over-SQLite arrangement.
    ``memory_entries`` bounds each in-memory namespace; ``limits`` gives
    specific namespaces their own bound (e.g. the redundancy verdict set
    runs larger than the SPCF payload table).
    """

    __slots__ = ("path", "memory_entries", "limits")

    def __init__(
        self,
        path: Optional[str] = None,
        memory_entries: int = 4096,
        limits: Optional[Dict[str, int]] = None,
    ) -> None:
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        self.path = path
        self.memory_entries = memory_entries
        self.limits = dict(limits) if limits else {}

    def build(self) -> ResultStore:
        from .memory import MemoryStore
        from .sqlite import SqliteStore
        from .tiered import TieredStore

        memory = MemoryStore(
            default_limit=self.memory_entries, limits=self.limits
        )
        if self.path is None:
            return memory
        return TieredStore(memory, SqliteStore(self.path))

    def __repr__(self) -> str:
        return f"StoreConfig(path={self.path!r})"


StoreSpec = Union[None, str, StoreConfig, ResultStore]
"""What callers may pass as a store: nothing, a DB path, a config, or a
ready-made store object."""


def resolve_store(spec: StoreSpec) -> Optional[ResultStore]:
    """Normalize a user-facing store spec to a store (or None = no store)."""
    if spec is None:
        return None
    if isinstance(spec, ResultStore):
        return spec
    if isinstance(spec, StoreConfig):
        return spec.build()
    if isinstance(spec, str):
        return StoreConfig(path=spec).build()
    raise TypeError(
        f"expected a path, StoreConfig, or ResultStore, got {spec!r}"
    )
