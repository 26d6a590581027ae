"""The :class:`ResultStore` protocol and the consumer-facing namespace view.

A result store is a namespaced key/value memo.  The persistent store
behind ``--store`` and ``repro serve`` holds whole job answers only (the
``job`` namespace, DESIGN 3.20); the optimizer's cross-round cone cache
and the worker-side pools are process-local :class:`MemoryStore`
namespaces.  The contract every backend implements:

* **namespaced** ``get``/``put``/``stats`` — namespaces isolate layers
  with different key schemas and lifetimes inside one store;
* **structural keys** — an entry's key names everything its value
  depends on (a job key leads with the input's structural fingerprint),
  so a changed input or option is a new key and stale entries are
  simply never looked up again; :meth:`ResultStore.invalidate` drops a
  namespace or the whole store;
* **versioned serialization** — persistent backends store payloads
  through :mod:`repro.store.serialize`; a format bump or a corrupt row
  reads back as a miss, never as a wrong payload and never as a crash.

Consumers do not talk to backends directly: :meth:`ResultStore.namespace`
returns a :class:`Namespace` view that owns the ``store.<ns>.hit/miss``
perf counters and optional value encode/decode hooks, so a memo layer is
a handful of one-line delegations (see ``repro.core.cache.ConeCache``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

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

    def invalidate(self, ns: Optional[str] = None) -> int:
        """Drop one namespace's entries (``None``: every namespace).

        Returns how many were removed.
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

    ``encode``/``decode`` adapt rich in-memory values (e.g. a job's
    answer :class:`~repro.aig.AIG`) to the codec-safe values the backends
    persist (its AIGER text); both the memory and disk tiers hold the
    encoded form, so a view with hooks pays one decode per hit and
    nothing else.
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

    def entries(self) -> int:
        return self.store.entries(self.name)
