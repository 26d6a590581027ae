"""Process-wide store runtime: one store per process, fork-aware.

The memo layers (cone cache, worker pools, whole cone results,
redundancy proofs) are reached from deep inside the optimizer and from
pool workers; threading a store handle through every call chain would
contaminate a dozen signatures.  Instead the process owns at most one
*runtime store*, configured at the flow/CLI boundary and consulted
lazily by the layers.

Fork-awareness mirrors :class:`~repro.store.sqlite.SqliteStore`: a
worker spawned by ``fork()`` inherits this module's state but must not
reuse the parent's backend objects blindly, so the active *spec* (not
the store) is what travels in worker task tuples and :func:`adopt`
rebuilds from it in the child on first use.

With no store configured (the default), :func:`get_store` hands out a
process-local :class:`MemoryStore` whose namespace bounds replicate the
pre-store cache limits exactly — behaviour, eviction order, and QoR are
bit-identical to the historical hand-rolled dicts.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from .base import ResultStore, StoreConfig, StoreSpec, resolve_store
from .memory import MemoryStore

#: Per-namespace bounds for in-memory tiers, replicating the historical
#: hand-rolled limits (see the pre-store ConeCache constants).
#: Namespaces not listed use the default bound.
MEMORY_LIMITS: Dict[str, int] = {
    "spcf": 4096,
    "tts": 4096,
    "rejected": 8192,
    "worker_tts": 256,
    "dp": 64,
    "redundant": 1 << 14,
    # Whole cone-task results (encoded networks — large entries, so a
    # modest in-memory bound; the disk tier holds the full history).
    "cone": 256,
    # Whole job answers (AIGER text of a circuit, DESIGN 3.20): larger
    # still, so a smaller bound.
    "job": 64,
    # Fitted rank-model artifacts, keyed by fingerprint (DESIGN 3.23).
    "rank_model": 16,
}

DEFAULT_MEMORY_ENTRIES = 4096

_state: Dict[str, Any] = {"store": None, "spec": None, "pid": None}


def default_store_path() -> str:
    """Where ``--store`` (no argument) and ``repro cache`` point.

    ``REPRO_STORE`` overrides; otherwise the conventional user cache dir.
    """
    env = os.environ.get("REPRO_STORE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "results.db")


def make_config(path: Optional[str]) -> StoreConfig:
    """A :class:`StoreConfig` with the standard namespace bounds."""
    return StoreConfig(
        path=path,
        memory_entries=DEFAULT_MEMORY_ENTRIES,
        limits=MEMORY_LIMITS,
    )


def _fresh_default() -> ResultStore:
    return MemoryStore(
        default_limit=DEFAULT_MEMORY_ENTRIES, limits=MEMORY_LIMITS
    )


def get_store() -> ResultStore:
    """The process's runtime store, built lazily and rebuilt after fork."""
    pid = os.getpid()
    if _state["pid"] != pid:
        # First use in this process (or first use after a fork): build
        # from the inherited spec.  The parent's backend objects are
        # dropped unclosed — closing them here would act on the parent's
        # file descriptors.
        _state["store"] = None
        _state["pid"] = pid
    if _state["store"] is None:
        spec = _state["spec"]
        _state["store"] = (
            resolve_store(spec) if spec is not None else _fresh_default()
        )
    return _state["store"]


def configure(spec: StoreSpec) -> ResultStore:
    """Install the process's runtime store from a spec and return it.

    ``None`` reverts to the default in-memory store.  A previous store
    built by this process is closed once the new one is in place.

    The new spec is resolved *before* anything is torn down: if
    ``resolve_store`` raises (e.g. an unwritable database path), the
    exception propagates with the previous store still installed and
    fully functional — configuring a bad store must never leave the
    runtime half-updated (new spec recorded, no store behind it).
    """
    if isinstance(spec, str):
        # A bare path gets the standard namespace bounds.
        spec = make_config(spec)
    new_store = resolve_store(spec) if spec is not None else None
    pid = os.getpid()
    old_store = _state["store"] if _state["pid"] == pid else None
    _state["spec"] = spec if not isinstance(spec, ResultStore) else None
    _state["store"] = new_store
    _state["pid"] = pid
    if old_store is not None and old_store is not new_store:
        old_store.close()
    return get_store()


def adopt(spec: StoreSpec) -> None:
    """Adopt a spec shipped in a worker task tuple (idempotent).

    Unlike :func:`configure` this is a no-op when the spec is already
    active, so per-task calls in a long-lived pool worker reuse one
    backend connection instead of reopening SQLite per cone.
    """
    current = _state["spec"]
    same = False
    if spec is None and current is None:
        same = True
    elif isinstance(spec, str) and isinstance(current, str):
        same = spec == current
    elif isinstance(spec, StoreConfig) and isinstance(current, StoreConfig):
        same = (
            spec.path == current.path
            and spec.memory_entries == current.memory_entries
            and spec.limits == current.limits
        )
    if same and _state["pid"] == os.getpid():
        return
    configure(spec)


def current_spec() -> StoreSpec:
    """The spec to ship to workers (always picklable: never a store)."""
    return _state["spec"]


def is_persistent() -> bool:
    """Whether the runtime store has a disk tier.

    Layers whose persistence changes solver-visible behaviour only in
    benign ways (redundancy verdicts) gate their store reads on this, so
    the default no-store configuration is bit-for-bit the historical
    behaviour.
    """
    return bool(get_store().persistent)


def reset() -> None:
    """Tear down runtime state (test isolation helper)."""
    if _state["store"] is not None and _state["pid"] == os.getpid():
        _state["store"].close()
    _state["store"] = None
    _state["spec"] = None
    _state["pid"] = None
