"""Process-wide store runtime: one store per process, fork-aware.

The process owns at most one *runtime store*, configured at the CLI or
daemon boundary (``repro optimize --store``, ``repro serve``).  Its only
readers and writers are the job entry points of
:mod:`repro.core.flow`, which keep whole job answers in its ``job``
namespace (DESIGN 3.20); the optimizer itself never touches it, so pool
workers need no store of their own.

Fork-awareness mirrors :class:`~repro.store.sqlite.SqliteStore`: a
process spawned by ``fork()`` inherits this module's state but must not
reuse the parent's backend objects, so :func:`get_store` rebuilds the
store from the recorded database path on first use in the child.

With no store configured (the default), :func:`get_store` hands out a
process-local :class:`MemoryStore`, and the job entry points skip it
(:func:`is_persistent`).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Union

from .base import ResultStore
from .memory import MemoryStore
from .sqlite import SqliteStore
from .tiered import TieredStore

#: Per-namespace bounds of the in-memory tier.  Whole job answers are
#: the AIGER text of a circuit, so a modest bound; the disk tier holds
#: the full history.
MEMORY_LIMITS: Dict[str, int] = {"job": 64}

_state: Dict[str, Any] = {"store": None, "path": None, "pid": None}


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


def _build(path: Optional[str]) -> ResultStore:
    """The bounded memory tier, over a SQLite file when ``path`` is set."""
    memory = MemoryStore(limits=MEMORY_LIMITS)
    if path is None:
        return memory
    return TieredStore(memory, SqliteStore(path))


def get_store() -> ResultStore:
    """The process's runtime store, built lazily and rebuilt after fork."""
    pid = os.getpid()
    if _state["pid"] != pid:
        # First use in this process (or first use after a fork): build
        # from the inherited path.  The parent's backend objects are
        # dropped unclosed — closing them here would act on the parent's
        # file descriptors.
        _state["store"] = None
        _state["pid"] = pid
    if _state["store"] is None:
        _state["store"] = _build(_state["path"])
    return _state["store"]


def configure(spec: Union[None, str, ResultStore]) -> ResultStore:
    """Install the process's runtime store and return it.

    ``spec`` is a database path (the tiered memory-over-SQLite store), a
    ready :class:`ResultStore`, or ``None`` for the default in-memory
    store.  A previous store built by this process is closed once the
    new one is in place.  A forked child rebuilds the store from its
    database path (``TieredStore.path`` for a ready store); a
    memory-only store has none, so the child starts from the default.

    The new store is built *before* anything is torn down: if building
    raises (e.g. an unwritable database path), the exception propagates
    with the previous store still installed and fully functional —
    configuring a bad store must never leave the runtime half-updated.
    """
    if isinstance(spec, str):
        new_store, path = _build(spec), spec
    else:
        new_store, path = spec, getattr(spec, "path", None)
    pid = os.getpid()
    old_store = _state["store"] if _state["pid"] == pid else None
    _state["path"] = path
    _state["store"] = new_store
    _state["pid"] = pid
    if old_store is not None and old_store is not new_store:
        old_store.close()
    return get_store()


def is_persistent() -> bool:
    """Whether the runtime store has a disk tier.

    The job entry points look answers up and write them only then, so a
    storeless run costs nothing.
    """
    return bool(get_store().persistent)


def reset() -> None:
    """Tear down runtime state (test isolation helper)."""
    if _state["store"] is not None and _state["pid"] == os.getpid():
        _state["store"].close()
    _state["store"] = None
    _state["path"] = None
    _state["pid"] = None
