"""Result stores: namespaced memos behind one pluggable backend.

A persistent store keeps whole job answers, so a repeated job (same
circuit, same options) replays its answer instead of running again; the
optimizer's own memos are namespaces of process-local
:class:`MemoryStore` instances:

* :mod:`repro.store.base` — the :class:`ResultStore` protocol and the
  per-layer :class:`Namespace` view;
* :mod:`repro.store.memory` — bounded LRU :class:`MemoryStore`;
* :mod:`repro.store.sqlite` — persistent WAL-mode :class:`SqliteStore`;
* :mod:`repro.store.tiered` — write-through :class:`TieredStore`;
* :mod:`repro.store.runtime` — the per-process runtime store the job
  entry points consult (fork-aware);
* :mod:`repro.store.serialize` — versioned key/payload codec.

See DESIGN.md §3.20 for the job keys and the warm==cold guarantee.
"""

from .base import MISSING, Namespace, ResultStore
from .memory import MemoryStore
from .serialize import (
    PAYLOAD_VERSION,
    StoreDecodeError,
    dumps,
    encode_key,
    loads,
)
from .sqlite import SCHEMA_VERSION, SqliteStore
from .tiered import TieredStore

__all__ = [
    "MISSING",
    "Namespace",
    "ResultStore",
    "MemoryStore",
    "SqliteStore",
    "TieredStore",
    "SCHEMA_VERSION",
    "PAYLOAD_VERSION",
    "StoreDecodeError",
    "dumps",
    "loads",
    "encode_key",
]
