"""Persistent SQLite result store (WAL mode, schema-versioned).

One database file holds every namespace as rows of a single ``entries``
table keyed by ``(ns, key)``; the key is the canonical text encoding of
:func:`repro.store.serialize.encode_key` and the value a versioned codec
payload.  Design points:

* **WAL journaling** — readers never block the (single) writer and vice
  versa, which is exactly the daemon-shaped access pattern the store is
  built for: many concurrent warm readers, occasional writers.  Multiple
  writers are *safe* (SQLite serializes them through the write lock and a
  generous busy timeout) just not fast; a loaded deployment should keep
  one writer per namespace.
* **Thread safety** — the connection is opened with
  ``check_same_thread=False`` so daemon handler/runner threads can share
  one store, and a :class:`threading.RLock` serializes every
  use of the connection (``sqlite3`` serializes individual statements,
  but our execute/fetch and error/rebuild sequences span several calls
  and would otherwise interleave cursor state between threads).
* **Schema versioning** — ``meta`` records the schema and payload-codec
  versions this file was written with.  A mismatch on open drops and
  recreates ``entries`` in the current layout and starts cold: a stale
  format is self-invalidating, never misread.
* **Corruption = cold start, never a crash** — a file that does not
  parse as a database (truncated, garbage, wrong format) is deleted and
  rebuilt; a row that fails payload decoding reads as a miss.  If the
  rebuild itself keeps failing (e.g. the parent directory becomes
  unwritable mid-run), the store *degrades* after
  :data:`MAX_REBUILD_ATTEMPTS` consecutive failures instead of
  propagating: reads return ``MISSING``, writes are dropped, and the
  ``store.degraded`` counter records the transition.  Losing a cache is
  always acceptable; serving a wrong payload or taking the optimizer
  down is not.  Only *construction* of a store over an unusable path
  raises — that is a configuration error the caller must see (and
  :func:`repro.store.runtime.configure` relies on it to leave the
  previous store installed).
* **Fork safety** — SQLite connections must not cross ``fork()``.  Every
  operation checks the owning PID and transparently reopens in a child
  process (the parent's connection is dropped unclosed there; closing it
  from the child would corrupt the parent's file descriptors).  Nor may
  a fork land while another thread is inside SQLite: the child would
  inherit SQLite's internal mutexes held and hang on its first
  connection.  So one lock serializes every store's use of SQLite, and
  ``fork()`` takes it too (:data:`_LOCK`).

Latency of disk hits is observed in the ``store.load`` histogram so
``--profile`` answers "is the warm path actually fast".
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from typing import Any, Dict, Optional

from .. import perf
from .base import MISSING, ResultStore
from .serialize import (
    PAYLOAD_VERSION,
    StoreDecodeError,
    dumps,
    encode_key,
    loads,
)

SCHEMA_VERSION = 2
"""Bump on any table-layout change; old files then start cold.

Version 2 dropped version 1's per-row fingerprint column (``fp``) and
its index, and with them the rows of the cone-level namespaces only
version 1 wrote."""

BUSY_TIMEOUT_MS = 10_000
"""How long a writer waits on the database lock before erroring."""

MAX_REBUILD_ATTEMPTS = 3
"""Consecutive failed cold rebuilds before the store degrades to a
read-as-miss / drop-writes stub (see the module docstring)."""

_LOCK = threading.RLock()
"""Held by every store around its use of SQLite, and by ``fork()``.

An RLock: the op -> error -> ``_rebuild`` path re-enters with it held.
Pool workers fork while daemon threads read the store; the at-fork hooks
make the fork wait until no thread is inside SQLite."""

os.register_at_fork(
    before=_LOCK.acquire,
    after_in_parent=_LOCK.release,
    after_in_child=_LOCK.release,
)


class SqliteStore(ResultStore):
    """Durable result store over one SQLite file."""

    persistent = True

    def __init__(self, path: str) -> None:
        self.path = path
        self._conn: Optional[sqlite3.Connection] = None
        self._pid = -1
        self._lock = _LOCK
        self._rebuild_failures = 0
        self._degraded = False
        self._connect(initial=True)

    # -- connection & schema lifecycle -------------------------------------

    def _connect(self, initial: bool = False) -> None:
        """(Re)open the database; ``initial`` raises on an unusable path."""
        self._pid = os.getpid()
        parent = os.path.dirname(os.path.abspath(self.path))
        try:
            os.makedirs(parent, exist_ok=True)
        except OSError:
            if initial:
                raise  # unusable path at construction: surface it
            self._note_rebuild_failure()
            return
        try:
            self._conn = self._open()
            self._rebuild_failures = 0
        except sqlite3.Error:
            # Unreadable database: rebuild cold rather than crash.
            self._rebuild(initial=initial)

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path,
            timeout=BUSY_TIMEOUT_MS / 1000.0,
            isolation_level=None,  # autocommit; puts are single statements
            check_same_thread=False,
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            # One write transaction: a second process opening the same
            # old file waits, then finds it already migrated.
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT)"
            )
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'version'"
            ).fetchone()
            version = f"{SCHEMA_VERSION}.{PAYLOAD_VERSION}"
            if row is not None and row[0] != version:
                # Foreign schema or payload format: self-invalidate.  The
                # table goes whole, since its layout may be foreign too.
                perf.incr("store.schema_invalidations")
                conn.execute("DROP TABLE IF EXISTS entries")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " ns TEXT NOT NULL,"
                " key TEXT NOT NULL,"
                " value BLOB NOT NULL,"
                " PRIMARY KEY (ns, key))"
            )
            if row is None or row[0] != version:
                conn.execute(
                    "INSERT OR REPLACE INTO meta VALUES ('version', ?)",
                    (version,),
                )
            conn.execute("COMMIT")
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    def _rebuild(self, initial: bool = False) -> None:
        """Delete the damaged file (and WAL sidecars) and start cold.

        Never raises mid-run: a rebuild whose fresh ``_open`` fails counts
        toward :data:`MAX_REBUILD_ATTEMPTS`, after which the store
        degrades (reads miss, writes drop) rather than crash the caller.
        ``initial`` (construction) re-raises instead — an unusable path is
        a configuration error, not runtime damage.
        """
        with self._lock:
            if self._degraded:
                return
            perf.incr("store.rebuilds")
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.remove(self.path + suffix)
                except OSError:
                    pass
            try:
                self._conn = self._open()
                self._rebuild_failures = 0
            except (sqlite3.Error, OSError):
                if initial:
                    raise
                self._note_rebuild_failure()

    def _note_rebuild_failure(self) -> None:
        self._rebuild_failures += 1
        if (
            self._rebuild_failures >= MAX_REBUILD_ATTEMPTS
            and not self._degraded
        ):
            self._degraded = True
            perf.incr("store.degraded")

    @property
    def degraded(self) -> bool:
        """Whether the store gave up rebuilding and now drops all traffic."""
        return self._degraded

    def _db(self) -> Optional[sqlite3.Connection]:
        """The live connection, or ``None`` when the store is degraded."""
        if self._degraded:
            return None
        if self._pid != os.getpid():
            # Forked child: the inherited connection belongs to the
            # parent.  Drop the reference without closing and reopen.
            self._conn = None
            self._connect()
        elif self._conn is None:
            self._connect()
        return self._conn

    # -- the store protocol -------------------------------------------------

    def get(self, ns: str, key: Any) -> Any:
        start = time.perf_counter()
        with self._lock:
            try:
                conn = self._db()
                if conn is None:
                    perf.incr("store.degraded.drops")
                    return MISSING
                row = conn.execute(
                    "SELECT value FROM entries WHERE ns = ? AND key = ?",
                    (ns, encode_key(key)),
                ).fetchone()
            except (sqlite3.Error, OSError):
                self._rebuild()
                return MISSING
            finally:
                perf.observe("store.load", time.perf_counter() - start)
        if row is None:
            return MISSING
        try:
            return loads(row[0])
        except StoreDecodeError:
            perf.incr("store.decode_errors")
            return MISSING

    def put(self, ns: str, key: Any, value: Any) -> None:
        payload = dumps(value)  # encode before touching the DB
        with self._lock:
            try:
                conn = self._db()
                if conn is None:
                    perf.incr("store.degraded.drops")
                    return
                conn.execute(
                    "INSERT OR REPLACE INTO entries VALUES (?, ?, ?)",
                    (ns, encode_key(key), payload),
                )
            except (sqlite3.Error, OSError):
                # A failed write loses one memo entry, nothing else.
                self._rebuild()

    def invalidate(self, ns: Optional[str] = None) -> int:
        sql, params = "DELETE FROM entries", ()
        if ns is not None:
            sql, params = sql + " WHERE ns = ?", (ns,)
        with self._lock:
            try:
                conn = self._db()
                if conn is None:
                    perf.incr("store.degraded.drops")
                    return 0
                return conn.execute(sql, params).rowcount
            except (sqlite3.Error, OSError):
                self._rebuild()
                return 0

    def stats(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            try:
                conn = self._db()
                if conn is None:
                    perf.incr("store.degraded.drops")
                    return {}
                rows = conn.execute(
                    "SELECT ns, COUNT(*) FROM entries GROUP BY ns"
                ).fetchall()
            except (sqlite3.Error, OSError):
                self._rebuild()
                return {}
        return {ns: {"entries": count} for ns, count in rows}

    def file_size(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
            self._conn = None

    def __repr__(self) -> str:
        return f"SqliteStore({self.path!r})"
