"""The persistent SQLite backend: durability, self-invalidation, safety.

The contract under any kind of file damage is *cold start, never a crash,
never a wrong payload* — a lost cache costs a warm-up, a wrong payload
costs a miscompile.
"""

from __future__ import annotations

import os
import signal
import sqlite3
import subprocess
import sys
import time

from repro import perf
from repro.store import (
    MISSING,
    PAYLOAD_VERSION,
    SqliteStore,
    dumps,
    encode_key,
)

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def _store(tmp_path, name="results.db"):
    return SqliteStore(str(tmp_path / name))


def _exit_code(pid, seconds):
    """A forked child's exit code; ``None``, once killed, if it hangs."""
    deadline = time.monotonic() + seconds
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return None
        time.sleep(0.005)


class TestRoundtrip:
    def test_get_put_and_reopen(self, tmp_path):
        store = _store(tmp_path)
        key = (123, "tt", "exact", ("unit",))
        assert store.get("spcf", key) is MISSING
        store.put("spcf", key, ("tt", (1 << 90) + 3, 7))
        assert store.get("spcf", key) == ("tt", (1 << 90) + 3, 7)
        store.close()
        # A fresh store over the same file sees the entry (persistence).
        reopened = _store(tmp_path)
        assert reopened.get("spcf", key) == ("tt", (1 << 90) + 3, 7)
        reopened.close()

    def test_overwrite_updates_in_place(self, tmp_path):
        store = _store(tmp_path)
        store.put("ns", (1,), "old")
        store.put("ns", (1,), "new")
        assert store.get("ns", (1,)) == "new"
        assert store.entries("ns") == 1
        store.close()

    def test_stats_and_file_size(self, tmp_path):
        store = _store(tmp_path)
        store.put("a", (1,), 1)
        store.put("a", (2,), 2)
        store.put("b", (1,), 3)
        assert store.stats() == {
            "a": {"entries": 2},
            "b": {"entries": 1},
        }
        assert store.file_size() > 0
        store.close()

    def test_creates_parent_directories(self, tmp_path):
        store = SqliteStore(str(tmp_path / "deep" / "nested" / "r.db"))
        store.put("ns", (1,), "x")
        assert store.get("ns", (1,)) == "x"
        store.close()


class TestInvalidation:
    def test_clear_namespace_and_all(self, tmp_path):
        store = _store(tmp_path)
        store.put("a", (1,), 1)
        store.put("b", (1,), 2)
        assert store.invalidate("a") == 1
        assert store.invalidate() == 1
        assert store.stats() == {}
        store.close()


class TestSelfInvalidation:
    def test_schema_version_mismatch_wipes_entries(self, tmp_path):
        path = str(tmp_path / "results.db")
        store = SqliteStore(path)
        store.put("ns", (1,), "stale")
        store.close()
        # Pretend the file was written by a foreign format revision.
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '0.0' WHERE key = 'version'")
        conn.commit()
        conn.close()
        before = perf.counter("store.schema_invalidations")
        reopened = SqliteStore(path)
        assert perf.counter("store.schema_invalidations") == before + 1
        assert reopened.get("ns", (1,)) is MISSING
        # The new version is recorded, so the wipe happens once.
        reopened.put("ns", (1,), "fresh")
        reopened.close()
        again = SqliteStore(path)
        assert again.get("ns", (1,)) == "fresh"
        again.close()

    def test_version_one_file_migrates_in_place(self, tmp_path):
        # Schema version 1 kept a fingerprint column and index beside
        # each row.  Opening such a file must replace the table, not
        # only empty it: a put into the old four-column table would fail
        # and cost a whole-file rebuild.
        path = str(tmp_path / "results.db")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute(
            "INSERT INTO meta VALUES ('version', ?)",
            (f"1.{PAYLOAD_VERSION}",),
        )
        conn.execute(
            "CREATE TABLE entries (ns TEXT NOT NULL, key TEXT NOT NULL,"
            " fp TEXT NOT NULL, value BLOB NOT NULL, PRIMARY KEY (ns, key))"
        )
        conn.execute("CREATE INDEX entries_fp ON entries (ns, fp)")
        conn.execute(
            "INSERT INTO entries VALUES ('cone', ?, '7', ?)",
            (encode_key((7,)), dumps("stale")),
        )
        conn.commit()
        conn.close()
        rebuilds = perf.counter("store.rebuilds")
        store = SqliteStore(path)
        assert store.stats() == {}
        store.put("job", (1,), "answer")
        assert store.get("job", (1,)) == "answer"
        store.close()
        assert perf.counter("store.rebuilds") == rebuilds
        conn = sqlite3.connect(path)
        try:
            columns = [
                row[1] for row in conn.execute("PRAGMA table_info(entries)")
            ]
            indexes = conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
                " AND name = 'entries_fp'"
            ).fetchall()
        finally:
            conn.close()
        assert columns == ["ns", "key", "value"]
        assert indexes == []

    def test_corrupt_row_reads_as_miss(self, tmp_path):
        path = str(tmp_path / "results.db")
        store = SqliteStore(path)
        store.put("ns", (1,), "good")
        store.close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE entries SET value = ? WHERE key = ?",
            (b"not a payload", encode_key((1,))),
        )
        conn.execute(
            "INSERT INTO entries VALUES ('ns', ?, ?)",
            (encode_key((2,)), b'[%d,"wrong version"]' % (PAYLOAD_VERSION + 9)),
        )
        conn.commit()
        conn.close()
        before = perf.counter("store.decode_errors")
        reopened = SqliteStore(path)
        assert reopened.get("ns", (1,)) is MISSING
        assert reopened.get("ns", (2,)) is MISSING
        assert perf.counter("store.decode_errors") == before + 2
        reopened.close()


class TestCorruptFiles:
    """A damaged database file rebuilds cold — no crash, no wrong data."""

    def _assert_rebuilds_cold(self, path):
        before = perf.counter("store.rebuilds")
        store = SqliteStore(path)
        assert store.get("ns", (1,)) is MISSING
        store.put("ns", (1,), "fresh")
        assert store.get("ns", (1,)) == "fresh"
        assert perf.counter("store.rebuilds") > before
        store.close()

    def test_garbage_file(self, tmp_path):
        path = str(tmp_path / "results.db")
        with open(path, "wb") as f:
            f.write(b"this is definitely not a sqlite database" * 64)
        self._assert_rebuilds_cold(path)

    def test_truncated_database(self, tmp_path):
        path = str(tmp_path / "results.db")
        seed = SqliteStore(path)
        for i in range(64):
            seed.put("ns", (i,), ("payload", i))
        seed.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(max(100, size // 3))
        # Truncation may surface at open or at first query; either way the
        # store must end up serving MISSING-then-fresh, never junk.
        store = SqliteStore(path)
        got = store.get("ns", (1,))
        assert got is MISSING or got == ("payload", 1)
        store.put("ns", (999,), "fresh")
        assert store.get("ns", (999,)) == "fresh"
        store.close()

    def test_header_scribble(self, tmp_path):
        path = str(tmp_path / "results.db")
        seed = SqliteStore(path)
        seed.put("ns", (1,), "x")
        seed.close()
        with open(path, "r+b") as f:
            f.write(b"\xff" * 32)  # destroy the SQLite magic header
        self._assert_rebuilds_cold(path)


class TestConcurrency:
    def test_two_processes_write_one_database(self, tmp_path):
        """Concurrent writers from separate processes both land their rows.

        WAL plus the busy timeout serializes the writes; neither process
        may crash and the union of both key ranges must be readable.
        """
        path = str(tmp_path / "results.db")
        SqliteStore(path).close()  # settle schema creation up front
        script = (
            "import sys\n"
            "from repro.store import SqliteStore\n"
            "path, base = sys.argv[1], int(sys.argv[2])\n"
            "store = SqliteStore(path)\n"
            "for i in range(base, base + 50):\n"
            "    store.put('shared', (i,), ('from', base, i))\n"
            "store.close()\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, path, str(base)],
                env=env,
                stderr=subprocess.PIPE,
            )
            for base in (0, 1000)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        store = SqliteStore(path)
        assert store.entries("shared") == 100
        for base in (0, 1000):
            for i in (base, base + 49):
                assert store.get("shared", (i,)) == ("from", base, i)
        store.close()

    def test_reader_sees_writer_commits(self, tmp_path):
        path = str(tmp_path / "results.db")
        writer = SqliteStore(path)
        reader = SqliteStore(path)
        writer.put("ns", (1,), "v1")
        assert reader.get("ns", (1,)) == "v1"  # autocommit, WAL readers
        writer.put("ns", (1,), "v2")
        assert reader.get("ns", (1,)) == "v2"
        writer.close()
        reader.close()


class TestThreadSafety:
    def test_multithreaded_hammer(self, tmp_path):
        """Daemon-shaped load: one store shared by many threads.

        ``check_same_thread=False`` alone is not thread safety — the
        per-store lock must serialize the execute/fetch (and
        error/rebuild) sequences.  Eight threads is above the default
        daemon thread count (listener + handlers + runners).
        """
        import threading

        store = _store(tmp_path)
        nthreads, per_thread = 8, 60
        barrier = threading.Barrier(nthreads)
        errors = []

        def worker(tid):
            try:
                barrier.wait()
                for i in range(per_thread):
                    key = (tid, i)
                    store.put("hammer", key, ["payload", tid, i])
                    assert store.get("hammer", key) == ["payload", tid, i]
                    if i % 7 == 0:
                        store.get("hammer", (tid, i, "absent"))
                    if i % 13 == 0:
                        store.stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(nthreads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert store.entries("hammer") == nthreads * per_thread
        for tid in range(nthreads):
            for i in (0, per_thread - 1):
                assert store.get("hammer", (tid, i)) == ["payload", tid, i]
        store.close()

    def test_invalidate_races_writers(self, tmp_path):
        """invalidate() interleaved with puts never crashes or corrupts."""
        import threading

        store = _store(tmp_path)
        stop = threading.Event()
        errors = []

        def writer():
            try:
                i = 0
                while not stop.is_set():
                    store.put("race", (i,), i)
                    i += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def invalidator():
            try:
                for _ in range(25):
                    store.invalidate("race")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        w = threading.Thread(target=writer)
        w.start()
        inv = threading.Thread(target=invalidator)
        inv.start()
        inv.join(timeout=120)
        stop.set()
        w.join(timeout=120)
        assert not errors, errors
        store.stats()  # still a usable database
        store.close()

    def test_fork_beside_a_reading_thread(self, tmp_path):
        """A child forked while another thread reads can open a store.

        The daemon's pool forks its workers while submit handlers read
        the store.  A fork inside one of SQLite's calls would hand the
        child SQLite's internal mutexes held, and the child's first
        connection would hang on them.
        """
        import threading

        store = _store(tmp_path)
        store.put("fork", ("k",), "v")
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                store.get("fork", ("k",))
                store.get("fork", ("absent",))

        thread = threading.Thread(target=reader)
        thread.start()
        codes = []
        try:
            for i in range(40):
                pid = os.fork()
                if pid == 0:  # the child: open its own store and read
                    code = 1
                    try:
                        child = SqliteStore(str(tmp_path / f"child{i}.db"))
                        child.get("fork", ("k",))
                        code = 0
                    finally:
                        os._exit(code)
                codes.append(_exit_code(pid, 20))
                if codes[-1] != 0:
                    break  # None: the child hung
        finally:
            stop.set()
            thread.join(timeout=60)
            store.close()
        assert codes == [0] * 40


class TestDegradedMode:
    def _wedge(self, store, monkeypatch):
        """Make every reopen attempt fail, as an unwritable disk would."""

        def broken_open():
            raise sqlite3.OperationalError("disk gone")

        monkeypatch.setattr(store, "_open", broken_open)
        store._conn.close()  # next use hits the error path
        store._conn = None

    def test_repeated_rebuild_failures_degrade_not_crash(
        self, tmp_path, monkeypatch
    ):
        from repro.store.sqlite import MAX_REBUILD_ATTEMPTS

        store = _store(tmp_path)
        store.put("ns", (1,), "v")
        self._wedge(store, monkeypatch)
        base = perf.counter("store.degraded")
        # Every op mid-run survives; after the attempt cap the store
        # stops trying (degraded) instead of raising out of the memo
        # layers.
        for _ in range(MAX_REBUILD_ATTEMPTS + 2):
            assert store.get("ns", (1,)) is MISSING
        assert store.degraded
        assert perf.counter("store.degraded") == base + 1

    def test_degraded_store_drops_traffic_silently(
        self, tmp_path, monkeypatch
    ):
        from repro.store.sqlite import MAX_REBUILD_ATTEMPTS

        store = _store(tmp_path)
        self._wedge(store, monkeypatch)
        for _ in range(MAX_REBUILD_ATTEMPTS):
            store.put("ns", (1,), "v")
        assert store.degraded
        drops = perf.counter("store.degraded.drops")
        store.put("ns", (2,), "w")          # dropped
        assert store.get("ns", (2,)) is MISSING
        assert store.invalidate("ns") == 0
        assert store.stats() == {}
        assert perf.counter("store.degraded.drops") > drops
        store.close()  # still clean

    def test_construction_over_unusable_path_raises(self, tmp_path):
        # The parent "directory" is a file: makedirs cannot succeed.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        try:
            SqliteStore(str(blocker / "sub" / "results.db"))
        except OSError:
            pass
        else:
            raise AssertionError("construction must surface a bad path")
