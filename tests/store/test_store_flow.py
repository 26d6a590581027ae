"""Store integration: runtime lifecycle, job warm==cold, CLI surface.

The headline guarantee of the persistent store is that a disk-warm job is
*bit-identical* to a cold one — the store only ever replays the answer
the cold computation produced.
"""

from __future__ import annotations

import io
import os
import sqlite3

import pytest

from repro.adders import ripple_carry_adder
from repro.aig import read_aag, write_aag
from repro.cec import check_equivalence
from repro.core import (
    LookaheadOptimizer,
    execute_optimize_job,
    normalize_job_config,
)
from repro.store import MemoryStore, TieredStore
from repro.store import runtime as store_runtime


@pytest.fixture(autouse=True)
def _isolated_runtime():
    """Every test starts and ends with the default process-local store."""
    store_runtime.reset()
    yield
    store_runtime.reset()


def _dump(aig):
    buf = io.StringIO()
    write_aag(aig, buf)
    return buf.getvalue()


def _optimize(aig):
    with LookaheadOptimizer(max_rounds=4, workers=1) as opt:
        return opt.optimize(aig)


def _job(aig, store=None):
    """``_optimize``'s config as a ``lookahead-only`` job on ``store``."""
    store_runtime.reset()
    if store is not None:
        store_runtime.configure(store)
    config = normalize_job_config({"flow": "lookahead-only", "max_rounds": 4})
    return execute_optimize_job(aig, config, workers=1)


class TestRuntime:
    def test_default_store_is_memory_with_historical_limits(self):
        store = store_runtime.get_store()
        assert isinstance(store, MemoryStore)
        assert not store_runtime.is_persistent()
        assert store.limit("job") == store_runtime.MEMORY_LIMITS["job"]

    def test_configure_path_builds_tiered_store(self, tmp_path):
        path = str(tmp_path / "results.db")
        store = store_runtime.configure(path)
        assert isinstance(store, TieredStore)
        assert store.path == path
        assert store_runtime.is_persistent()
        assert store.memory.limit("job") == store_runtime.MEMORY_LIMITS["job"]

    def test_configure_none_reverts_to_default(self, tmp_path):
        store_runtime.configure(str(tmp_path / "results.db"))
        store_runtime.configure(None)
        assert not store_runtime.is_persistent()

    def test_default_store_path_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env.db"))
        assert store_runtime.default_store_path() == str(tmp_path / "env.db")
        monkeypatch.delenv("REPRO_STORE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert store_runtime.default_store_path() == str(
            tmp_path / "xdg" / "repro" / "results.db"
        )


class TestWarmEqualsCold:
    def test_disk_warm_run_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "results.db")
        aig = ripple_carry_adder(4)
        nostore = _dump(_optimize(aig))
        cold = _dump(_job(aig, path))
        assert os.path.exists(path)
        warm = _dump(_job(aig, path))  # fresh memory tier: disk-warm
        assert warm == cold
        # The store must never change *what* is computed, only how fast.
        assert cold == nostore

    def test_warm_run_hits_the_store(self, tmp_path):
        from repro import perf

        path = str(tmp_path / "results.db")
        aig = ripple_carry_adder(4)
        _job(aig, path)
        before = perf.counter("store.job.hit")
        out = _dump(_job(aig, path))
        assert perf.counter("store.job.hit") == before + 1
        assert check_equivalence(aig, read_aag(io.StringIO(out)))
        # Whole job answers are all the store holds.
        store_runtime.reset()
        conn = sqlite3.connect(path)
        try:
            rows = conn.execute(
                "SELECT ns, COUNT(*) FROM entries GROUP BY ns"
            ).fetchall()
        finally:
            conn.close()
        assert rows == [("job", 1)]

    def test_explicit_store_object_is_honoured(self):
        # A ready store is installed as it is; a memory-only one keeps
        # nothing for a job to replay, so the job runs cold.
        store = MemoryStore()
        aig = ripple_carry_adder(6)
        out = _job(aig, store)
        assert check_equivalence(aig, out)
        assert store_runtime.get_store() is store
        assert store.stats() == {}


class TestCli:
    def test_optimize_accepts_store_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["optimize", "x.aag", "--store", "/tmp/r.db"]
        )
        assert args.store == "/tmp/r.db"
        args = build_parser().parse_args(["optimize", "x.aag", "--store"])
        assert args.store == ""
        args = build_parser().parse_args(["optimize", "x.aag", "--no-store"])
        assert args.no_store and args.store is None

    def test_store_spec_precedence(self, monkeypatch, tmp_path):
        from repro.cli import _store_spec, build_parser

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env.db"))
        parse = lambda argv: build_parser().parse_args(argv)
        assert _store_spec(
            parse(["optimize", "x.aag", "--no-store"])
        ) is None
        assert _store_spec(
            parse(["optimize", "x.aag", "--store", "/tmp/x.db"])
        ) == "/tmp/x.db"
        assert _store_spec(parse(["optimize", "x.aag"])) == str(
            tmp_path / "env.db"
        )
        monkeypatch.delenv("REPRO_STORE")
        assert _store_spec(parse(["optimize", "x.aag"])) is None

    def test_cache_path_stats_clear(self, tmp_path, capsys):
        from repro.cli import main
        from repro.store import SqliteStore

        path = str(tmp_path / "results.db")
        assert main(["cache", "path", "--store", path]) == 0
        assert capsys.readouterr().out.strip() == path

        # No file yet: stats reports that and succeeds; clear fails.
        assert main(["cache", "stats", "--store", path]) == 0
        assert "no result store" in capsys.readouterr().out
        assert main(["cache", "clear", "--store", path]) == 1
        capsys.readouterr()

        store = SqliteStore(path)
        store.put("spcf", (1,), ("tt", 5, 2))
        store.put("redundant", (2,), True)
        store.close()
        assert main(["cache", "stats", "--store", path]) == 0
        out = capsys.readouterr().out
        assert "spcf" in out and "redundant" in out

        rc = main(["cache", "clear", "--store", path, "--namespace", "spcf"])
        assert rc == 0
        capsys.readouterr()
        reopened = SqliteStore(path)
        assert reopened.entries("spcf") == 0
        assert reopened.entries("redundant") == 1
        reopened.close()
        assert main(["cache", "clear", "--store", path]) == 0
        capsys.readouterr()
        final = SqliteStore(path)
        assert final.stats() == {}
        final.close()


class TestConfigureFailure:
    """Regression: a failing configure() must not half-update the runtime.

    The old order closed the previous store *before* resolving the new
    spec; when resolution raised, the process was left with a recorded
    spec but a closed (or missing) store behind it.  The new spec must be
    resolved first, and only then swapped in.
    """

    def _bad_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        return str(blocker / "sub" / "results.db")

    def test_failed_configure_keeps_previous_store(self, tmp_path):
        good = str(tmp_path / "good.db")
        store = store_runtime.configure(good)
        store.put("ns", (1,), "kept")
        with pytest.raises(OSError):
            store_runtime.configure(self._bad_path(tmp_path))
        # Previous store still installed, still open, still answering.
        assert store_runtime.get_store() is store
        assert store.get("ns", (1,)) == "kept"
        assert store.path == good

    def test_failed_configure_from_default_store(self, tmp_path):
        before = store_runtime.get_store()  # default in-memory store
        before.put("ns", (1,), "kept")
        with pytest.raises(OSError):
            store_runtime.configure(self._bad_path(tmp_path))
        assert store_runtime.get_store() is before
        assert before.get("ns", (1,)) == "kept"
        assert not store_runtime.is_persistent()
