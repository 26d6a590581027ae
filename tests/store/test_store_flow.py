"""Store integration: runtime lifecycle, optimizer warm==cold, CLI surface.

The headline guarantee of the persistent store is that a disk-warm run is
*bit-identical* in QoR to a cold run — the store only ever replays results
the cold computation would have produced.
"""

from __future__ import annotations

import io
import os
import pickle

import pytest

from repro.adders import ripple_carry_adder
from repro.aig import read_aag, write_aag
from repro.cec import check_equivalence
from repro.core import LookaheadOptimizer
from repro.store import MemoryStore, StoreConfig, TieredStore
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


def _optimize(aig, **kwargs):
    with LookaheadOptimizer(max_rounds=4, workers=1, **kwargs) as opt:
        return opt.optimize(aig)


class TestRuntime:
    def test_default_store_is_memory_with_historical_limits(self):
        store = store_runtime.get_store()
        assert isinstance(store, MemoryStore)
        assert not store_runtime.is_persistent()
        assert store.limit("unsat") == store_runtime.MEMORY_LIMITS["unsat"]
        assert store.limit("dp") == store_runtime.MEMORY_LIMITS["dp"]

    def test_configure_path_builds_tiered_store(self, tmp_path):
        path = str(tmp_path / "results.db")
        store = store_runtime.configure(path)
        assert isinstance(store, TieredStore)
        assert store_runtime.is_persistent()
        assert store.memory.limit("unsat") == (
            store_runtime.MEMORY_LIMITS["unsat"]
        )
        # The shipped spec carries the path, never a live store object.
        spec = store_runtime.current_spec()
        assert isinstance(spec, StoreConfig) and spec.path == path
        pickle.dumps(spec)  # must survive the worker task tuple

    def test_configure_none_reverts_to_default(self, tmp_path):
        store_runtime.configure(str(tmp_path / "results.db"))
        store_runtime.configure(None)
        assert not store_runtime.is_persistent()
        assert store_runtime.current_spec() is None

    def test_adopt_is_idempotent(self, tmp_path):
        spec = store_runtime.make_config(str(tmp_path / "results.db"))
        store_runtime.adopt(spec)
        first = store_runtime.get_store()
        store_runtime.adopt(
            store_runtime.make_config(str(tmp_path / "results.db"))
        )
        assert store_runtime.get_store() is first  # no reopen per task
        store_runtime.adopt(None)
        assert store_runtime.get_store() is not first

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
        store_runtime.reset()
        cold = _dump(_optimize(aig, store=path))
        assert os.path.exists(path)
        store_runtime.reset()  # drop the memory tier: disk-warm, not hot
        warm = _dump(_optimize(aig, store=path))
        assert warm == cold
        # The store must never change *what* is computed, only how fast.
        assert cold == nostore

    def test_warm_run_hits_the_store(self, tmp_path):
        from repro import perf

        path = str(tmp_path / "results.db")
        aig = ripple_carry_adder(4)
        _optimize(aig, store=path)
        store_runtime.reset()
        before = perf.counter("store.spcf.hit")
        out = _dump(_optimize(aig, store=path))
        assert perf.counter("store.spcf.hit") > before
        assert check_equivalence(aig, read_aag(io.StringIO(out)))

    def test_warm_run_replays_whole_cone_results(self, tmp_path):
        from repro import perf
        from repro.store import SqliteStore

        # rca4 (9 PIs) runs in the truth-table domain, rca8 (17 PIs) in
        # the BDD domain, whose SPCF payload is recomputed from its Δ.
        for width in (4, 8):
            store_runtime.reset()
            path = str(tmp_path / f"results{width}.db")
            aig = ripple_carry_adder(width)
            cold = _dump(_optimize(aig, store=path))
            store_runtime.reset()
            disk = SqliteStore(path)
            assert disk.entries("cone") > 0  # whole task results persisted
            disk.close()
            before = perf.counter("store.cone.hit")
            warm = _dump(_optimize(aig, store=path))
            # The warm run replays entire per-cone pipeline results
            # (skipping the primary/secondary work), bit-identically.
            assert perf.counter("store.cone.hit") > before, width
            assert warm == cold, width

    def test_memory_only_store_skips_cone_replay(self):
        from repro import perf

        aig = ripple_carry_adder(4)
        before = perf.counter("store.cone.miss")
        _optimize(aig)  # default in-memory store: no cone namespace traffic
        assert perf.counter("store.cone.miss") == before
        assert store_runtime.get_store().entries("cone") == 0

    def test_explicit_store_object_is_honoured(self):
        store = MemoryStore()
        aig = ripple_carry_adder(6)
        out = _optimize(aig, store=store)
        assert check_equivalence(aig, out)
        assert store_runtime.get_store() is store


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
        store.put("unsat", (2,), True)
        store.close()
        assert main(["cache", "stats", "--store", path]) == 0
        out = capsys.readouterr().out
        assert "spcf" in out and "unsat" in out

        rc = main(["cache", "clear", "--store", path, "--namespace", "spcf"])
        assert rc == 0
        capsys.readouterr()
        reopened = SqliteStore(path)
        assert reopened.entries("spcf") == 0
        assert reopened.entries("unsat") == 1
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
        spec = store_runtime.current_spec()
        assert spec is not None and spec.path == good

    def test_failed_configure_from_default_store(self, tmp_path):
        before = store_runtime.get_store()  # default in-memory store
        before.put("ns", (1,), "kept")
        with pytest.raises(OSError):
            store_runtime.configure(self._bad_path(tmp_path))
        assert store_runtime.get_store() is before
        assert before.get("ns", (1,)) == "kept"
        assert store_runtime.current_spec() is None
