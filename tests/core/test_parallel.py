"""Determinism of the parallel lookahead paths.

The parallel paths must be pure scheduling changes: with any worker
count, the optimizer must produce a bit-identical AIG to the serial
path.  With one walk, a round's replacements are computed on independent
cones and applied in fixed output order; with two walks, the first walk
runs in the parent and the second whole in a worker, and the walk
results are compared in walk order.
"""

from __future__ import annotations

import io
import sqlite3

import pytest

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import depth, write_aag
from repro.bench import BENCHMARKS
from repro.bench.table2 import GOLDEN_W1, golden_config
from repro.cec import check_equivalence
from repro.core import (
    LookaheadOptimizer,
    execute_optimize_job,
    normalize_job_config,
)
from repro.core.lookahead import _run_walk_task
from repro.store import runtime as store_runtime

from .test_output_digests import CTOR_CASES, SEARCH_CASES, _aag_digest


def _dump(aig) -> str:
    buf = io.StringIO()
    write_aag(aig, buf)
    return buf.getvalue()


def _optimize(aig, workers, **kw):
    return LookaheadOptimizer(workers=workers, **kw).optimize(aig)


class TestParallelDeterminism:
    def test_adder_tt_mode_bit_identical(self):
        # 9 PIs -> exhaustive truth-table mode.
        aig = ripple_carry_adder(4)
        serial = _optimize(aig, 1, max_rounds=4)
        parallel = _optimize(aig, 4, max_rounds=4)
        assert _dump(serial) == _dump(parallel)
        assert depth(serial) < depth(aig)
        assert check_equivalence(aig, serial)

    def test_interrupt_controller_sim_mode_bit_identical(self):
        # The C432 stand-in (priority interrupt controller): 36 PIs ->
        # signature mode, where workers recompute cone-local simulations.
        aig = BENCHMARKS["C432"]()
        kw = dict(
            max_rounds=2,
            max_outputs_per_round=4,
            sim_width=256,
            walk_modes=("target",),
        )
        serial = _optimize(aig, 1, **kw)
        parallel = _optimize(aig, 4, **kw)
        assert _dump(serial) == _dump(parallel)
        assert check_equivalence(aig, serial)

    def test_adder_bdd_domain_bit_identical(self):
        # 17 PIs -> BDD domain: workers build cone-local managers.
        aig = ripple_carry_adder(8)
        kw = dict(max_rounds=2, max_outputs_per_round=8, sim_width=512)
        serial = _optimize(aig, 1, **kw)
        parallel = _optimize(aig, 4, **kw)
        assert _dump(serial) == _dump(parallel)
        assert depth(serial) < depth(aig)
        assert check_equivalence(aig, serial)

    def test_parallel_round_counter_bumped(self):
        aig = ripple_carry_adder(4)
        before = perf.counter("rounds.parallel")
        _optimize(aig, 4, max_rounds=2, walk_modes=("target",))
        assert perf.counter("rounds.parallel") > before

    def test_workers_env_fallback(self, monkeypatch):
        monkeypatch.setenv(perf.WORKERS_ENV, "3")
        assert perf.get_workers() == 3
        assert perf.get_workers(override=2) == 2
        monkeypatch.setenv(perf.WORKERS_ENV, "0")
        assert perf.get_workers() == 1  # clamped to the serial floor
        monkeypatch.setenv(perf.WORKERS_ENV, "zippy")
        with pytest.raises(ValueError):
            perf.get_workers()

    def test_executor_lifecycle_close(self):
        # Regression: the lazily created ProcessPoolExecutor leaked worker
        # processes with no way to shut it down; close() (and the context-
        # manager form) must exist, kill the pool, and stay idempotent.
        aig = ripple_carry_adder(3)
        opt = LookaheadOptimizer(
            workers=2, max_rounds=1, walk_modes=("target",)
        )
        opt.optimize(aig)
        assert opt._executor is not None  # pool persists across calls...
        opt.optimize(aig)
        assert opt._executor is not None
        opt.close()  # ...until explicitly closed
        assert opt._executor is None
        opt.close()  # idempotent

    def test_executor_reused_across_optimize_calls(self):
        aig = ripple_carry_adder(3)
        with LookaheadOptimizer(
            workers=2, max_rounds=1, walk_modes=("target",)
        ) as opt:
            opt.optimize(aig)
            pool = opt._executor
            opt.optimize(aig)
            assert opt._executor is pool  # warm pool, not a fresh spawn
        assert opt._executor is None  # __exit__ closed it

    def test_env_controls_optimizer_default(self, monkeypatch):
        # workers=None defers to REPRO_WORKERS at round time.
        monkeypatch.setenv(perf.WORKERS_ENV, "2")
        aig = ripple_carry_adder(3)
        before = perf.counter("rounds.parallel")
        out = LookaheadOptimizer(
            max_rounds=1, walk_modes=("target",)
        ).optimize(aig)
        assert perf.counter("rounds.parallel") > before
        assert check_equivalence(aig, out)


# Counters that follow from the search alone, never from scheduling or
# from what a cache already holds.
DETERMINISTIC = (
    "rounds",
    "quality.evals",
    "replacements.accepted",
    "replacements.rejected",
    "secondary.sat.calls",
    "secondary.exact.calls",
)


def _counted(aig, workers, **kw):
    """Output of a cold optimizer and the counters it moved."""
    names = DETERMINISTIC + ("walks.parallel",)
    before = {name: perf.counter(name) for name in names}
    with LookaheadOptimizer(workers=workers, **kw) as opt:
        out = opt.optimize(aig)
    return out, {name: perf.counter(name) - before[name] for name in names}


class TestWalkFanOut:
    """Two walks and two workers: the walks run side by side."""

    def _check(self, aig, counter, **kw):
        serial, serial_counts = _counted(aig, 1, **kw)
        parallel, parallel_counts = _counted(aig, 2, **kw)
        assert _dump(serial) == _dump(parallel)
        assert serial_counts.pop("walks.parallel") == 0
        assert parallel_counts.pop("walks.parallel") == 1
        assert parallel_counts == serial_counts
        assert serial_counts[counter] > 0
        assert check_equivalence(aig, serial)

    def test_signature_domain_bit_identical(self):
        # C432's 36 PIs -> signature domain, care checks by SAT.
        self._check(
            BENCHMARKS["C432"](), "secondary.sat.calls",
            max_rounds=2, max_outputs_per_round=4, sim_width=256,
        )

    def test_bdd_domain_bit_identical(self):
        # 13 PIs -> BDD domain, care checks on BDDs.
        self._check(
            ripple_carry_adder(6), "secondary.exact.calls", max_rounds=2,
        )

    def test_one_walk_keeps_the_cone_fan_out(self):
        # 17 PIs: the BDD domain's cone-local managers, in cone workers.
        aig = ripple_carry_adder(8)
        kw = dict(
            max_rounds=2, max_outputs_per_round=8, sim_width=512,
            walk_modes=("full",),
        )
        serial, serial_counts = _counted(aig, 1, **kw)
        cones = perf.counter("rounds.parallel")
        parallel, parallel_counts = _counted(aig, 2, **kw)
        assert perf.counter("rounds.parallel") > cones
        assert parallel_counts["walks.parallel"] == 0
        assert parallel_counts == serial_counts
        assert _dump(serial) == _dump(parallel)

    def test_cache_carries_across_calls(self):
        # Each walk's SPCFs and rejected cones come back to the
        # optimizer's cache, so a second call skips what the first
        # settled, as it does serially.
        aig = ripple_carry_adder(4)
        with LookaheadOptimizer(workers=2, max_rounds=4) as opt:
            opt.optimize(aig)
            stats = opt.cache.stats()
            hits = perf.counter("cache.spcf.hit")
            opt.optimize(aig)
            assert perf.counter("cache.spcf.hit") > hits
        with LookaheadOptimizer(workers=1, max_rounds=4) as opt:
            opt.optimize(aig)
            assert opt.cache.stats() == stats

    def test_walk_task_runs_storeless(self, tmp_path):
        # A walk worker must not read or write the persistent store the
        # walk beside it in the parent uses.
        path = str(tmp_path / "results.db")
        store_runtime.reset()
        try:
            store_runtime.configure(path)
            task = (
                ripple_carry_adder(6), "target",
                LookaheadOptimizer(max_rounds=2).config, False, None,
            )
            _out, _quality, additions, _delta = _run_walk_task(task)
            assert not store_runtime.is_persistent()
            assert additions is None
        finally:
            store_runtime.reset()
        conn = sqlite3.connect(path)
        try:
            rows = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
        finally:
            conn.close()
        assert rows == (0,)

    @pytest.mark.parametrize("flow", ["lookahead-only", "lookahead"])
    def test_store_backed_job_equals_storeless_serial(self, flow, tmp_path):
        # The daemon's case: two walks run at once on one persistent store.
        aig = ripple_carry_adder(6)
        config = normalize_job_config({"flow": flow})
        store_runtime.reset()
        try:
            serial = execute_optimize_job(aig, config, workers=1)
            store_runtime.configure(str(tmp_path / "results.db"))
            before = perf.counter("walks.parallel")
            pooled = execute_optimize_job(aig, config, workers=2)
            assert perf.counter("walks.parallel") > before
        finally:
            store_runtime.reset()
        assert _dump(pooled) == _dump(serial)


ROT_DIGEST = next(p.values[2] for p in CTOR_CASES if p.id == "rot")


@pytest.mark.slow
def test_rot_digest_at_two_workers():
    with LookaheadOptimizer(workers=2, **GOLDEN_W1) as opt:
        out = opt.optimize(BENCHMARKS["rot"]())
    assert _aag_digest(out) == ROT_DIGEST


@pytest.mark.slow
@pytest.mark.parametrize(
    "circuit, expected, unknowns", SEARCH_CASES,
    ids=[c[0] for c in SEARCH_CASES],
)
def test_search_dependent_digest_at_two_workers(circuit, expected, unknowns):
    aig = BENCHMARKS[circuit]()
    names = (
        "secondary.sat.unknown", "area.sweep.unknown",
        "area.redundancy.unknown",
    )
    before = [perf.counter(name) for name in names]
    with LookaheadOptimizer(
        workers=2, **golden_config(circuit, aig.num_ands())
    ) as opt:
        out = opt.optimize(aig)
    assert _aag_digest(out) == expected
    counts = [perf.counter(name) - b for name, b in zip(names, before)]
    assert counts == [unknowns, 0, 0]
