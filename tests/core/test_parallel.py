"""Determinism of the parallel per-output lookahead rounds.

The parallel path must be a pure scheduling change: with any worker
count, the optimizer must produce a bit-identical AIG to the serial
path, because replacements are computed on independent cones and applied
in fixed output order.
"""

from __future__ import annotations

import io

import pytest

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import depth, write_aag
from repro.bench import BENCHMARKS
from repro.cec import check_equivalence
from repro.core import LookaheadOptimizer


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
