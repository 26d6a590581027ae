"""Scope contracts of the one SAT query path.

The deleted ``sat_portfolio`` knob chose among ``off``, ``sprint`` and
``race``; ``off`` is the path every flow now runs.  Its proofs stay in
the checker that made them: nothing it proves reaches the process-wide
cache or a persistent store (DESIGN 3.19).
"""

import sqlite3

from repro import perf
from repro.bench import BENCHMARKS
from repro.core import (
    LookaheadOptimizer,
    execute_optimize_job,
    normalize_job_config,
)
from repro.sat.portfolio import GLOBAL_UNSAT_CACHE
from repro.store import runtime as store_runtime

OPTIONS = dict(max_rounds=2, max_outputs_per_round=4, sim_width=256)


def _optimize(aig):
    with LookaheadOptimizer(workers=1, **OPTIONS) as opt:
        return opt.optimize(aig)


class TestOffScope:
    """``off`` memoizes its proofs per checker, never process-wide."""

    def test_off_leaves_the_global_cache_empty(self):
        GLOBAL_UNSAT_CACHE.clear()
        hits = perf.counter("secondary.memo.hit")
        _optimize(BENCHMARKS["C432"]())
        assert perf.counter("secondary.memo.hit") > hits
        assert len(GLOBAL_UNSAT_CACHE) == 0

    def test_off_writes_no_unsat_rows(self, tmp_path):
        path = str(tmp_path / "scope.db")
        store_runtime.reset()
        try:
            store_runtime.configure(path)
            job = normalize_job_config({"flow": "lookahead-only", **OPTIONS})
            execute_optimize_job(BENCHMARKS["C432"](), job, workers=1)
        finally:
            store_runtime.reset()  # closes the store, flushing the WAL
        conn = sqlite3.connect(path)
        try:
            namespaces = {
                ns for (ns,) in conn.execute("SELECT DISTINCT ns FROM entries")
            }
        finally:
            conn.close()
        assert namespaces == {"job"}
