"""Flow-level contracts of the --sat-portfolio knob.

Every mode runs one care-check session per cone.  ``off`` is the default
and must equal the flow run without the knob; its proofs stay in the
checker, so nothing it proves reaches the process-wide cache or a
persistent store, and its output never depends on their state.  The
racing modes may settle budget-limited queries differently but must
stay CEC-equivalent and never-worse in depth (DESIGN 3.19).
"""

import io
import sqlite3

import pytest

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import depth, write_aag
from repro.bench import BENCHMARKS
from repro.cec import check_equivalence
from repro.core import LookaheadOptimizer, lookahead_flow, recover_area
from repro.sat.portfolio import GLOBAL_UNSAT_CACHE
from repro.store import runtime as store_runtime


def _dump(aig):
    buf = io.StringIO()
    write_aag(aig, buf)
    return buf.getvalue()


def _optimize(aig, **kwargs):
    with LookaheadOptimizer(
        max_rounds=2, max_outputs_per_round=4, sim_width=256, workers=1,
        **kwargs,
    ) as opt:
        return opt.optimize(aig)


class TestOffIsIdentity:
    def test_off_matches_the_default_flow_on_rca8(self):
        aig = ripple_carry_adder(8)
        default = _optimize(aig)
        off = _optimize(aig, sat_portfolio="off")
        assert _dump(off) == _dump(default)

    def test_off_matches_the_default_flow_on_c432(self):
        from repro.bench import BENCHMARKS

        aig = BENCHMARKS["C432"]()
        default = _optimize(aig)
        off = _optimize(aig, sat_portfolio="off")
        assert _dump(off) == _dump(default)


class TestOffScope:
    """``off`` memoizes its proofs per checker, never process-wide."""

    def test_off_leaves_the_global_cache_empty(self):
        GLOBAL_UNSAT_CACHE.clear()
        hits = perf.counter("sat.portfolio.unsat_cache.hit")
        _optimize(BENCHMARKS["C432"]())
        assert perf.counter("sat.portfolio.unsat_cache.hit") > hits
        assert len(GLOBAL_UNSAT_CACHE) == 0
        _optimize(BENCHMARKS["C432"](), sat_portfolio="sprint")
        assert len(GLOBAL_UNSAT_CACHE) > 0  # the racing modes share it
        GLOBAL_UNSAT_CACHE.clear()

    def test_off_writes_no_unsat_rows(self, tmp_path):
        path = str(tmp_path / "scope.db")
        store_runtime.reset()
        try:
            _optimize(BENCHMARKS["C432"](), store=path)
        finally:
            store_runtime.reset()  # closes the store, flushing the WAL
        conn = sqlite3.connect(path)
        try:
            namespaces = {
                ns for (ns,) in conn.execute("SELECT DISTINCT ns FROM entries")
            }
        finally:
            conn.close()
        assert "cone" in namespaces
        assert "unsat" not in namespaces


class TestRacingModes:
    @pytest.mark.parametrize("mode", ["sprint", "race"])
    def test_racing_upholds_the_optimizer_contract(self, mode):
        from repro.bench import BENCHMARKS

        aig = BENCHMARKS["C432"]()
        GLOBAL_UNSAT_CACHE.clear()
        out = _optimize(aig, sat_portfolio=mode)
        GLOBAL_UNSAT_CACHE.clear()
        assert check_equivalence(aig, out)
        assert depth(out) <= depth(aig)

    def test_race_is_deterministic_from_a_cold_cache(self):
        aig = ripple_carry_adder(8)
        dumps = []
        for _ in range(2):
            GLOBAL_UNSAT_CACHE.clear()
            dumps.append(_dump(_optimize(aig, sat_portfolio="race")))
        GLOBAL_UNSAT_CACHE.clear()
        assert dumps[0] == dumps[1]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            LookaheadOptimizer(sat_portfolio="warp")


class TestThreading:
    def test_flow_accepts_the_knob(self):
        aig = ripple_carry_adder(8)
        GLOBAL_UNSAT_CACHE.clear()
        out = lookahead_flow(aig, max_iterations=1, sat_portfolio="sprint")
        GLOBAL_UNSAT_CACHE.clear()
        assert check_equivalence(aig, out)

    def test_area_recovery_accepts_the_knob(self):
        aig = ripple_carry_adder(8)
        GLOBAL_UNSAT_CACHE.clear()
        out = recover_area(aig, effort="medium", sat_portfolio="race")
        GLOBAL_UNSAT_CACHE.clear()
        assert check_equivalence(aig, out)
        assert out.num_ands() <= aig.num_ands()

    def test_cli_exposes_the_choices(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["optimize", "x.aag", "--sat-portfolio", "race"]
        )
        assert args.sat_portfolio == "race"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["optimize", "x.aag", "--sat-portfolio", "warp"]
            )
