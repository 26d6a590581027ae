"""Speed regression bench: wall-clock trajectory of the lookahead optimizer.

Times the per-output lookahead rounds on the Table-1 adders and two
Table-2 circuits, once serial (workers=1), once parallel (workers from
``REPRO_WORKERS`` or 4), once serial against a disk-warm persistent
result store (``--store``; the database is seeded by one cold
store-backed run first).  The parallel and warm-store flows must
produce the bit-identical AIG — the store only replays memoized
results.  Writes
schema-stable JSON rows ``{circuit, flow, seconds, depth, ands}`` to
``BENCH_speed.json`` so successive PRs can track the perf trajectory.

Run standalone:  python benchmarks/bench_speed.py [--quick] [-o OUT.json]
Run via pytest:  pytest benchmarks/bench_speed.py -m slow -s
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Callable, Dict, List

# Standalone bootstrap: make `repro` importable from a source checkout.
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import AIG, depth, write_aag
from repro.core import LookaheadOptimizer

DEFAULT_OUTPUT = "BENCH_speed.json"

ADDER_SIZES = (8, 16, 32)
TABLE2_CIRCUITS = ("rot", "C432")
QUICK_CIRCUITS = ("adder8", "C432")


def _circuits() -> Dict[str, Callable[[], AIG]]:
    from repro.bench import BENCHMARKS

    table: Dict[str, Callable[[], AIG]] = {
        f"adder{n}": (lambda n=n: ripple_carry_adder(n)) for n in ADDER_SIZES
    }
    for name in TABLE2_CIRCUITS:
        table[name] = BENCHMARKS[name]
    return table


def _optimizer(workers: int, store=None) -> LookaheadOptimizer:
    """Bounded-effort optimizer so the bench measures the hot path, not
    the search budget; all flows use identical settings.  The default
    two walk strategies are kept — the second strategy's rounds revisit
    the same cones, which is where the SPCF cache earns its keep."""
    return LookaheadOptimizer(
        max_rounds=2,
        max_outputs_per_round=8,
        sim_width=512,
        workers=workers,
        store=store,
    )


def _dump(aig: AIG) -> str:
    buf = io.StringIO()
    write_aag(aig, buf)
    return buf.getvalue()


def _parallel_workers() -> int:
    env = os.environ.get(perf.WORKERS_ENV, "").strip()
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def run_bench(quick: bool = False, verbose: bool = True) -> List[dict]:
    """Time each circuit under the serial and parallel flows -> JSON rows."""
    from repro.store import runtime as store_runtime

    rows: List[dict] = []
    nworkers = _parallel_workers()
    flows = [("lookahead-w1", 1)]
    if nworkers > 1:
        flows.append((f"lookahead-w{nworkers}", nworkers))
    for name, gen in _circuits().items():
        if quick and name not in QUICK_CIRCUITS:
            continue
        aig = gen()
        outputs = {}
        for flow_name, workers in flows:
            perf.reset()
            opt = _optimizer(workers)
            start = time.perf_counter()
            optimized = opt.optimize(aig)
            seconds = time.perf_counter() - start
            outputs[flow_name] = _dump(optimized)
            rows.append(
                {
                    "circuit": name,
                    "flow": flow_name,
                    "seconds": round(seconds, 4),
                    "depth": depth(optimized),
                    "ands": optimized.num_ands(),
                }
            )
            if verbose:
                hit_rate = perf.ratio("cache.spcf.hit", "cache.spcf.miss")
                print(
                    f"{name:10s} {flow_name:17s} {seconds:8.2f}s "
                    f"depth {depth(optimized):3d} "
                    f"ands {optimized.num_ands():5d} "
                    f"spcf-hits {hit_rate:5.1%}"
                )
        # Disk-warm persistent store: one cold store-backed run seeds a
        # fresh database, the process-level state is dropped, and the
        # timed run replays memoized results from disk only.
        store_dir = tempfile.mkdtemp(prefix="repro-bench-store-")
        store_path = os.path.join(store_dir, "results.db")
        try:
            _optimizer(1, store=store_path).optimize(aig)
            store_runtime.reset()
            perf.reset()
            flow_name = "lookahead-w1-warmstore"
            opt = _optimizer(1, store=store_path)
            start = time.perf_counter()
            optimized = opt.optimize(aig)
            seconds = time.perf_counter() - start
            outputs[flow_name] = _dump(optimized)
            rows.append(
                {
                    "circuit": name,
                    "flow": flow_name,
                    "seconds": round(seconds, 4),
                    "depth": depth(optimized),
                    "ands": optimized.num_ands(),
                }
            )
            if verbose:
                hit_rate = perf.ratio("store.hit", "store.miss")
                print(
                    f"{name:10s} {flow_name:17s} {seconds:8.2f}s "
                    f"depth {depth(optimized):3d} "
                    f"ands {optimized.num_ands():5d} "
                    f"store-hits {hit_rate:5.1%}"
                )
        finally:
            store_runtime.reset()
            shutil.rmtree(store_dir, ignore_errors=True)
        reference = outputs[flows[0][0]]
        for flow_name, dumped in outputs.items():
            if dumped != reference:
                raise AssertionError(
                    f"{name}: {flow_name} output differs from serial result"
                )
    return rows


def write_rows(rows: List[dict], path: str) -> None:
    """Replace matching (circuit, flow) rows in ``path``; keep the rest.

    Same merge semantics as bench_area_recovery.py — both benches share
    one output file, so a full rewrite here would drop the area rows.
    """
    existing: List[dict] = []
    if os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
    fresh = {(r["circuit"], r["flow"]) for r in rows}
    merged = [
        r for r in existing if (r["circuit"], r["flow"]) not in fresh
    ] + rows
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"only the small circuits ({', '.join(QUICK_CIRCUITS)})",
    )
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    rows = run_bench(quick=args.quick)
    write_rows(rows, args.output)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


# -- pytest entry point ------------------------------------------------------

try:
    import pytest
except ImportError:  # standalone execution without a test environment
    pytest = None

if pytest is not None:

    @pytest.mark.slow
    def test_bench_speed_writes_schema_stable_rows(tmp_path):
        rows = run_bench(quick=True, verbose=False)
        path = tmp_path / DEFAULT_OUTPUT
        write_rows(rows, str(path))
        loaded = json.loads(path.read_text())
        assert loaded and isinstance(loaded, list)
        for row in loaded:
            assert set(row) == {"circuit", "flow", "seconds", "depth", "ands"}
            assert row["seconds"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
