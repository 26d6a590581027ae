"""Area-recovery speed bench: the incremental redundancy-removal engine.

Times redundancy removal (:func:`repro.core.remove_redundant_edges`, the
:class:`repro.core.RedundancyEngine` hot path) on Table-2 circuits: each
edge is answered with one bounded two-assumption SAT query against a
persistent CNF, behind a shared simulation prefilter.

Rows are *merged* into ``BENCH_speed.json`` (flow ``area-incremental``)
next to the lookahead rows; rerun this script after
``benchmarks/bench_speed.py`` regenerates that file from scratch.

Run standalone:  python benchmarks/bench_area_recovery.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.aig import depth
from repro.core import remove_redundant_edges

DEFAULT_OUTPUT = "BENCH_speed.json"
CIRCUITS = ("rot", "C432")


def run_bench(verbose: bool = True) -> List[dict]:
    from repro.bench import BENCHMARKS

    rows: List[dict] = []
    for name in CIRCUITS:
        aig = BENCHMARKS[name]()
        start = time.perf_counter()
        out = remove_redundant_edges(aig)
        seconds = time.perf_counter() - start
        rows.append(
            {
                "circuit": name,
                "flow": "area-incremental",
                "seconds": round(seconds, 4),
                "depth": depth(out),
                "ands": out.num_ands(),
            }
        )
        if verbose:
            print(
                f"{name:10s} area-incremental {seconds:8.2f}s "
                f"depth {depth(out):3d} ands {out.num_ands():5d}"
            )
    return rows


def merge_rows(rows: List[dict], path: str) -> None:
    """Replace matching (circuit, flow) rows in ``path``; keep the rest."""
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
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    rows = run_bench()
    merge_rows(rows, args.output)
    print(f"merged {len(rows)} rows into {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
