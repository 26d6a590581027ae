"""Pinned outputs and store keys of the optimizer's entry points.

Every digest here is sha256[:16] of a result, recorded once and stable
under any ``PYTHONHASHSEED``.  Two things are pinned:

* the ``write_aag`` text an optimize produces through the keyword
  constructor, a normalized job (``execute_optimize_job``) and the
  ``repro optimize`` CLI — the three ways an option set reaches the
  optimizer;
* the sorted ``(ns, key)`` rows a store-backed optimize writes to SQLite.
  Those keys are what a persistent store is looked up by, so a change to
  how any layer spells its options must leave them alone, or an existing
  store goes cold.
"""

from __future__ import annotations

import hashlib
import io
import sqlite3

import pytest

from repro.adders import ripple_carry_adder
from repro.aig import read_aag, write_aag
from repro.bench import BENCHMARKS
from repro.bench.table2 import GOLDEN_W1
from repro.core import (
    LookaheadOptimizer,
    execute_optimize_job,
    normalize_job_config,
)
from repro.store import runtime as store_runtime

CIRCUITS = {
    "adder8": lambda: ripple_carry_adder(8),
    "adder16": lambda: ripple_carry_adder(16),
    "C432": BENCHMARKS["C432"],
    "rot": BENCHMARKS["rot"],
}


@pytest.fixture(autouse=True)
def _isolated_runtime():
    store_runtime.reset()
    yield
    store_runtime.reset()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _aag_digest(aig) -> str:
    buf = io.StringIO()
    write_aag(aig, buf)
    return _digest(buf.getvalue())


# -- outputs --------------------------------------------------------------

ADDER16_ARRIVALS = {"a0": 3, "b0": 3}

CTOR_CASES = [
    pytest.param("rot", {}, "fcc0826d48a9f8b5", id="rot",
                 marks=pytest.mark.slow),
    pytest.param("adder8", {}, "52cf6d4e81aed803", id="adder8"),
    pytest.param("C432", {"use_rules": False, "seed": 2},
                 "2221953ebbafb366", id="C432-norules-seed2"),
]


@pytest.mark.parametrize("circuit, extra, expected", CTOR_CASES)
def test_constructor_output(circuit, extra, expected):
    with LookaheadOptimizer(workers=1, **GOLDEN_W1, **extra) as opt:
        out = opt.optimize(CIRCUITS[circuit]())
    assert _aag_digest(out) == expected


JOB_CASES = [
    ("C432", {"flow": "lookahead"}, 1, "fb22f0c8d789952a"),
    ("adder16", {"flow": "lookahead-only"}, 1, "493cd955e70aecac"),
    ("adder16", {"flow": "lookahead-only"}, 2, "493cd955e70aecac"),
    ("adder16", {"flow": "lookahead-only", "arrivals": ADDER16_ARRIVALS}, 1,
     "11ab36a1a13ef8dc"),
    ("adder16", {"flow": "lookahead-only", "area_effort": "high"}, 1,
     "edf53f4cccdc1c85"),
    ("C432", {"flow": "lookahead-only", "spcf_tier": "overapprox",
              "walk_modes": ["target"]}, 1, "f1cbd33968b7e977"),
    ("C432", {"flow": "lookahead-only", "spcf_tier": "signature",
              "area_recovery": False}, 1, "847d3636530a25d3"),
    ("C432", {"flow": "lookahead-only", **GOLDEN_W1}, 1, "79b0b385fee3fe4a"),
]


@pytest.mark.parametrize(
    "circuit, options, workers, expected", JOB_CASES,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(JOB_CASES)],
)
def test_job_output(circuit, options, workers, expected):
    config = normalize_job_config(options)
    out = execute_optimize_job(CIRCUITS[circuit](), config, workers=workers)
    assert _aag_digest(out) == expected


CLI_CASES = [
    ("C432", ["--flow", "lookahead"], "fb22f0c8d789952a"),
    ("adder16", ["--flow", "lookahead-only"], "493cd955e70aecac"),
    ("adder16", ["--flow", "lookahead-only", "--arrival", "a0=3,b0=3"],
     "11ab36a1a13ef8dc"),
    ("adder16", ["--flow", "lookahead-only", "--area-effort", "high"],
     "edf53f4cccdc1c85"),
]


@pytest.mark.parametrize(
    "circuit, flags, expected", CLI_CASES,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(CLI_CASES)],
)
def test_cli_output(circuit, flags, expected, tmp_path, monkeypatch):
    from repro.cli import main
    from repro.perf import WORKERS_ENV

    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.delenv("REPRO_STORE", raising=False)
    source, target = tmp_path / "in.aag", tmp_path / "out.aag"
    with open(source, "w") as fh:
        write_aag(CIRCUITS[circuit](), fh)
    argv = ["optimize", str(source), "-o", str(target), "--workers", "1"]
    assert main(argv + flags) == 0
    with open(target) as fh:
        assert _aag_digest(read_aag(fh)) == expected


# -- store keys -----------------------------------------------------------

STORE_CASES = [
    pytest.param("adder8", dict(GOLDEN_W1), "33a93d444e0ce97c", id="adder8"),
    pytest.param("C432", dict(max_rounds=12), "d48776bc4554996c", id="C432"),
    pytest.param(
        "C432",
        dict(max_rounds=12, arrival_times={"req0": 3, "req1": 2}),
        "1b0cc88c194957ec",
        id="C432-arrivals",
    ),
]


@pytest.mark.parametrize("circuit, options, expected", STORE_CASES)
def test_store_keys(circuit, options, expected, tmp_path):
    path = str(tmp_path / "keys.db")
    with LookaheadOptimizer(store=path, workers=1, **options) as opt:
        opt.optimize(CIRCUITS[circuit]())
    store_runtime.reset()  # closes the store, flushing the WAL
    conn = sqlite3.connect(path)
    try:
        rows = conn.execute(
            "SELECT ns, key FROM entries ORDER BY ns, key"
        ).fetchall()
    finally:
        conn.close()
    namespaces = {ns for ns, _key in rows}
    assert namespaces >= {"spcf", "cone"}
    # SAT proofs and witnesses stay inside their checker.
    assert not namespaces & {"unsat", "witness"}
    if circuit == "C432":
        assert any(ns == "rejected" for ns, _key in rows)
    assert _digest("".join(f"{ns}\t{key}\n" for ns, key in rows)) == expected
