"""Pinned outputs and store keys of the optimizer's entry points.

Every digest here is sha256[:16] of a result, recorded once and stable
under any ``PYTHONHASHSEED``.  Two things are pinned:

* the ``write_aag`` text an optimize produces through the keyword
  constructor, a normalized job (``execute_optimize_job``) and the
  ``repro optimize`` CLI — the three ways an option set reaches the
  optimizer — and the text area recovery alone and the conventional
  flows produce, plus renode's network and the mapper's netlist;
* the ``(ns, key)`` row a store-backed job writes to SQLite, its one
  ``job`` answer.  That key is what a persistent store is looked up by,
  so a change to how any layer spells its options must leave it alone,
  or an existing store goes cold.
"""

from __future__ import annotations

import hashlib
import io
import sqlite3

import pytest

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import read_aag, write_aag
from repro.bench import BENCHMARKS
from repro.bench.table2 import GOLDEN_W1, golden_config
from repro.core import (
    LookaheadConfig,
    LookaheadOptimizer,
    execute_optimize_job,
    normalize_job_config,
    recover_area,
)
from repro.core.lookahead import spcf_domain
from repro.mapping import map_aig
from repro.netlist import renode
from repro.opt import abc_resyn2rs, dc_map_effort_high, sis_best
from repro.store import runtime as store_runtime

CIRCUITS = {
    "adder8": lambda: ripple_carry_adder(8),
    "adder16": lambda: ripple_carry_adder(16),
    "C432": BENCHMARKS["C432"],
    "rot": BENCHMARKS["rot"],
    "sparc_tlu_intctl_flat": BENCHMARKS["sparc_tlu_intctl_flat"],
    **{
        f"rca{n}": (lambda n=n: ripple_carry_adder(n))
        for n in (6, 7, 9, 10, 11, 12)
    },
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

# adder8 and the rca cases (13-25 PIs) span the BDD domain, where every
# cone's care checks run on BDDs under a 500,000-node manager budget.
CTOR_CASES = [
    pytest.param("rot", {}, "fcc0826d48a9f8b5", id="rot",
                 marks=pytest.mark.slow),
    pytest.param("adder8", {}, "52cf6d4e81aed803", id="adder8"),
    pytest.param("C432", {"use_rules": False, "seed": 2},
                 "2221953ebbafb366", id="C432-norules-seed2"),
    pytest.param("rca6", {}, "efd44f1c4a61ad67", id="rca6"),
    pytest.param("rca7", {}, "3399244bd49eb049", id="rca7"),
    pytest.param("rca9", {}, "6b4439e5583e714f", id="rca9"),
    pytest.param("rca10", {}, "ee046a60e8914b49", id="rca10"),
    pytest.param("rca11", {}, "915696d55a924276", id="rca11",
                 marks=pytest.mark.slow),
    pytest.param("rca12", {}, "f2b3a0d1af961193", id="rca12",
                 marks=pytest.mark.slow),
]


@pytest.mark.parametrize("circuit, extra, expected", CTOR_CASES)
def test_constructor_output(circuit, extra, expected):
    aig = CIRCUITS[circuit]()
    fallbacks = perf.counter("spcf.tier.signature")
    with LookaheadOptimizer(workers=1, **GOLDEN_W1, **extra) as opt:
        out = opt.optimize(aig)
        tier = opt.config.spcf_tier
    assert _aag_digest(out) == expected
    if spcf_domain(aig.num_pis, tier) == "bdd":
        # No BDD-domain cone outgrew its manager budget and was redone
        # in the signature domain.
        assert perf.counter("spcf.tier.signature") == fallbacks


# The golden circuits with budget-exhausted (UNKNOWN) care verdicts at
# their golden configuration: an UNKNOWN is where the care check's search
# reaches the output (DESIGN 3.19), so a change to the solver or to the
# session's CNF may move these digests, and the counts show whether the
# verdicts moved with them.  Area recovery's sweep and redundancy queries
# reach the output the same way (DESIGN 3.18); they have none here.
SEARCH_CASES = [
    ("C880", "5eb2f9510c23a17a", 3),
    ("C3540", "7f353b1e23b691a0", 4),
    ("lsu_stb_ctl_flat", "893d4dfb77faafd7", 1),
    ("sparc_ifu_dec_flat", "1ac11a9b43c27565", 6),
    ("tlu_hyperv_flat", "c6b042300f23bf4a", 1),
]


@pytest.mark.slow
@pytest.mark.parametrize(
    "circuit, expected, unknowns", SEARCH_CASES,
    ids=[c[0] for c in SEARCH_CASES],
)
def test_search_dependent_output(circuit, expected, unknowns):
    aig = BENCHMARKS[circuit]()
    names = (
        "secondary.sat.unknown", "area.sweep.unknown",
        "area.redundancy.unknown",
    )
    before = [perf.counter(name) for name in names]
    with LookaheadOptimizer(
        workers=1, **golden_config(circuit, aig.num_ands())
    ) as opt:
        out = opt.optimize(aig)
    assert _aag_digest(out) == expected
    counts = [perf.counter(name) - b for name, b in zip(names, before)]
    assert counts == [unknowns, 0, 0]


# Area recovery alone, at the optimizer's default effort.  Its output
# depends on the SAT search only through a budget-exhausted (UNKNOWN)
# sweep or redundancy query, or a ``max_pairs``/``max_checks`` cut-off
# (DESIGN 3.18), so the UNKNOWN counts are pinned beside the digests.
AREA_CASES = [
    ("C432", "0fbfb6b37f6c2c97"),
    ("sparc_tlu_intctl_flat", "e1e77626ec0fbaa6"),
    ("lsu_excpctl_flat", "aa57c2fdd8d8c873"),
]


@pytest.mark.parametrize(
    "circuit, expected", AREA_CASES, ids=[c[0] for c in AREA_CASES]
)
def test_area_recovery_output(circuit, expected):
    before = {
        name: perf.counter(name)
        for name in ("area.sweep.unknown", "area.redundancy.unknown")
    }
    out = recover_area(BENCHMARKS[circuit](), effort="medium")
    assert _aag_digest(out) == expected
    for name, start in before.items():
        assert perf.counter(name) - start == 0, name


# The conventional flows: Table 2's baseline columns, and the
# conventional half of every ``lookahead`` flow.
FLOW_CASES = [
    ("C432", sis_best, "50284eb801dbddee"),
    ("C432", abc_resyn2rs, "f1962c72659871d8"),
    ("C432", dc_map_effort_high, "0c25e0ec9684058a"),
    ("adder8", sis_best, "5f60a6f05a1301d6"),
    ("adder8", abc_resyn2rs, "5b1b33dcb7de630c"),
    ("adder8", dc_map_effort_high, "f08466760ccd2975"),
]


@pytest.mark.parametrize(
    "circuit, flow, expected", FLOW_CASES,
    ids=[f"{c[0]}-{c[1].__name__}" for c in FLOW_CASES],
)
def test_conventional_flow_output(circuit, flow, expected):
    assert _aag_digest(flow(CIRCUITS[circuit]())) == expected


# The cut layer on its own: renode at each production setting (the
# lookahead rounds' RENODE_K=6 with 8 cuts, sis_minimize's 8/6,
# speed_up's 10/6) and the mapper, which reads every kept cut's
# function.  The flows above reach these kernels only through their
# whole output.
RENODE_CASES = [
    ("rot", 6, 8, "e438720f83969510"),
    ("sparc_tlu_intctl_flat", 6, 8, "4b93ddb883b2e7d5"),
    ("C432", 8, 6, "b036ab152c2c2e19"),
    ("adder8", 10, 6, "9b348b40c310f7a1"),
]


@pytest.mark.parametrize(
    "circuit, k, max_cuts, expected", RENODE_CASES,
    ids=[f"{c[0]}-k{c[1]}-m{c[2]}" for c in RENODE_CASES],
)
def test_renode_output(circuit, k, max_cuts, expected):
    net = renode(CIRCUITS[circuit](), k, max_cuts)
    nodes = tuple(
        (
            n.nid, n.kind, tuple(n.fanins),
            None if n.tt is None else (n.tt.bits, n.tt.nvars), n.name,
        )
        for n in net.nodes.values()
    )
    pos = tuple((nid, bool(neg)) for nid, neg in net.pos)
    encoded = (nodes, tuple(net.pis), pos, tuple(net.po_names), net._next_id)
    assert _digest(repr(encoded)) == expected


def test_mapper_output():
    net = map_aig(CIRCUITS["C432"]())
    gates = [(g.cell.name, g.output, tuple(g.inputs)) for g in net.gates]
    assert _digest(repr((gates, net.po_signals, net.delay()))) == (
        "4dd92487a822b35a"
    )


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
    # The conventional flow and the BDD SPCF domain (17 PIs) in one job.
    ("adder8", {"flow": "lookahead"}, 1, "77a1e78ee6317df4"),
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
    pytest.param("adder8", dict(GOLDEN_W1), "8ec230b56e8da079", id="adder8"),
    pytest.param("C432", dict(max_rounds=12), "ae639bf718eb303e", id="C432"),
    pytest.param(
        "C432",
        dict(max_rounds=12, arrival_times={"req0": 3, "req1": 2}),
        "81ebb4663b703700",
        id="C432-arrivals",
    ),
]


@pytest.mark.parametrize("circuit, options, expected", STORE_CASES)
def test_store_keys(circuit, options, expected, tmp_path):
    path = str(tmp_path / "keys.db")
    store_runtime.configure(path)
    job = normalize_job_config(
        {"flow": "lookahead-only", **LookaheadConfig(**options).to_payload()}
    )
    execute_optimize_job(CIRCUITS[circuit](), job, workers=1)
    store_runtime.reset()  # closes the store, flushing the WAL
    conn = sqlite3.connect(path)
    try:
        rows = conn.execute(
            "SELECT ns, key FROM entries ORDER BY ns, key"
        ).fetchall()
    finally:
        conn.close()
    # The job's answer is all a store-backed job persists.
    assert [ns for ns, _key in rows] == ["job"]
    assert _digest("".join(f"{ns}\t{key}\n" for ns, key in rows)) == expected
