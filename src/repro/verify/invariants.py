"""The invariants the fuzzer checks after driving each entry point.

Every invariant is a pure predicate of a :class:`Case` — a circuit plus
an optimizer configuration and optional prescribed arrivals — returning
``None`` on success or a human-readable failure detail.  Purity is what
makes delta-debugging possible: the shrinker re-evaluates the same
invariant on ever-smaller circuits, so an invariant must not depend on
ambient state (worker counts and caches are pinned explicitly).

The contract they collectively enforce is the paper's:
``y = ITE(Σ1, y_pos, y_neg)`` must equal the original output for every
minterm (CEC), the result must never be worse under the active delay
model (quality gate), and every implementation strategy — serial or
parallel, cached or cold, incremental or full timing — must be a pure
scheduling/memoization change with bit-identical results.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from .. import perf
from ..aig import AIG, read_aag, read_blif, write_aag, write_blif
from ..cec import check_equivalence
from ..core import (
    LookaheadConfig,
    LookaheadOptimizer,
    execute_optimize_job,
    lookahead_flow,
    normalize_job_config,
)
from ..timing import AigTimingEngine, NetworkTimingEngine, resolve_arrivals


@dataclass
class Case:
    """One fuzz case: the circuit and how the optimizer is configured."""

    aig: AIG
    config: Dict = field(default_factory=dict)
    arrival_times: Optional[Dict[str, int]] = None

    def optimizer(self, **overrides) -> LookaheadOptimizer:
        kwargs = dict(self.config)
        kwargs.update(overrides)
        return LookaheadOptimizer(
            arrival_times=self.arrival_times, **kwargs
        )

    def model(self):
        return resolve_arrivals(self.arrival_times)


Invariant = Callable[[Case], Optional[str]]


def _dump(aig: AIG) -> str:
    buf = io.StringIO()
    write_aag(aig, buf)
    return buf.getvalue()


def _depth(aig: AIG, case: Case):
    return AigTimingEngine(aig, case.model()).depth()


def _cec_detail(a: AIG, b: AIG) -> Optional[str]:
    result = check_equivalence(a, b)
    if result:
        return None
    return f"not equivalent: po {result.po_index}, cex {result.counterexample}"


# -- optimizer contract -------------------------------------------------------


def optimizer_equivalence(case: Case) -> Optional[str]:
    """`optimize()` output is equivalent and never worse in completion."""
    with case.optimizer(workers=1) as opt:
        out = opt.optimize(case.aig)
    detail = _cec_detail(case.aig, out)
    if detail:
        return f"optimize() broke equivalence — {detail}"
    before, after = _depth(case.aig, case), _depth(out, case)
    if after > before:
        return f"optimize() made depth worse: {before} -> {after}"
    return None


def _run_job(case: Case, store: Optional[str]) -> AIG:
    """The case as a serial ``lookahead-only`` job on a fresh runtime.

    ``store`` is a database path for a store-backed run, or ``None``.
    The caller resets the runtime afterwards.
    """
    from ..store import runtime as store_runtime

    store_runtime.reset()
    if store is not None:
        store_runtime.configure(store)
    config = LookaheadConfig(arrival_times=case.arrival_times, **case.config)
    job = normalize_job_config(
        {"flow": "lookahead-only", **config.to_payload()}
    )
    return execute_optimize_job(case.aig, job, workers=1)


def serial_parallel_identical(case: Case) -> Optional[str]:
    """workers=2 must be a pure scheduling change vs. workers=1.

    With two walks, workers=2 runs the second walk whole in a pool
    worker beside the first; with one, it fans the round's cones out.
    """
    # Lift any per-round output cap so the round actually fans out more
    # than one cone — a single task takes the serial path either way.
    with case.optimizer(workers=1, max_outputs_per_round=None) as opt:
        serial = opt.optimize(case.aig)
    with case.optimizer(workers=2, max_outputs_per_round=None) as opt:
        parallel = opt.optimize(case.aig)
    if _dump(serial) != _dump(parallel):
        return (
            "serial and parallel outputs differ: "
            f"serial={serial!r} parallel={parallel!r}"
        )
    return None


def cached_cold_identical(case: Case) -> Optional[str]:
    """A warm ConeCache must be a pure memoization, not a result change."""
    with case.optimizer(workers=1) as opt:
        first = opt.optimize(case.aig)
        warm = opt.optimize(case.aig)  # second run hits the cache
    with case.optimizer(workers=1) as opt:
        cold = opt.optimize(case.aig)
    if _dump(first) != _dump(cold):
        return "same-config optimize() runs are not deterministic"
    if _dump(warm) != _dump(cold):
        return (
            "cache-warm optimize() differs from cold: "
            f"warm={warm!r} cold={cold!r}"
        )
    return None


def store_warm_equals_cold(case: Case) -> Optional[str]:
    """A disk-warm persistent store is a pure memoization (DESIGN 3.20).

    Three runs of the case as a ``lookahead-only`` job — storeless,
    store-backed cold, and store-backed against the database the cold
    run left behind (with the process runtime reset in between, so the
    hit comes from disk, not the memory tier) — must each give the
    storeless ``optimize()`` answer: the store may only ever replay the
    answer the cold computation produced, and the warm job must replay
    it whole from the ``job`` namespace.
    """
    import os
    import shutil
    import tempfile

    from ..store import runtime as store_runtime

    tmpdir = tempfile.mkdtemp(prefix="repro-store-fuzz-")
    path = os.path.join(tmpdir, "jobs.db")

    try:
        with case.optimizer(workers=1) as opt:
            baseline = opt.optimize(case.aig)
        jobs = [("storeless job", _run_job(case, None)),
                ("store-backed cold job", _run_job(case, path))]
        replays = perf.counter("store.job.hit")
        warm = _run_job(case, path)  # _run_job resets: warm = disk only
        jobs.append(("disk-warm job", warm))
        if perf.counter("store.job.hit") != replays + 1:
            return "the disk-warm job did not replay its stored answer"
        for label, out in jobs:
            if _dump(out) != _dump(baseline):
                return (
                    f"{label} differs from the storeless optimize(): "
                    f"job={out!r} baseline={baseline!r}"
                )
        detail = _cec_detail(case.aig, warm)
        if detail:
            return f"disk-warm job broke equivalence — {detail}"
        return None
    finally:
        store_runtime.reset()  # restore the ambient no-store state
        shutil.rmtree(tmpdir, ignore_errors=True)


def spcf_tiers_agree(case: Case) -> Optional[str]:
    """Exact and degraded SPCF tiers agree on the optimizer contract.

    The SPCF is only a guide metric (the paper, Sec. 3.1): degrading the
    kernel to the timed-simulation signature tier may steer the search
    differently, but every tier's output must stay CEC-equivalent to the
    input and pass the same never-worse depth gate.
    """
    with case.optimizer(workers=1, spcf_tier="auto") as opt:
        exact = opt.optimize(case.aig)
    with case.optimizer(workers=1, spcf_tier="signature") as opt:
        degraded = opt.optimize(case.aig)
    before = _depth(case.aig, case)
    for tier, out in (("exact", exact), ("signature", degraded)):
        detail = _cec_detail(case.aig, out)
        if detail:
            return f"{tier}-tier optimize broke equivalence — {detail}"
        after = _depth(out, case)
        if after > before:
            return (
                f"{tier}-tier optimize made depth worse: "
                f"{before} -> {after}"
            )
    return None


def area_recovery_equiv(case: Case) -> Optional[str]:
    """Area recovery preserves function and never worsens depth or size.

    Every effort level of :func:`repro.core.recover_area` must return a
    CEC-equivalent circuit that is no deeper (under the case's delay
    model) and no larger than a plain structural cleanup — sweeping,
    redundancy removal, and the arrival guard only ever trade wall-clock
    for area.
    """
    from ..core import recover_area

    model = case.model()
    before_depth = _depth(case.aig, case)
    baseline = case.aig.extract().num_ands()
    for effort in ("low", "medium", "high"):
        out = recover_area(case.aig, effort=effort, delay_model=model)
        detail = _cec_detail(case.aig, out)
        if detail:
            return f"recover_area({effort!r}) broke equivalence — {detail}"
        after = _depth(out, case)
        if after > before_depth:
            return (
                f"recover_area({effort!r}) made depth worse: "
                f"{before_depth} -> {after}"
            )
        if out.num_ands() > baseline:
            return (
                f"recover_area({effort!r}) grew the circuit: "
                f"{baseline} -> {out.num_ands()} ANDs"
            )
    return None


def flow_equivalence(case: Case) -> Optional[str]:
    """`lookahead_flow` preserves the function and the quality gate."""
    out = lookahead_flow(
        case.aig, max_iterations=2, arrival_times=case.arrival_times
    )
    detail = _cec_detail(case.aig, out)
    if detail:
        return f"lookahead_flow broke equivalence — {detail}"
    before, after = _depth(case.aig, case), _depth(out, case)
    if after > before:
        return f"lookahead_flow made depth worse: {before} -> {after}"
    return None


# -- interchange formats ------------------------------------------------------


def aiger_roundtrip(case: Case) -> Optional[str]:
    """write_aag -> read_aag preserves function, names, and is stable."""
    text = _dump(case.aig)
    back = read_aag(io.StringIO(text))
    if back.pi_names != case.aig.pi_names:
        return f"AIGER roundtrip changed PI names: {back.pi_names}"
    if back.po_names != case.aig.po_names:
        return f"AIGER roundtrip changed PO names: {back.po_names}"
    detail = _cec_detail(case.aig, back)
    if detail:
        return f"AIGER roundtrip broke equivalence — {detail}"
    if _dump(back) != text:
        return "AIGER write/read/write is not a fixpoint"
    return None


def blif_roundtrip(case: Case) -> Optional[str]:
    """write_blif -> read_blif preserves the function and interfaces."""
    buf = io.StringIO()
    write_blif(case.aig, buf)
    buf.seek(0)
    back = read_blif(buf)
    if back.pi_names != case.aig.pi_names:
        return f"BLIF roundtrip changed PI names: {back.pi_names}"
    if back.po_names != case.aig.po_names:
        return f"BLIF roundtrip changed PO names: {back.po_names}"
    detail = _cec_detail(case.aig, back)
    if detail:
        return f"BLIF roundtrip broke equivalence — {detail}"
    return None


# -- timing engines -----------------------------------------------------------


def timing_incremental_full(case: Case) -> Optional[str]:
    """Incremental AIG timing extension equals a cold full pass."""
    aig = case.aig.extract()
    engine = AigTimingEngine(aig, case.model())
    engine.arrivals()  # full pass on the prefix
    # Deterministic structural extension: a small chain over existing
    # signals, mimicking what a lookahead round appends.
    lits = [2 * v for v in aig.pis[:2]]
    if aig.pos:
        lits.append(aig.pos[-1])
    tip = lits[0]
    for lit in lits[1:]:
        tip = aig.and_(tip, lit)
    aig.add_po(aig.or_(tip, lits[0]), "probe")
    incremental = list(engine.arrivals())
    full = list(AigTimingEngine(aig, case.model()).arrivals())
    if incremental != full:
        bad = next(
            i for i, (x, y) in enumerate(zip(incremental, full)) if x != y
        )
        return (
            "incremental timing diverged from full recompute at var "
            f"{bad}: {incremental[bad]} != {full[bad]}"
        )
    return None


def network_timing_consistent(case: Case) -> Optional[str]:
    """Dirty-set recompute of the network engine equals a fresh engine."""
    from ..netlist import renode

    net = renode(case.aig, 6)
    engine = NetworkTimingEngine(net, case.model())
    levels = dict(engine.levels())
    engine.invalidate(list(net.nodes))  # dirty everything; values unchanged
    relevels = dict(engine.levels())
    fresh = dict(NetworkTimingEngine(net, case.model()).levels())
    if relevels != fresh:
        return "invalidate-all recompute diverged from a fresh engine"
    if levels != fresh:
        return "network levels are not stable across engines"
    return None


def mapped_timing_sane(case: Case) -> Optional[str]:
    """Mapper + mapped STA hold their basic contracts on any circuit."""
    from ..mapping import map_aig
    from ..timing import MappedTimingEngine

    netlist = map_aig(case.aig)
    engine = MappedTimingEngine(netlist)
    if engine.depth() < 0:
        return f"mapped delay is negative: {engine.depth()}"
    slack = engine.worst_slack()
    if abs(slack) > 1e-6:
        return f"worst slack at the default target is {slack}, not 0"
    return None


#: Registry used by the fuzz driver, the replay harness, and the CLI.
INVARIANTS: Dict[str, Invariant] = {
    "optimizer_equivalence": optimizer_equivalence,
    "serial_parallel_identical": serial_parallel_identical,
    "cached_cold_identical": cached_cold_identical,
    "store_warm_equals_cold": store_warm_equals_cold,
    "spcf_tiers_agree": spcf_tiers_agree,
    "area_recovery_equiv": area_recovery_equiv,
    "flow_equivalence": flow_equivalence,
    "aiger_roundtrip": aiger_roundtrip,
    "blif_roundtrip": blif_roundtrip,
    "timing_incremental_full": timing_incremental_full,
    "network_timing_consistent": network_timing_consistent,
    "mapped_timing_sane": mapped_timing_sane,
}

#: Invariants expensive enough to run on a stride, not every case.
EXPENSIVE = {
    "serial_parallel_identical": 8,
    "flow_equivalence": 5,
    "spcf_tiers_agree": 3,
    "store_warm_equals_cold": 3,
    "cached_cold_identical": 2,
}


def run_invariant(name: str, case: Case) -> Optional[str]:
    """Run one named invariant; exceptions count as failures too."""
    try:
        return INVARIANTS[name](case)
    except Exception as exc:  # a crash is as much a bug as a miscompile
        return f"{type(exc).__name__}: {exc}"
