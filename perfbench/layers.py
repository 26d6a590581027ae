"""Which ``repro`` entry points the traced run wraps, and the per-layer
metrics it derives from those spans and from ``repro.perf`` counters.

Layer names are the ``repro`` module names.  ``.s`` metrics are self
time (see :mod:`tracing`), ``.calls`` count entries into the layer.

In ``serve-fabric`` the per-output cone pipeline (SPCF, primary reduce,
secondary simplification and their SAT calls) runs in pool workers for
every window with more than one candidate, and in the daemon process
otherwise.  No span is recorded there (``_run_cone_task`` is opaque);
those layers report the ``phase.*`` timers the program ships back from
both, which include their SAT time, and ``sat.solve`` counts only the
daemon's own solver calls (area recovery).
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

from tracing import Tracer

SPANS = (
    # (module, class or None, attribute, layer)
    ("repro.core.lookahead", "LookaheadOptimizer", "optimize",
     "lookahead.optimize"),
    ("repro.netlist.renode", None, "renode", "netlist.renode"),
    ("repro.core.spcf", "SpcfKernel", "spcf", "core.spcf"),
    ("repro.core.spcf", None, "spcf_signature", "core.spcf"),
    ("repro.core.spcf", None, "spcf_exact_tt", "core.spcf"),
    ("repro.core.spcf", None, "spcf_overapprox_tt", "core.spcf"),
    ("repro.core.spcf", None, "timed_simulation", "core.spcf"),
    ("repro.core.spcf", None, "spcf_exact_bdd", "bdd.spcf"),
    ("repro.core.reduce", None, "primary_reduce", "core.reduce"),
    ("repro.core.secondary", None, "secondary_simplify", "core.secondary"),
    ("repro.sat.solver", "Solver", "solve", "sat.solve"),
    ("repro.core.reconstruct", None, "reconstruct", "core.reconstruct"),
    ("repro.core.area_recovery", None, "recover_area",
     "core.area_recovery"),
    ("repro.opt.scripts", None, "dc_map_effort_high", "opt.conventional"),
    ("repro.store.base", "Namespace", "put", "store.put"),
)

KEEP = {
    # A primary reduce succeeds when it yields a window Σ to build on.
    "core.reduce": lambda _args, r: bool(
        r.success and r.sigma_nid is not None
    ),
}

PIPELINE_PHASES = {
    "core.spcf": "phase.spcf",
    "core.reduce": "phase.reduce",
    "core.secondary": "phase.secondary",
}
"""Cone-pipeline layers and the program timers that replace their spans
when the pipeline may run in pool workers."""

DETERMINISTIC = (
    "lookahead.rounds",
    "lookahead.replacements.accepted",
    "lookahead.replacements.rejected",
    "lookahead.quality_evals",
    "core.secondary.sat_queries",
    "core.secondary.witness_hits",
    "core.area_recovery.sat_queries",
    "store.hits",
    "store.misses",
    "flow.iterations",
)
"""Work counters that repeat exactly across runs of one workload and seed;
they tell a slowdown from machine noise."""


def install(tracer: Tracer, in_process: bool) -> None:
    """Wrap every layer entry point (``in_process``: no pool workers)."""
    for module, cls, attr, layer in SPANS:
        if cls is None:
            tracer.wrap_function(module, attr, layer, KEEP.get(layer))
        else:
            tracer.wrap_method(module, cls, attr, layer, KEEP.get(layer))
    if not in_process:
        tracer.opaque("repro.core.lookahead", "_run_cone_task")
    tracer.note_entry(
        "repro.serve.daemon", "ReproDaemon", "_run_job", "serve.queue_wait",
        lambda args: time.monotonic() - args[1].submitted,
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    delta: Dict,
    in_process: bool,
    replaced: Tuple[int, int],
    ops: List,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``delta`` is the :func:`repro.perf.delta` over the pass, ``replaced``
    the (accepted, rejected) replacements it decided, and ``ops`` its
    operations (served jobs carry the daemon's service times).
    """
    counters = delta.get("counters", {})
    timers = delta.get("timers", {})

    def c(name: str) -> int:
        return counters.get(name, 0)

    def t(name: str) -> float:
        return timers.get(name, {}).get("seconds", 0.0)

    def span(layer: str) -> Dict[str, float]:
        if not in_process and layer in PIPELINE_PHASES:
            timer = timers.get(PIPELINE_PHASES[layer], {})
            return {f"{layer}.s": timer.get("seconds", 0.0),
                    f"{layer}.calls": timer.get("calls", 0)}
        return {f"{layer}.s": tracer.self_s.get(layer, 0.0),
                f"{layer}.calls": tracer.calls.get(layer, 0)}

    m: Dict[str, float] = {}
    accepted, rejected = replaced
    m["lookahead.optimize.s"] = tracer.self_s.get("lookahead.optimize", 0.0)
    m["lookahead.rounds"] = c("rounds")
    m["lookahead.replacements.accepted"] = accepted
    m["lookahead.replacements.rejected"] = rejected
    m["lookahead.accept_ratio"] = _ratio(accepted, accepted + rejected)
    m["lookahead.quality_evals"] = c("quality.evals")
    m["lookahead.workers_util"] = _ratio(
        t("workers.busy"), t("workers.capacity")
    )
    m.update(span("netlist.renode"))
    m.update(span("core.spcf"))
    for tier in ("signature", "bdd", "exact", "overapprox"):
        m[f"core.spcf.tier.{tier}"] = c(f"spcf.tier.{tier}")
    m.update(span("bdd.spcf"))
    m.update(span("core.reduce"))
    if in_process:
        outcomes = tracer.results.get("core.reduce", [])
        m["core.reduce.success_ratio"] = _ratio(sum(outcomes), len(outcomes))
    else:
        # The secondary phase runs exactly when the primary reduce
        # succeeded, in worker and daemon alike.
        m["core.reduce.success_ratio"] = _ratio(
            timers.get("phase.secondary", {}).get("calls", 0),
            timers.get("phase.reduce", {}).get("calls", 0),
        )
    m.update(span("core.secondary"))
    sat_queries = c("secondary.sat.calls")
    witness_hits = c("secondary.witness.hit")
    m["core.secondary.sat_queries"] = sat_queries
    m["core.secondary.witness_hits"] = witness_hits
    m["core.secondary.witness_ratio"] = _ratio(
        witness_hits, witness_hits + sat_queries
    )
    m.update(span("sat.solve"))
    m["core.rebuild.s"] = t("phase.rebuild")
    m["core.reconstruct.calls"] = tracer.calls.get("core.reconstruct", 0)
    m.update(span("core.area_recovery"))
    redundancy_queries = c("area.redundancy.queries")
    m["core.area_recovery.sat_queries"] = (
        redundancy_queries + c("area.sweep.queries")
    )
    m["core.area_recovery.removed_ratio"] = _ratio(
        c("area.redundancy.removed"), redundancy_queries
    )
    m["core.area_recovery.prefilter_hit_ratio"] = _ratio(
        c("area.prefilter.hit"),
        c("area.prefilter.hit") + c("area.prefilter.miss"),
    )
    m.update(span("opt.conventional"))
    m["flow.iterations"] = c("flow.iterations")
    m["cache.spcf.hit_ratio"] = _ratio(
        c("cache.spcf.hit"), c("cache.spcf.hit") + c("cache.spcf.miss")
    )
    m["cache.dp.hit_ratio"] = _ratio(
        c("cache.dp.hit"), c("cache.dp.hit") + c("cache.dp.miss")
    )
    m["cache.rejected.hits"] = c("cache.rejected.hit")
    m["timing.nodes_recomputed"] = c("timing.nodes.recomputed")
    hits, misses = c("store.hit"), c("store.miss")
    m["store.hits"] = hits
    m["store.misses"] = misses
    m["store.hit_ratio"] = _ratio(hits, hits + misses)
    m["store.get.calls"] = hits + misses
    m["store.put.calls"] = tracer.calls.get("store.put", 0)
    m["store.put.s"] = tracer.self_s.get("store.put", 0.0)
    m["store.load.s"] = (
        delta.get("histograms", {}).get("store.load", {}).get("total", 0.0)
    )
    m["serve.queue_wait.p50_s"] = _median(
        tracer.results.get("serve.queue_wait", [])
    )
    m.update(service_split(ops))
    m["serve.batch_size"] = _ratio(c("serve.batch.jobs"), c("serve.batches"))
    return m


def service_split(ops: List) -> Dict[str, float]:
    """Median daemon-side ``elapsed_s`` of cold and of warm served jobs."""
    cold = [op.meta["elapsed_s"] for op in ops
            if "elapsed_s" in op.meta and op.meta.get("cold")]
    warm = [op.meta["elapsed_s"] for op in ops
            if "elapsed_s" in op.meta and not op.meta.get("cold")]
    return {"serve.cold_service_s": _median(cold),
            "serve.warm_service_s": _median(warm)}
