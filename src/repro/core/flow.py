"""The complete lookahead synthesis flow used in the paper's evaluation.

The paper implements the technique within ABC and stresses that it
"complements existing logic optimization algorithms": lookahead
decomposition runs on top of conventional optimization.  This module wires
the two together — the result is never worse than the best conventional
flow, and improves on it wherever timing-driven decomposition finds
sensitizable critical structure.
"""

from __future__ import annotations

import io
from typing import Any, Dict, Optional, Tuple

from ..aig import AIG, aig_fingerprint, read_aag, write_aag
from .cache import ConeCache
from .config import FLOW_DEFAULTS, LookaheadConfig, positive_int
from .lookahead import LookaheadOptimizer

MAX_ITERATIONS = 4
"""Default bound on the flow's conventional/lookahead iterations."""


def _make_quality(arrival_times: Optional[Dict[str, int]]):
    """Quality metric: worst PO completion time under the flow's delay
    model, then size.  With no prescribed arrivals this is exactly the
    legacy (depth, num_ands) ordering."""
    from ..timing import AigTimingEngine, resolve_arrivals

    # One delay model per flow: models are stateless, so resolving inside
    # the closure would only rebuild the same object per candidate
    # evaluation.
    model = resolve_arrivals(arrival_times)
    checked = False

    def _quality(aig: AIG):
        nonlocal checked
        q = (AigTimingEngine(aig, model).depth(), aig.num_ands())
        if __debug__ and not checked:
            checked = True
            fresh = AigTimingEngine(aig, resolve_arrivals(arrival_times))
            assert q[0] == fresh.depth(), (
                "hoisted delay model changed the quality ordering"
            )
        return q

    return _quality


def lookahead_flow(
    aig: AIG,
    optimizer: Optional[LookaheadOptimizer] = None,
    max_iterations: int = MAX_ITERATIONS,
    verify: bool = False,
    store=None,
    rank_data=None,
    **options,
) -> AIG:
    """Conventional high-effort optimization alternated with decomposition.

    Each iteration takes the better of the conventional flow (which cleans
    up and rebalances the mux/window structures the decomposition
    introduced) and another batch of lookahead rounds; iteration stops at
    a fixpoint.  The result is never worse than the conventional flow
    alone, and the decomposition gets a first shot at the raw circuit,
    where long sensitizable chains are still visible.

    Without an explicit ``optimizer`` the flow builds one from
    ``options`` — :class:`~repro.core.config.LookaheadConfig` fields over
    the flow's defaults (:data:`~repro.core.config.FLOW_DEFAULTS`) —
    plus the runtime ``store`` and ``rank_data``; all are ignored when
    an ``optimizer`` is passed.  The quality gate follows the
    optimizer's ``arrival_times``.

    ``verify=True`` equivalence-checks every accepted candidate against
    the circuit it replaces (and therefore, transitively, against the
    input), raising ``AssertionError`` on any miscompile — the
    belt-and-braces guard for production runs where a wrong circuit is
    much worse than a slow one.
    """
    from .. import perf
    from ..cec import assert_equivalent
    from ..opt import dc_map_effort_high

    opt = optimizer or LookaheadOptimizer(
        store=store, rank_data=rank_data,
        **{**FLOW_DEFAULTS["lookahead"], **options},
    )
    _quality = _make_quality(opt.config.arrival_times)
    current = aig.extract()
    current_q = _quality(current)
    # The conventional candidate is recomputed only when `current` actually
    # changed under it.  When the conventional flow itself wins an
    # iteration, its output doubles as the next iteration's conventional
    # candidate: dc_map_effort_high keeps its input among its internal
    # candidates, so rerunning it on its own output cannot do better than
    # what the quality-gate below would accept anyway.
    conventional = None
    try:
        for _ in range(max_iterations):
            perf.incr("flow.iterations")
            if conventional is None:
                with perf.timer("phase.conventional"):
                    conventional = dc_map_effort_high(current)
            else:
                perf.incr("flow.conventional.reused")
            candidates = [conventional, opt.optimize(current)]
            # One quality evaluation per fresh candidate: the incumbent's
            # is cached across iterations, never recomputed per round.
            qualities = [_quality(c) for c in candidates]
            best = min(range(len(candidates)), key=qualities.__getitem__)
            candidate, candidate_q = candidates[best], qualities[best]
            if candidate_q >= current_q:
                break
            if verify:
                with perf.timer("phase.verify"):
                    assert_equivalent(current, candidate, "flow iteration")
            conventional = candidate if candidate is conventional else None
            current, current_q = candidate, candidate_q
    finally:
        if optimizer is None:
            opt.close()  # the flow owns optimizers it created
    return current


# -- job-shaped entry points ---------------------------------------------------
#
# A job is (circuit, options dict).  The options are a LookaheadConfig
# payload plus three job-level fields — ``flow``, ``max_iterations`` and
# ``verify``.  A daemon validates them *before* queueing (a bad job is
# rejected at submit, not in a runner mid-drain) and runs jobs with equal
# keys on one warm optimizer (persistent worker pool, hot in-memory store
# tier); ``repro optimize`` runs its lookahead flows through the same
# helpers, so a local answer and a served one are one code path.

JOB_FLOWS = tuple(FLOW_DEFAULTS)
"""Flows a job may request.  Conventional baselines (sis/abc/dc) are
deliberately absent: they ignore arrivals and never touch the store, so
serving them would only burn daemon CPU with no replay win."""


def normalize_job_config(options: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Validate a job's options dict and fill defaults.

    Returns ``{"flow", "max_iterations", "verify", "lookahead"}``, the
    last a :class:`LookaheadConfig` over the flow's defaults; raises
    ``ValueError`` on anything malformed, unknown keys included.  A
    ``null`` value means the default, as it does in the config payload.
    """
    options = dict(options or {})
    flow = options.pop("flow", None)
    if flow is None:
        flow = "lookahead"
    if flow not in JOB_FLOWS:
        raise ValueError(
            f"unknown job flow {flow!r}; expected one of {JOB_FLOWS}"
        )
    max_iterations = options.pop("max_iterations", None)
    return {
        "flow": flow,
        "max_iterations": (
            MAX_ITERATIONS if max_iterations is None
            else positive_int("max_iterations", max_iterations)
        ),
        "verify": bool(options.pop("verify", False)),
        "lookahead": LookaheadConfig.from_payload(
            options, FLOW_DEFAULTS[flow]
        ),
    }


def job_config_key(config: Dict[str, Any]) -> Tuple:
    """Hashable identity of a job config (batching / optimizer reuse).

    Two jobs with equal keys are interchangeable to an optimizer: the
    daemon batches them onto one warm instance.  ``verify`` is excluded —
    it gates a post-flow equivalence check, not the optimization itself.
    """
    return (
        config["flow"], config["max_iterations"], config["lookahead"].key()
    )


def make_job_optimizer(
    config: Dict[str, Any],
    workers: Optional[int] = None,
    rank_data=None,
) -> LookaheadOptimizer:
    """A reusable optimizer for every job sharing ``job_config_key``.

    The cone cache is wired to the *already configured* process runtime
    store and never reconfigures it: a daemon shares one store across
    every handler and runner thread, and reconfiguring would close it
    out from under every other job.  Worker task tuples still ship
    ``store_runtime.current_spec()``, so pool workers adopt the same
    backend.
    """
    from ..store import runtime as store_runtime

    return LookaheadOptimizer(
        config=config["lookahead"],
        workers=workers,
        cache=ConeCache(store=store_runtime.get_store()),
        rank_data=rank_data,
    )


def job_store_key(aig: AIG, config: Dict[str, Any]) -> Tuple:
    """Store key of a job's answer (the ``job`` namespace, DESIGN 3.20).

    The structural fingerprint leads, by the store's convention; the
    SHA-256 of the exact graph pins what the optimizer reads (numbering
    and names included, which neither the fingerprint nor an AIGER dump
    does); :func:`job_config_key` pins every option that can change the
    answer.
    """
    return (
        aig_fingerprint(aig), aig.structure_digest(), job_config_key(config)
    )


def _aag_text(aig: AIG) -> str:
    buf = io.StringIO()
    write_aag(aig, buf)
    return buf.getvalue()


def execute_optimize_job(
    aig: AIG,
    config: Dict[str, Any],
    optimizer: Optional[LookaheadOptimizer] = None,
    workers: Optional[int] = None,
) -> AIG:
    """Run one optimize job (a normalized config) against a circuit.

    ``optimizer`` is the daemon's warm per-config instance; when ``None``
    an ephemeral one is created and closed (the one-shot path used by
    tests and programmatic callers).

    With a persistent runtime store, a job whose input and config key
    were answered before replays that answer whole, without running the
    optimizer.  ``rank='log'`` jobs always run: their dataset rows are a
    side effect of the run.
    """
    from ..store import runtime as store_runtime

    answers = key = None
    if store_runtime.is_persistent() and config["lookahead"].rank != "log":
        answers = store_runtime.get_store().namespace(
            "job", encode=_aag_text,
            decode=lambda text: read_aag(io.StringIO(text)),
        )
        key = job_store_key(aig, config)
        stored = answers.get(key)
        if stored is not None:
            return stored
    owned = optimizer is None
    if owned:
        optimizer = make_job_optimizer(config, workers=workers)
    try:
        if config["flow"] == "lookahead-only":
            answer = optimizer.optimize(aig)
        else:
            answer = lookahead_flow(
                aig, optimizer=optimizer,
                max_iterations=config["max_iterations"],
            )
    finally:
        if owned:
            optimizer.close()
    if answers is not None:
        answers.put(key, answer)
    return answer
