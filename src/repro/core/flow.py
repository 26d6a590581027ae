"""The complete lookahead synthesis flow used in the paper's evaluation.

The paper implements the technique within ABC and stresses that it
"complements existing logic optimization algorithms": lookahead
decomposition runs on top of conventional optimization.  This module wires
the two together — the result is never worse than the best conventional
flow, and improves on it wherever timing-driven decomposition finds
sensitizable critical structure.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..aig import AIG
from .lookahead import (
    SPCF_TIERS,
    WALK_MODES,
    LookaheadOptimizer,
    make_runtime_optimizer,
    validate_walk_modes,
)


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
    max_iterations: int = 4,
    arrival_times: Optional[Dict[str, int]] = None,
    verify: bool = False,
    spcf_tier: str = "auto",
    area_recovery: bool = True,
    area_effort: str = "medium",
    sat_portfolio: str = "off",
    store=None,
    walk_modes=None,
    rank: str = "off",
    rank_model=None,
    rank_data=None,
) -> AIG:
    """Conventional high-effort optimization alternated with decomposition.

    Each iteration takes the better of the conventional flow (which cleans
    up and rebalances the mux/window structures the decomposition
    introduced) and another batch of lookahead rounds; iteration stops at
    a fixpoint.  The result is never worse than the conventional flow
    alone, and the decomposition gets a first shot at the raw circuit,
    where long sensitizable chains are still visible.

    ``arrival_times`` (PI name -> integer arrival) puts both the optimizer
    and the quality gate in the non-uniform arrival regime; when an
    explicit ``optimizer`` is passed its own ``arrival_times`` win.

    ``spcf_tier`` selects the SPCF evaluation of the default optimizer,
    ``area_recovery`` / ``area_effort`` its post-round area-recovery
    pipeline, ``sat_portfolio`` the solver portfolio racing its
    SAT-bound care and redundancy queries (see
    :class:`LookaheadOptimizer` and :mod:`repro.sat.portfolio`), and
    ``store`` the persistent result store (a database path or
    :class:`repro.store.StoreConfig`) that lets every memo layer survive
    across invocations, ``walk_modes`` its critical-walk strategies
    (``None`` keeps the optimizer default), and ``rank`` /
    ``rank_model`` / ``rank_data`` its learned candidate ranker (see
    :mod:`repro.rank` and DESIGN 3.23); all nine are ignored when an
    explicit ``optimizer`` is passed.

    ``verify=True`` equivalence-checks every accepted candidate against
    the circuit it replaces (and therefore, transitively, against the
    input), raising ``AssertionError`` on any miscompile — the
    belt-and-braces guard for production runs where a wrong circuit is
    much worse than a slow one.
    """
    from .. import perf
    from ..cec import assert_equivalent
    from ..opt import dc_map_effort_high

    optimizer_kwargs = {}
    if walk_modes is not None:
        optimizer_kwargs["walk_modes"] = validate_walk_modes(walk_modes)
    opt = optimizer or LookaheadOptimizer(
        max_rounds=16, max_outputs_per_round=8, arrival_times=arrival_times,
        spcf_tier=spcf_tier, area_recovery=area_recovery,
        area_effort=area_effort, sat_portfolio=sat_portfolio, store=store,
        rank=rank, rank_model=rank_model, rank_data=rank_data,
        **optimizer_kwargs,
    )
    _quality = _make_quality(opt.arrival_times)
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


# -- job-shaped entry points (the `repro serve` surface) ----------------------
#
# A daemon absorbing a stream of optimize jobs needs the flow in a
# different shape than the CLI: a job arrives as (circuit, options dict),
# its options must be validated *before* it is queued (a bad job should
# be rejected at submit, not crash a runner mid-drain), and jobs with
# identical options should share one warm optimizer (persistent worker
# pool, hot in-memory store tier).  These helpers are that shape; the
# CLI path above them is unchanged.

JOB_FLOWS = ("lookahead", "lookahead-only")
"""Flows a job may request.  Conventional baselines (sis/abc/dc) are
deliberately absent: they ignore arrivals and never touch the store, so
serving them would only burn daemon CPU with no replay win."""

_JOB_OPTION_DEFAULTS: Dict[str, Any] = {
    "flow": "lookahead",
    "arrivals": None,
    "spcf_tier": "auto",
    "area_recovery": True,
    "area_effort": "medium",
    "sat_portfolio": "off",
    "verify": False,
    # Effort knobs (None = the flow's own defaults).  These exist so a
    # size-scaled benchmark row — e.g. Table 2's bounded-effort Lookahead
    # column — can be served by a daemon bit-identically to a local run:
    # the client computes the effort tier from the circuit it holds and
    # ships the knobs explicitly instead of relying on daemon-side state.
    "max_rounds": None,
    "max_outputs_per_round": None,
    "sim_width": None,
    "walk_modes": None,
    "max_iterations": None,
    # Learned candidate ranking (DESIGN 3.23).  Only 'off' and 'prune'
    # are servable — dataset logging is a local concern — and a prune
    # job must embed its model payload, so the daemon's answer depends
    # only on the job, never on daemon-side files.
    "rank": "off",
    "rank_model": None,
}


def normalize_job_config(options: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Validate a job's options dict and fill defaults.

    Returns a plain, JSON-compatible config dict; raises ``ValueError``
    on anything malformed so the daemon can reject the job at submit
    time.  Unknown keys are errors too — a typo'd option silently doing
    nothing is how a client ends up benchmarking the wrong flow.
    """
    from ..sat.portfolio import MODES as PORTFOLIO_MODES
    from .area_recovery import AREA_EFFORTS

    merged = dict(_JOB_OPTION_DEFAULTS)
    unknown = sorted(set(options or ()) - set(merged))
    if unknown:
        raise ValueError(f"unknown job options: {', '.join(unknown)}")
    merged.update(options or {})
    if merged["flow"] not in JOB_FLOWS:
        raise ValueError(
            f"unknown job flow {merged['flow']!r}; expected one of {JOB_FLOWS}"
        )
    if merged["spcf_tier"] not in SPCF_TIERS:
        raise ValueError(f"unknown SPCF tier {merged['spcf_tier']!r}")
    if merged["area_effort"] not in AREA_EFFORTS:
        raise ValueError(f"unknown area effort {merged['area_effort']!r}")
    if merged["sat_portfolio"] not in PORTFOLIO_MODES:
        raise ValueError(
            f"unknown SAT portfolio mode {merged['sat_portfolio']!r}"
        )
    for key in (
        "max_rounds", "max_outputs_per_round", "sim_width", "max_iterations",
    ):
        value = merged[key]
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{key} must be a positive integer, got {value!r}")
    walk_modes = merged["walk_modes"]
    if walk_modes is not None:
        # Same validator (and error text) as the optimizer constructor
        # and the CLI, so every entry point rejects bad values alike.
        merged["walk_modes"] = list(validate_walk_modes(walk_modes))
    rank = merged["rank"]
    if rank not in ("off", "prune"):
        raise ValueError(
            f"unservable rank mode {rank!r}; jobs may use 'off' or 'prune'"
        )
    rank_model = merged["rank_model"]
    if rank == "prune":
        from ..rank import RankModel

        if not isinstance(rank_model, dict):
            raise ValueError(
                "rank='prune' jobs must embed the model payload "
                "as rank_model"
            )
        try:
            RankModel.from_payload(rank_model)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed rank_model payload: {exc}")
    elif rank_model is not None:
        raise ValueError("rank_model is only meaningful with rank='prune'")
    arrivals = merged["arrivals"]
    if arrivals is not None:
        if not isinstance(arrivals, dict) or not arrivals:
            raise ValueError("arrivals must be a non-empty {name: int} map")
        clean: Dict[str, int] = {}
        for name, t in arrivals.items():
            if not isinstance(name, str):
                raise ValueError(f"arrival name {name!r} is not a string")
            if isinstance(t, bool) or not isinstance(t, int):
                raise ValueError(
                    f"arrival time for {name!r} must be an integer, got {t!r}"
                )
            clean[name] = t
        merged["arrivals"] = clean
    for key in ("area_recovery", "verify"):
        merged[key] = bool(merged[key])
    return merged


def job_config_key(config: Dict[str, Any]) -> Tuple:
    """Hashable identity of a job config (batching / optimizer reuse).

    Two jobs with equal keys are interchangeable to an optimizer: the
    daemon batches them onto one warm instance.  ``verify`` is excluded —
    it gates a post-flow equivalence check, not the optimization itself.
    """
    arrivals = config.get("arrivals")
    walk_modes = config.get("walk_modes")
    rank_model = config.get("rank_model")
    if rank_model:
        from ..rank import RankModel

        # The payload's stable fingerprint, not the dict itself: model
        # identity is what makes two prune jobs interchangeable.
        model_id = RankModel.from_payload(rank_model).fingerprint()
    else:
        model_id = None
    return (
        config["flow"],
        tuple(sorted(arrivals.items())) if arrivals else None,
        config["spcf_tier"],
        config["area_recovery"],
        config["area_effort"],
        config["sat_portfolio"],
        config.get("max_rounds"),
        config.get("max_outputs_per_round"),
        config.get("sim_width"),
        tuple(walk_modes) if walk_modes else None,
        config.get("max_iterations"),
        config.get("rank", "off"),
        model_id,
    )


def make_job_optimizer(
    config: Dict[str, Any], workers: Optional[int] = None
) -> LookaheadOptimizer:
    """A reusable optimizer for every job sharing ``job_config_key``.

    Mirrors the per-flow defaults of the CLI ``FLOWS`` table (so a served
    answer is bit-identical to a local ``repro optimize`` run with the
    same store) and wires the cone cache to the *already configured*
    process runtime store — never reconfiguring it, because the daemon
    shares one store across every handler and runner thread.
    """
    common = dict(
        arrival_times=config["arrivals"],
        spcf_tier=config["spcf_tier"],
        area_recovery=config["area_recovery"],
        area_effort=config["area_effort"],
        sat_portfolio=config["sat_portfolio"],
        workers=workers,
    )
    for knob in ("max_rounds", "max_outputs_per_round", "sim_width"):
        if config.get(knob) is not None:
            common[knob] = config[knob]
    if config.get("walk_modes"):
        common["walk_modes"] = tuple(config["walk_modes"])
    if config.get("rank", "off") != "off":
        common["rank"] = config["rank"]
        common["rank_model"] = config["rank_model"]
    if config["flow"] == "lookahead-only":
        common.setdefault("max_rounds", 12)
        return make_runtime_optimizer(**common)
    common.setdefault("max_rounds", 16)
    common.setdefault("max_outputs_per_round", 8)
    return make_runtime_optimizer(**common)


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
    """
    owned = optimizer is None
    if owned:
        optimizer = make_job_optimizer(config, workers=workers)
    try:
        if config["flow"] == "lookahead-only":
            return optimizer.optimize(aig)
        return lookahead_flow(
            aig,
            optimizer=optimizer,
            max_iterations=config.get("max_iterations") or 4,
        )
    finally:
        if owned:
            optimizer.close()
