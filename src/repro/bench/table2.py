"""One definition of a Table 2 row.

The paper's headline result is the 15-circuit MCNC / ISCAS-85 /
OpenSPARC comparison of SIS, ABC, DC and lookahead synthesis.  Every
consumer of that table — the pytest benches under ``benchmarks/``, the
sharded orchestrator (:mod:`repro.bench.orchestrator`), the golden QoR
suite and a ``repro serve`` daemon answering Lookahead jobs — must agree
on what a row *is*: which flow functions run, how the Lookahead column's
effort scales with circuit size, and which metrics a cell records.  This
module is that single definition; everything else imports it.

A row is ``{gates, levels, delay_ps, power_uw}`` per flow: AIG AND
count, AIG levels, technology-mapped delay, and dynamic power at 1 GHz.
Every optimized circuit is equivalence-checked against its original
before being measured, as in the paper.
"""

from __future__ import annotations

import io
from functools import lru_cache
from os import environ
from typing import Any, Callable, Dict, List, Optional

from ..aig import AIG, depth, read_aag
from ..cec import check_equivalence
from ..mapping import dynamic_power_uw, map_aig, mapped_delay
from .circuits import BENCHMARKS

FLOW_ORDER = ("SIS", "ABC", "DC", "Lookahead")
"""Table 2 column order."""

BASELINES = ("SIS", "ABC", "DC")
"""Flows the headline averages compare the Lookahead column against."""

QUICK_SET = ("C432", "C880", "C1908", "C3540", "dalu")
"""The small circuits run under ``REPRO_BENCH_QUICK=1`` (and by the CI
bench-orchestrator smoke job)."""

FULL_EFFORT_MAX_ANDS = 800
BOUNDED_EFFORT_MAX_ANDS = 2200


def quick_mode() -> bool:
    """REPRO_BENCH_QUICK=1 restricts Table 2 to the small circuits."""
    return environ.get("REPRO_BENCH_QUICK", "") == "1"


def circuit_names() -> List[str]:
    """The benched circuit set (honouring :func:`quick_mode`)."""
    if quick_mode():
        return list(QUICK_SET)
    return list(BENCHMARKS)


@lru_cache(maxsize=4)
def get_circuit(name: str) -> AIG:
    """Generate a Table 2 circuit, memoized with a small bound.

    The cache exists so the four flows of one row share a single
    generation; the bound keeps a full 15-circuit sweep from pinning
    every stand-in (the big fabrics included) in memory at once.
    Callers must treat the returned AIG as read-only.
    """
    return BENCHMARKS[name]()


def effort_options(num_ands: int) -> Dict[str, Any]:
    """Lookahead-column effort, scaled to circuit size, as job options.

    Small circuits get the full flow (empty dict = the flow's own
    defaults); large ones get bounded rounds and fewer flow iterations
    so the 15-circuit table regenerates in about an hour of CPU.  The
    returned dict is exactly the ``options`` payload of a ``repro
    serve`` submit (see :func:`repro.core.flow.normalize_job_config`),
    which is what makes a served Lookahead row bit-identical to a local
    one: the effort tier travels with the job.
    """
    if num_ands <= FULL_EFFORT_MAX_ANDS:
        return {}
    if num_ands <= BOUNDED_EFFORT_MAX_ANDS:
        return {
            "max_rounds": 4,
            "max_outputs_per_round": 6,
            "sim_width": 512,
            "walk_modes": ["target"],
            "max_iterations": 2,
        }
    return {
        "max_rounds": 3,
        "max_outputs_per_round": 4,
        "sim_width": 512,
        "walk_modes": ["target"],
        "max_iterations": 1,
    }


def lookahead_effort_scaled(aig: AIG) -> AIG:
    """The Lookahead column, executed locally.

    Routes through the job-shaped flow entry points so the local path
    and the served path run literally the same code on the same
    normalized config.
    """
    from ..core.flow import execute_optimize_job, normalize_job_config

    config = normalize_job_config(
        {"flow": "lookahead", **effort_options(aig.num_ands())}
    )
    return execute_optimize_job(aig, config)


def _baseline_flows() -> Dict[str, Callable[[AIG], AIG]]:
    from ..opt import abc_resyn2rs, dc_map_effort_high, sis_best

    return {"SIS": sis_best, "ABC": abc_resyn2rs, "DC": dc_map_effort_high}


def flow_functions() -> Dict[str, Callable[[AIG], AIG]]:
    """Flow name -> ``AIG -> AIG`` for every Table 2 column."""
    flows = dict(_baseline_flows())
    flows["Lookahead"] = lookahead_effort_scaled
    return flows


def measure(original: AIG, optimized: AIG, label: str = "flow") -> Dict[str, Any]:
    """Equivalence-check then map and measure one table cell."""
    if not check_equivalence(original, optimized):
        raise AssertionError(f"{label}: optimized circuit is not equivalent")
    netlist = map_aig(optimized)
    return {
        "gates": optimized.num_ands(),
        "levels": depth(optimized),
        "delay_ps": mapped_delay(netlist),
        "power_uw": dynamic_power_uw(netlist),
    }


def run_flow_row(
    circuit_name: str,
    flow_name: str,
    aig: Optional[AIG] = None,
    client=None,
    lookahead_options: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Compute one Table 2 cell: optimize, CEC, map, measure.

    ``client`` (a :class:`repro.serve.ServeClient`) offloads the
    Lookahead column to a running daemon — the returned circuit is
    re-checked and measured locally, so a served cell differs from a
    local one only in where the optimization ran.  Baselines always run
    locally (the daemon deliberately refuses them; they never touch the
    store).  ``lookahead_options`` pins the effort tier explicitly (the
    orchestrator passes the manifest's recorded options); by default it
    is derived from the circuit size.
    """
    if aig is None:
        aig = get_circuit(circuit_name)
    label = f"{flow_name} on {circuit_name}"
    if flow_name == "Lookahead":
        options = lookahead_options
        if options is None:
            options = effort_options(aig.num_ands())
        if client is not None:
            result = client.submit(
                aig, options={"flow": "lookahead", **options}
            )
            optimized = read_aag(io.StringIO(result["circuit"]))
        else:
            from ..core.flow import execute_optimize_job, normalize_job_config

            config = normalize_job_config({"flow": "lookahead", **options})
            optimized = execute_optimize_job(aig, config)
    elif flow_name in BASELINES:
        optimized = _baseline_flows()[flow_name](aig)
    else:
        raise ValueError(f"unknown Table 2 flow {flow_name!r}")
    return measure(aig, optimized, label)


# -- golden QoR configs -------------------------------------------------------

GOLDEN_W1 = {"max_rounds": 2, "max_outputs_per_round": 8, "sim_width": 512}
"""The bounded-effort ``w1`` optimizer configuration.

The golden QoR suite runs it on the small circuits and rot, the output
digests pin it, ``tests/core/test_parallel.py`` holds it serial against
parallel, and perfbench's rot-cold and serve-fabric workloads time it;
a change here moves all of them at once.
"""

GOLDEN_QUICK = {
    "max_rounds": 1,
    "max_outputs_per_round": 2,
    "sim_width": 256,
    "walk_modes": ("target",),
}
"""Quick-effort config for the big Table 2 circuits in the golden QoR
suite: one bounded round keeps the full 15-circuit surface inside the
tier-1 wall-clock budget while still pinning depth per circuit."""

_GOLDEN_W1_PINNED = frozenset({"rot"})
"""Circuits above the size threshold that keep the w1 config anyway
(rot is the speed reference circuit, timed by perfbench's rot-cold; its
goldens predate the quick tier and must not silently change)."""


def golden_config(name: str, num_ands: int) -> Dict[str, Any]:
    """Optimizer kwargs the golden QoR suite uses for ``name``."""
    if name in _GOLDEN_W1_PINNED or num_ands <= FULL_EFFORT_MAX_ANDS:
        return dict(GOLDEN_W1)
    return dict(GOLDEN_QUICK)


def golden_area_effort(config: Dict[str, Any]) -> str:
    """Area-recovery effort paired with a golden config.

    Full-effort recovery on the quick-tier circuits would cost more
    than their optimization; ``medium`` keeps the ``ands_post`` bound
    deterministic at a fraction of the price.
    """
    return "medium" if config == GOLDEN_QUICK else "high"
