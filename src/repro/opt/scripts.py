"""Named optimization flows mirroring the paper's comparison tools.

The paper compares lookahead synthesis against SIS (scripts ``delay``,
``rugged``, ``algebraic``, ``speed_up``), ABC (``resyn2rs``), and Synopsys
DC (``-map-effort high -area-effort high``), reporting each tool's best
result.  These closed tools cannot be run here; per the substitution rule
the flows are rebuilt from the same named algorithms on our substrate:

* :func:`abc_resyn2rs` — the balance/rewrite/refactor alternation of the
  ``resyn2rs`` script;
* :func:`sis_best` — network-level minimization (espresso per node via our
  SOP engine) plus the ``speed_up`` tree-height reduction, best-of;
* :func:`dc_map_effort_high` — a high-effort conventional flow: every
  baseline script is run and the best result kept, matching how a mature
  commercial tool dominates the academic flows it subsumes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..aig import AIG, depth
from ..netlist import network_to_aig, renode
from .balance import balance
from .rewrite import refactor, rewrite
from .speedup import speed_up


def _quality(aig: AIG) -> Tuple[int, int]:
    return depth(aig), aig.num_ands()


def _best(candidates: List[AIG]) -> AIG:
    return min(candidates, key=_quality)


def abc_resyn2rs(aig: AIG) -> AIG:
    """The ``resyn2rs`` script shape: b, rw, rf, b, rw, rwz, b, rfz, rwz, b."""
    current = aig.extract()
    for step in (
        balance,
        rewrite,
        refactor,
        balance,
        rewrite,
        rewrite,
        balance,
        refactor,
        rewrite,
        balance,
    ):
        candidate = step(current)
        if _quality(candidate) <= _quality(current):
            current = candidate
    return current


def sis_minimize(aig: AIG) -> AIG:
    """SIS ``rugged``-style pass: node minimization on the clustered network.

    renode produces the multi-level network; converting back through
    ``min_sop`` + factoring is the espresso/gkx-style node minimization.
    """
    net = renode(aig, k=8, max_cuts=6)
    return network_to_aig(net)


def sis_best(aig: AIG) -> AIG:
    """Best of the SIS-style scripts (delay / rugged / algebraic / speed_up)."""
    minimized = sis_minimize(aig)  # neither speed_up nor balance mutates it
    candidates = [aig.extract()]
    candidates.append(minimized)
    candidates.append(speed_up(aig))
    candidates.append(speed_up(minimized))
    candidates.append(balance(minimized))
    return _best(candidates)


def dc_map_effort_high(aig: AIG) -> AIG:
    """High-effort conventional flow (the Synopsys DC stand-in).

    Commercial map-effort-high synthesis subsumes the academic scripts and
    adds bounded delay-directed restructuring: one delay-objective rewrite
    pass plus balancing, on top of the best academic result.
    """
    candidates = [aig.extract()]
    resyn = abc_resyn2rs(aig)
    candidates.append(resyn)
    candidates.append(sis_best(aig))
    candidates.append(speed_up(resyn))
    delay_pass = balance(rewrite(_best(candidates), objective="delay"))
    candidates.append(delay_pass)
    candidates.append(speed_up(delay_pass))
    return _best(candidates)


BASELINE_FLOWS: Dict[str, Callable[[AIG], AIG]] = {
    "sis": sis_best,
    "abc": abc_resyn2rs,
    "dc": dc_map_effort_high,
}
"""The paper's three comparison columns."""
