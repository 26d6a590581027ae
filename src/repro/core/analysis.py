"""Decomposition analytics: inspect what a lookahead round discovered.

The optimizer's machinery is exposed step by step so users (and the
examples/ablations) can report the anatomy of a decomposition — SPCF
sizes per Δ, the windows chosen on each marked node, Σ1's depth, and the
final reconstruction balance.  Read-only: nothing here mutates the input
circuit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..aig import AIG, depth, levels, lit_var
from ..netlist import compute_levels, renode
from .lookahead import LookaheadOptimizer, _cone_spcf, _domain_model
from .reduce import primary_reduce


class OutputReport:
    """Per-output decomposition report."""

    __slots__ = (
        "po_index",
        "po_name",
        "po_level",
        "spcf_mode",
        "spcf_count",
        "marked_nodes",
        "window_supports",
        "cone_level_before",
        "cone_level_after",
        "sigma_level",
        "success",
    )

    def __init__(self, **kw):
        for key in self.__slots__:
            setattr(self, key, kw.get(key))

    def as_dict(self) -> Dict:
        return {key: getattr(self, key) for key in self.__slots__}


class RoundReport:
    """Summary of one decomposition round over all critical outputs."""

    def __init__(self, aig_depth: int, outputs: List[OutputReport]):
        self.aig_depth = aig_depth
        self.outputs = outputs

    @property
    def num_successful(self) -> int:
        return sum(1 for o in self.outputs if o.success)

    def __repr__(self) -> str:
        return (
            f"RoundReport(depth={self.aig_depth}, "
            f"outputs={len(self.outputs)}, "
            f"successful={self.num_successful})"
        )


def analyze_round(
    aig: AIG,
    optimizer: Optional[LookaheadOptimizer] = None,
    max_outputs: int = 8,
) -> RoundReport:
    """Dry-run the primary simplification of one round and report it."""
    opt = optimizer or LookaheadOptimizer()
    d = depth(aig)
    mode = opt._resolve_mode(aig)
    if mode == "bdd":
        mode = "sim"  # keep the dry run cheap and allocation-free
    aig_levels = levels(aig)
    critical = [
        i for i, po in enumerate(aig.pos) if aig_levels[lit_var(po)] == d
    ][:max_outputs]
    net = renode(aig, opt.k)

    reports: List[OutputReport] = []
    for po_index in critical:
        found = _cone_spcf(
            aig.extract([aig.pos[po_index]]), mode, opt.sim_width,
            opt.seed, spcf_tier=opt.spcf_tier,
        )
        if found is None:
            reports.append(
                OutputReport(
                    po_index=po_index,
                    po_name=aig.po_names[po_index],
                    po_level=aig_levels[lit_var(aig.pos[po_index])],
                    spcf_mode=mode,
                    spcf_count=0,
                    marked_nodes=0,
                    window_supports=[],
                    success=False,
                )
            )
            continue
        _delta, spcf = found
        cone = net.extract_po_cone(po_index)
        model = _domain_model(cone, spcf, opt.sim_width, opt.seed)
        root, _neg = cone.pos[0]
        before = compute_levels(cone)[root]
        result = primary_reduce(cone, 0, model, model.spcf_fn(spcf))
        lv = compute_levels(cone)
        reports.append(
            OutputReport(
                po_index=po_index,
                po_name=aig.po_names[po_index],
                po_level=aig_levels[lit_var(aig.pos[po_index])],
                spcf_mode=spcf.mode,
                spcf_count=spcf.count,
                marked_nodes=len(result.windows),
                window_supports=[
                    sorted(w.support()) for w in result.windows.values()
                ],
                cone_level_before=before,
                cone_level_after=lv[root],
                sigma_level=(
                    lv[result.sigma_nid]
                    if result.sigma_nid is not None
                    else None
                ),
                success=result.success,
            )
        )
    return RoundReport(d, reports)


def print_round_report(report: RoundReport) -> None:
    """Human-readable dump of a round report."""
    print(f"AIG depth {report.aig_depth}; "
          f"{report.num_successful}/{len(report.outputs)} outputs decomposed")
    for o in report.outputs:
        status = "ok" if o.success else "--"
        sigma = f"Σ@{o.sigma_level}" if o.sigma_level is not None else "Σ:-"
        print(
            f"  [{status}] {o.po_name:16s} level {o.po_level:3d} "
            f"spcf({o.spcf_mode})={o.spcf_count:<6d} "
            f"marked={o.marked_nodes:<3d} "
            f"cone {o.cone_level_before}->{o.cone_level_after} {sigma}"
        )
