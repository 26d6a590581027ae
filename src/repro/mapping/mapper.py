"""Delay-oriented technology mapping (cut-based boolean matching).

Classic two-phase dynamic programming: every AIG variable keeps its best
mapped implementation in both polarities; K-feasible cut functions are
matched against library cells under input permutation (P-canonical keys),
with explicit inverters bridging phases.  Cover extraction from the POs
instantiates the chosen gates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..aig import AIG, cut_tt, enumerate_cuts, lit_neg, lit_var
from ..tt import TruthTable, p_canonical
from .library import Cell, NOMINAL_LOAD_FF, default_library

INF = float("inf")

Signal = Tuple[int, bool]  # (aig variable, negated?)


class GateInstance:
    """One mapped gate: a cell driving a signal from input signals."""

    __slots__ = ("cell", "output", "inputs")

    def __init__(self, cell: Cell, output: Signal, inputs: List[Signal]):
        self.cell = cell
        self.output = output
        self.inputs = inputs

    def __repr__(self) -> str:
        return f"GateInstance({self.cell.name} -> {self.output})"


class MappedNetlist:
    """Result of technology mapping."""

    def __init__(
        self,
        aig: AIG,
        gates: List[GateInstance],
        po_signals: List[Signal],
        arrival: Dict[Signal, float],
    ):
        self.aig = aig
        self.gates = gates
        self.po_signals = po_signals
        self.arrival = arrival

    @property
    def area(self) -> float:
        return sum(g.cell.area for g in self.gates)

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def delay(self) -> float:
        """Mapped delay: worst PO arrival (DP estimate; see sta for loads)."""
        if not self.po_signals:
            return 0.0
        return max(self.arrival.get(sig, 0.0) for sig in self.po_signals)

    def timing(self, target: Optional[float] = None):
        """Load-aware timing engine over this netlist.

        The returned :class:`repro.timing.MappedTimingEngine` shares the
        arrival/required/slack query interface with the AIG and network
        engines, so reporting code is subject-agnostic.
        """
        from ..timing import MappedTimingEngine

        return MappedTimingEngine(self, target)

    def evaluate(self, assignment: Sequence[bool]) -> List[bool]:
        """Evaluate the gate-level netlist on one input assignment."""
        values: Dict[Signal, bool] = {(0, False): False, (0, True): True}
        for pi, v in zip(self.aig.pis, assignment):
            values[(pi, False)] = bool(v)
            values[(pi, True)] = not v
        for gate in self.gates:
            ins = [values[sig] for sig in gate.inputs]
            values[gate.output] = gate.cell.tt.evaluate(ins)
            values[(gate.output[0], not gate.output[1])] = not values[
                gate.output
            ]
        return [values[sig] for sig in self.po_signals]

    def __repr__(self) -> str:
        return (
            f"MappedNetlist(gates={self.num_gates}, area={self.area:.1f}, "
            f"delay={self.delay():.1f}ps)"
        )


class _MatchIndex:
    """P-canonical lookup from cut functions to (cell, pin-assignment)."""

    def __init__(self, cells: Sequence[Cell]):
        self.by_canon: Dict[Tuple[int, int], List[Tuple[Cell, Tuple[int, ...]]]] = {}
        for cell in cells:
            bits, perm = p_canonical(cell.tt)
            self.by_canon.setdefault((bits, cell.tt.nvars), []).append(
                (cell, perm)
            )

    def matches(
        self, tt: TruthTable
    ) -> List[Tuple[Cell, List[int]]]:
        """Cells implementing ``tt``; pin order as cut-leaf indices.

        Returns pairs ``(cell, leaf_of_pin)`` where ``leaf_of_pin[j]`` is
        the index (into the cut's leaf list) feeding cell pin ``j``.
        """
        bits, perm_cut = p_canonical(tt)
        out = []
        for cell, perm_cell in self.by_canon.get((bits, tt.nvars), []):
            # tt.permute(perm_cut) == cell.tt.permute(perm_cell): cut leaf i
            # plays canonical role perm_cut[i], cell pin j plays role
            # perm_cell[j]; pin j therefore takes the leaf with matching role.
            role_to_leaf = {role: i for i, role in enumerate(perm_cut)}
            leaf_of_pin = [role_to_leaf[perm_cell[j]] for j in range(tt.nvars)]
            out.append((cell, leaf_of_pin))
        return out


class _Choice:
    __slots__ = ("kind", "cell", "pin_signals")

    def __init__(self, kind, cell=None, pin_signals=None):
        self.kind = kind  # 'cell', 'pi', 'const'
        self.cell = cell
        self.pin_signals = pin_signals  # signals feeding the cell pins


def map_aig(
    aig: AIG,
    cells: Optional[Sequence[Cell]] = None,
    k: int = 4,
    max_cuts: int = 8,
    objective: str = "delay",
) -> MappedNetlist:
    """Map an AIG to the cell library.

    ``objective='delay'`` minimizes arrival time (the Table 2 metric);
    ``'area'`` minimizes an area-flow estimate instead, trading delay for
    smaller netlists.
    """
    if objective not in ("delay", "area"):
        raise ValueError(f"unknown mapping objective {objective!r}")
    if cells is None:
        cells = default_library()
    index = _MatchIndex(cells)
    inv = next(c for c in cells if c.name == "INV")
    inv_delay = inv.delay(NOMINAL_LOAD_FF)
    cuts = enumerate_cuts(aig, k, max_cuts)

    arrival: Dict[Signal, float] = {}
    area_flow: Dict[Signal, float] = {}
    choice: Dict[Signal, _Choice] = {}
    for sig in ((0, False), (0, True)):
        arrival[sig] = 0.0
        area_flow[sig] = 0.0
        choice[sig] = _Choice("const")
    for pi in aig.pis:
        arrival[(pi, False)] = 0.0
        area_flow[(pi, False)] = 0.0
        choice[(pi, False)] = _Choice("pi")
        arrival[(pi, True)] = inv_delay
        area_flow[(pi, True)] = inv.area
        choice[(pi, True)] = _Choice(
            "cell", cell=inv, pin_signals=[(pi, False)]
        )

    def cost_of(sig_arrival: float, sig_area: float):
        if objective == "delay":
            return (sig_arrival, sig_area)
        return (sig_area, sig_arrival)

    fanout_est = [0] * aig.num_vars
    for v in aig.and_vars():
        g0, g1 = aig.fanins(v)
        fanout_est[lit_var(g0)] += 1
        fanout_est[lit_var(g1)] += 1
    for po in aig.pos:
        fanout_est[lit_var(po)] += 1

    for var in aig.and_vars():
        # best[neg] = (cost key, arrival, area_flow, choice)
        best = {False: None, True: None}

        def consider(neg, arr, flow, ch):
            key = cost_of(arr, flow)
            if best[neg] is None or key < best[neg][0]:
                best[neg] = (key, arr, flow, ch)

        # Guaranteed fallback: the node is an AND of its two fan-in
        # literals, realized as AND2 (positive) / NAND2 (negative) with
        # the fan-in phases taken directly.
        f0, f1 = aig.fanins(var)
        fanin_sigs = [
            (lit_var(f0), lit_neg(f0)),
            (lit_var(f1), lit_neg(f1)),
        ]
        fanin_arr = max(arrival[sig] for sig in fanin_sigs)
        fanin_flow = sum(area_flow[sig] for sig in fanin_sigs)
        shares = max(fanout_est[var], 1)
        for neg, cell_name in ((False, "AND2"), (True, "NAND2")):
            cell = next(c for c in cells if c.name == cell_name)
            arr = fanin_arr + cell.delay(NOMINAL_LOAD_FF)
            flow = (cell.area + fanin_flow) / shares
            consider(
                neg, arr, flow,
                _Choice("cell", cell=cell, pin_signals=list(fanin_sigs)),
            )
        for cut in cuts[var]:
            if not cut or cut == (var,):
                continue
            tt = cut_tt(aig, var, list(cut))
            tt_small, support = tt.shrink()
            leaves = [cut[i] for i in support]
            if not leaves:
                continue
            leaf_arr = [arrival[(leaf, False)] for leaf in leaves]
            leaf_flow = sum(area_flow[(leaf, False)] for leaf in leaves)
            for neg, func in ((False, tt_small), (True, ~tt_small)):
                for cell, leaf_of_pin in index.matches(func):
                    arr = max(leaf_arr) + cell.delay(NOMINAL_LOAD_FF)
                    flow = (cell.area + leaf_flow) / shares
                    pin_signals = [
                        (leaves[leaf_of_pin[j]], False)
                        for j in range(cell.num_inputs)
                    ]
                    consider(
                        neg, arr, flow,
                        _Choice(
                            "cell", cell=cell, pin_signals=pin_signals
                        ),
                    )
        # Bridge phases with inverters.
        for neg in (False, True):
            if best[not neg] is None:
                continue
            _key, o_arr, o_flow, _ch = best[not neg]
            consider(
                neg, o_arr + inv_delay, o_flow + inv.area,
                _Choice("cell", cell=inv, pin_signals=[(var, not neg)]),
            )
        for neg in (False, True):
            assert best[neg] is not None
            _key, arr, flow, ch = best[neg]
            arrival[(var, neg)] = arr
            area_flow[(var, neg)] = flow
            choice[(var, neg)] = ch

    # Cover extraction from the POs.
    po_signals: List[Signal] = [
        (lit_var(po), lit_neg(po)) for po in aig.pos
    ]
    gates: List[GateInstance] = []
    emitted = set()

    def emit(sig: Signal) -> None:
        if sig in emitted:
            return
        emitted.add(sig)
        ch = choice[sig]
        if ch.kind in ("pi", "const"):
            return
        for ps in ch.pin_signals:
            emit(ps)
        gates.append(GateInstance(ch.cell, sig, list(ch.pin_signals)))

    for sig in po_signals:
        if sig[0] == 0:
            continue  # constant outputs need no gates
        emit(sig)
    del emit  # free the self-referencing closure now, not at GC

    return MappedNetlist(aig, gates, po_signals, arrival)
