"""The unified timing engine: arrivals, required times, slack, criticality.

One engine per subject — :class:`AigTimingEngine` for AIGs,
:class:`NetworkTimingEngine` for technology-independent networks,
:class:`MappedTimingEngine` for mapped netlists — all sharing the
:class:`TimingEngine` query API (``arrival`` / ``required`` / ``slack`` /
``depth`` / critical sets) and a pluggable :class:`~repro.timing.delay.
DelayModel`.

Analysis is *incremental*: engines cache arrival times and recompute only
what a structural edit dirtied.  AIGs are append-only, so extension is the
incremental case (new variables get arrivals without re-walking the old
prefix); networks mutate in place, so :meth:`NetworkTimingEngine.
invalidate` dirties a node and the recompute pass re-evaluates only the
dirty set, its transitive fanout, and nodes added since the last pass.
Per-phase counters (``timing.*``) land in the :mod:`repro.perf` registry
and surface under ``repro optimize --profile``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

# Submodule import (not the package) so the aig package's own facade can
# import this module during its initialization without a cycle.
from .. import perf
from ..aig.aig import AIG, lit_var
from .delay import DelayModel, Number, UnitDelay

INF = float("inf")


class TimingEngine:
    """Common query API over a timed subject.

    Subclasses own the forward (arrival) and backward (required) passes;
    this base provides the derived quantities.  ``target`` defaults to the
    subject's own depth, so slack 0 marks nodes on a longest path.
    """

    model: DelayModel

    # -- forward ----------------------------------------------------------

    def arrival(self, node) -> Number:
        raise NotImplementedError

    def depth(self) -> Number:
        raise NotImplementedError

    # -- backward ---------------------------------------------------------

    def required(self, node, target: Optional[Number] = None) -> Number:
        raise NotImplementedError

    def slack(self, node, target: Optional[Number] = None) -> Number:
        """Required minus arrival; 0 on a critical path, INF if unused."""
        return self.required(node, target) - self.arrival(node)


class AigTimingEngine(TimingEngine):
    """Arrival/required/slack analysis of an AIG under a delay model.

    The AIG is append-only, so the engine syncs lazily: a query first
    extends the cached arrival array over any variables created since the
    last sync (counted as ``timing.recompute.incremental``), falling back
    to a full pass only on first use or when the model is fanout-sensitive
    (fanouts of old nodes change as new readers appear).  Under a
    fanout-blind model an arrival already computed is final, so
    :meth:`arrival` answers it without syncing.
    """

    def __init__(self, aig: AIG, model: Optional[DelayModel] = None):
        self.aig = aig
        self.model = model if model is not None else UnitDelay()
        self._arr: List[Number] = []
        self._gate_delay: List[Number] = []
        #: Whether the model reads fanout counts, so that appending a
        #: reader can move an arrival already computed.
        self.fanout_sensitive = (
            self.model.gate_delay(1) != self.model.gate_delay(2)
        )

    # -- forward pass ------------------------------------------------------

    def _pi_arrivals(self) -> Dict[int, Number]:
        return {
            var: self.model.pi_arrival(i, name)
            for i, (var, name) in enumerate(
                zip(self.aig.pis, self.aig.pi_names)
            )
        }

    def _fanouts(self) -> List[int]:
        counts = [0] * self.aig.num_vars
        for var in self.aig.and_vars():
            f0, f1 = self.aig.fanins(var)
            counts[lit_var(f0)] += 1
            counts[lit_var(f1)] += 1
        for po in self.aig.pos:
            counts[lit_var(po)] += 1
        return counts

    def _sync(self) -> None:
        n = self.aig.num_vars
        start = len(self._arr)
        if start == n:
            return
        fanouts = None
        if start == 0 or self.fanout_sensitive:
            # Full pass: first use, or the model reads fanout counts that
            # appended readers may have changed for old variables.
            perf.incr("timing.recompute.full")
            start = 0
            if self.fanout_sensitive:
                fanouts = self._fanouts()
            self._arr = []
            self._gate_delay = []
        else:
            # Incremental extension over the appended suffix only.
            perf.incr("timing.recompute.incremental")
        aig = self.aig
        fanin0, fanin1, is_pi = aig._fanin0, aig._fanin1, aig._is_pi
        arr, gate_delay = self._arr, self._gate_delay
        unit = self.model.gate_delay(1)
        pi_arr = None
        for var in range(start, n):
            if is_pi[var]:
                if pi_arr is None:
                    pi_arr = self._pi_arrivals()
                arr.append(pi_arr[var])
                gate_delay.append(0)
            elif var:
                d = unit if fanouts is None else self.model.gate_delay(
                    fanouts[var]
                )
                gate_delay.append(d)
                a0 = arr[fanin0[var] >> 1]
                a1 = arr[fanin1[var] >> 1]
                arr.append(d + (a1 if a1 > a0 else a0))
            else:
                arr.append(0)
                gate_delay.append(0)
        perf.incr("timing.nodes.recomputed", n - start)

    def invalidate(self) -> None:
        """Drop all cached analysis (next query recomputes from scratch)."""
        self._arr = []
        self._gate_delay = []

    # -- queries -----------------------------------------------------------

    def arrivals(self) -> List[Number]:
        """Arrival time of every variable (shared list; do not mutate)."""
        self._sync()
        return self._arr

    def arrival(self, var: int) -> Number:
        # Appending never changes a computed arrival unless the model
        # reads fanout counts, so a settled one needs no sync.
        if var < len(self._arr) and not self.fanout_sensitive:
            return self._arr[var]
        self._sync()
        return self._arr[var]

    def po_arrivals(self) -> List[Number]:
        arr = self.arrivals()
        return [arr[lit_var(po)] for po in self.aig.pos]

    def depth(self) -> Number:
        if not self.aig.pos:
            return 0
        return max(self.po_arrivals())

    def required_times(
        self, target: Optional[Number] = None
    ) -> List[Number]:
        """Required time of every variable against ``target`` (INF unused)."""
        self._sync()
        if target is None:
            target = self.depth()
        req: List[Number] = [INF] * self.aig.num_vars
        for po in self.aig.pos:
            var = lit_var(po)
            req[var] = min(req[var], float(target))
        for var in reversed(list(self.aig.and_vars())):
            if req[var] == INF:
                continue
            f0, f1 = self.aig.fanins(var)
            slack_time = req[var] - self._gate_delay[var]
            for fi in (f0, f1):
                fv = lit_var(fi)
                req[fv] = min(req[fv], slack_time)
        return req

    def required(self, var: int, target: Optional[Number] = None) -> Number:
        return self.required_times(target)[var]

    # -- criticality -------------------------------------------------------

    def critical_vars(self) -> Set[int]:
        """Variables with zero slack (on some maximal-arrival path)."""
        arr = self.arrivals()
        req = self.required_times()
        return {
            var
            for var in range(self.aig.num_vars)
            if req[var] != INF and arr[var] == req[var]
        }

    def critical_pis(self) -> Set[int]:
        crit = self.critical_vars()
        return {var for var in crit if self.aig.is_pi(var)}

    def critical_pos(self) -> List[int]:
        """PO indices whose arrival equals the circuit depth."""
        arr = self.arrivals()
        d = self.depth()
        return [
            i for i, po in enumerate(self.aig.pos) if arr[lit_var(po)] == d
        ]

    def critical_path(self) -> List[int]:
        """One maximal-arrival path as variables from a PI to a PO."""
        arr = self.arrivals()
        d = self.depth()
        start = None
        for po in self.aig.pos:
            if arr[lit_var(po)] == d:
                start = lit_var(po)
                break
        if start is None:
            return []
        path = [start]
        var = start
        while self.aig.is_and(var):
            f0, f1 = self.aig.fanins(var)
            v0, v1 = lit_var(f0), lit_var(f1)
            var = v0 if arr[v0] >= arr[v1] else v1
            path.append(var)
        path.reverse()
        return path

    def slack_histogram(self) -> Dict[int, int]:
        """Count of AND nodes per integer slack value (diagnostics)."""
        arr = self.arrivals()
        req = self.required_times()
        hist: Dict[int, int] = {}
        for var in self.aig.and_vars():
            if req[var] == INF:
                continue
            s = int(req[var] - arr[var])
            hist[s] = hist.get(s, 0) + 1
        return hist


class NetworkTimingEngine(TimingEngine):
    """Level analysis of a technology-independent network.

    Node levels follow the paper's SOP model (:func:`repro.netlist.levels.
    node_level`), seeded with the delay model's PI arrivals.  The network
    mutates in place, so edits must be declared through :meth:`invalidate`;
    the next query then re-evaluates only the dirty nodes, their transitive
    fanout, and any nodes added since the last pass — ``node_level`` (an
    SOP minimization per node) is the expensive step this avoids.

    Required times use an additive per-node delay (the node's level minus
    its latest fanin, the collapsed-DAG STA view); exact required times are
    not well defined under the non-additive SOP tree model.
    """

    def __init__(self, net, model: Optional[DelayModel] = None):
        self.net = net
        self.model = model if model is not None else UnitDelay()
        self._levels: Dict[int, Number] = {}
        self._dirty: Set[int] = set()
        self._ever_synced = False

    def invalidate(self, nids: Union[int, Sequence[int]]) -> None:
        """Mark nodes whose local function or fanins changed."""
        if isinstance(nids, int):
            nids = [nids]
        self._dirty.update(nids)

    def _sync(self) -> None:
        net = self.net
        known = self._levels
        order = net.topo_order()
        if self._ever_synced and not self._dirty and all(
            nid in known for nid in order
        ):
            return
        from ..netlist.levels import node_level

        perf.incr(
            "timing.net.incremental" if self._ever_synced
            else "timing.net.full"
        )
        for i, pi in enumerate(net.pis):
            known[pi] = self.model.pi_arrival(i, net.nodes[pi].name)
        changed: Set[int] = set(self._dirty)
        recomputed = 0
        for nid in order:
            node = net.nodes[nid]
            stale = (
                nid not in known
                or nid in self._dirty
                or any(f in changed for f in node.fanins)
            )
            if not stale:
                continue
            fl = [known[f] for f in node.fanins]
            value = node_level(node.tt, fl)
            recomputed += 1
            if known.get(nid) != value:
                changed.add(nid)
            known[nid] = value
        perf.incr("timing.nodes.recomputed", recomputed)
        self._dirty.clear()
        self._ever_synced = True

    # -- queries -----------------------------------------------------------

    def levels(self) -> Dict[int, Number]:
        """Level of every node, PIs included (shared dict; do not mutate)."""
        self._sync()
        return self._levels

    def arrival(self, nid: int) -> Number:
        self._sync()
        return self._levels[nid]

    def po_arrival(self, po_index: int) -> Number:
        nid, _neg = self.net.pos[po_index]
        return self.arrival(nid)

    def depth(self) -> Number:
        self._sync()
        if not self.net.pos:
            return 0
        return max(self._levels[nid] for nid, _neg in self.net.pos)

    def required_times(
        self, target: Optional[Number] = None
    ) -> Dict[int, Number]:
        self._sync()
        if target is None:
            target = self.depth()
        req: Dict[int, Number] = {nid: INF for nid in self.net.nodes}
        for nid, _neg in self.net.pos:
            req[nid] = min(req[nid], target)
        for nid in reversed(self.net.topo_order()):
            if req[nid] == INF:
                continue
            node = self.net.nodes[nid]
            if not node.fanins:
                continue
            latest = max(self._levels[f] for f in node.fanins)
            delay = self._levels[nid] - latest
            for f in node.fanins:
                req[f] = min(req[f], req[nid] - delay)
        return req

    def required(self, nid: int, target: Optional[Number] = None) -> Number:
        return self.required_times(target)[nid]

    def critical_nodes(self) -> Set[int]:
        """Nodes with zero slack under the additive required-time view."""
        self._sync()
        req = self.required_times()
        return {
            nid
            for nid in self.net.nodes
            if req[nid] != INF and self._levels[nid] == req[nid]
        }


class MappedTimingEngine(TimingEngine):
    """Load-aware STA over a mapped netlist (the Table 2 delay metric).

    Arrivals come from :func:`repro.mapping.sta.analyze`; required times
    run the same gate delays backward from the POs, giving the mapper and
    reporting layers one shared required-time/slack interface.
    """

    def __init__(self, netlist, target: Optional[float] = None):
        from ..mapping.sta import analyze, signal_loads
        from ..mapping.library import NOMINAL_LOAD_FF

        self.netlist = netlist
        self.model = UnitDelay()  # gate delays come from cells, not a model
        worst, arrival = analyze(netlist)
        self._arrival = arrival
        self._worst = worst
        self._loads = signal_loads(netlist)
        self._nominal = NOMINAL_LOAD_FF
        self._target = worst if target is None else target
        self._required: Optional[Dict] = None

    def arrival(self, signal) -> float:
        return self._arrival.get(signal, 0.0)

    def depth(self) -> float:
        return self._worst

    def required_times(
        self, target: Optional[float] = None
    ) -> Dict:
        if target is None:
            target = self._target
        if self._required is not None and target == self._target:
            return self._required
        req: Dict = {}
        for sig in self.netlist.po_signals:
            req[sig] = min(req.get(sig, INF), target)
        for gate in reversed(self.netlist.gates):
            r = req.get(gate.output, INF)
            if r == INF:
                continue
            load = self._loads.get(gate.output, self._nominal)
            launch = r - gate.cell.delay(load)
            for sig in gate.inputs:
                req[sig] = min(req.get(sig, INF), launch)
        if target == self._target:
            self._required = req
        return req

    def required(self, signal, target: Optional[float] = None) -> float:
        return self.required_times(target).get(signal, INF)

    def worst_slack(self, target: Optional[float] = None) -> float:
        """Minimum slack over the PO signals (0 when target is the depth)."""
        req = self.required_times(target)
        return min(
            (
                req.get(sig, INF) - self.arrival(sig)
                for sig in self.netlist.po_signals
            ),
            default=0.0,
        )

    def critical_signals(self, tol: float = 1e-9) -> Set:
        """Signals whose slack is within ``tol`` of zero."""
        req = self.required_times()
        return {
            sig
            for sig, r in req.items()
            if r != INF and abs(r - self.arrival(sig)) <= tol
        }
