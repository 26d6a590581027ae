"""Technology-independent networks: DAGs of complex-function nodes.

This is the paper's intermediate representation ``T``: each internal node
carries an arbitrary local Boolean function (stored as a truth table over
its ordered fan-ins).  The lookahead algorithms simplify these local
functions in place, so nodes are mutable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..tt import TruthTable


class NetNode:
    """One network object: a PI or an internal complex-function node."""

    __slots__ = ("nid", "kind", "fanins", "tt", "name")

    def __init__(
        self,
        nid: int,
        kind: str,
        fanins: List[int],
        tt: Optional[TruthTable],
        name: str,
    ):
        self.nid = nid
        self.kind = kind  # 'pi' or 'node'
        self.fanins = fanins
        self.tt = tt
        self.name = name

    def __repr__(self) -> str:
        if self.kind == "pi":
            return f"NetNode(pi {self.name})"
        return f"NetNode({self.nid}, fanins={self.fanins})"


class Network:
    """A mutable technology-independent network."""

    def __init__(self) -> None:
        self.nodes: Dict[int, NetNode] = {}
        self.pis: List[int] = []
        self.pos: List[Tuple[int, bool]] = []  # (node id, complemented)
        self.po_names: List[str] = []
        self._next_id = 0

    # -- construction -----------------------------------------------------------

    def add_pi(self, name: Optional[str] = None) -> int:
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = NetNode(
            nid, "pi", [], None, name or f"pi{len(self.pis)}"
        )
        self.pis.append(nid)
        return nid

    def add_node(
        self, fanins: Sequence[int], tt: TruthTable, name: Optional[str] = None
    ) -> int:
        """Add an internal node computing ``tt`` over the ordered fan-ins."""
        if tt.nvars != len(fanins):
            raise ValueError("truth table width must match fan-in count")
        for f in fanins:
            if f not in self.nodes:
                raise ValueError(f"unknown fan-in {f}")
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = NetNode(
            nid, "node", list(fanins), tt, name or f"n{nid}"
        )
        return nid

    def add_const(self, value: bool) -> int:
        """Constant node (zero fan-ins)."""
        return self.add_node([], TruthTable.const(value, 0), name="const")

    def add_po(self, nid: int, neg: bool = False, name: Optional[str] = None) -> int:
        self.pos.append((nid, neg))
        self.po_names.append(name or f"po{len(self.pos) - 1}")
        return len(self.pos) - 1

    def set_function(self, nid: int, tt: TruthTable) -> None:
        """Replace a node's local function (same fan-ins)."""
        node = self.nodes[nid]
        if node.kind != "node":
            raise ValueError("cannot set the function of a PI")
        if tt.nvars != len(node.fanins):
            raise ValueError("truth table width must match fan-in count")
        node.tt = tt

    # -- traversal --------------------------------------------------------------

    def topo_order(self) -> List[int]:
        """All internal node ids in topological order (PIs excluded).

        Dangling nodes (e.g. freshly added window functions not yet driving
        a PO) are included so global-function models stay complete.
        """
        state: Dict[int, int] = {}
        order: List[int] = []
        roots = [nid for nid, n in self.nodes.items() if n.kind == "node"]
        for root in roots:
            stack = [root]
            while stack:
                nid = stack[-1]
                node = self.nodes[nid]
                if state.get(nid) == 2 or node.kind == "pi":
                    state[nid] = 2
                    stack.pop()
                    continue
                if state.get(nid) == 1:
                    state[nid] = 2
                    order.append(nid)
                    stack.pop()
                    continue
                state[nid] = 1
                for f in node.fanins:
                    if state.get(f, 0) == 0:
                        stack.append(f)
                    elif state.get(f) == 1:
                        raise ValueError("combinational cycle detected")
        return order

    def fanout_map(self) -> Dict[int, List[int]]:
        """Node id -> list of internal nodes reading it."""
        fanouts: Dict[int, List[int]] = {nid: [] for nid in self.nodes}
        for nid in self.topo_order():
            for f in self.nodes[nid].fanins:
                fanouts[f].append(nid)
        return fanouts

    def fanin_cone(self, roots: Iterable[int]) -> Set[int]:
        """All node ids (PIs included) in the transitive fan-in of roots."""
        seen: Set[int] = set()
        stack = list(roots)
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self.nodes[nid].fanins)
        return seen

    def num_internal(self) -> int:
        return sum(1 for n in self.nodes.values() if n.kind == "node")

    def node_fingerprints(self) -> Dict[int, int]:
        """Structural fingerprint of every node's global function.

        Two nodes (in the same or different networks) with equal
        fingerprints compute, up to hash collision, the same function of
        the same *positional* PIs — PIs are identified by their index in
        ``pis``, not by id or name, so fingerprints are comparable across
        networks that share a PI space (e.g. the primary and secondary
        nets of a care checker).  Only integers are hashed, keeping the
        values stable across processes regardless of ``PYTHONHASHSEED``.
        """
        fps: Dict[int, int] = {}
        for i, pi in enumerate(self.pis):
            fps[pi] = hash((0x9E3779B9, i))
        for nid in self.topo_order():
            fps[nid] = self.node_fingerprint(nid, fps)
        return fps

    def node_fingerprint(self, nid: int, fps: Dict[int, int]) -> int:
        """One internal node's fingerprint, from its fan-ins' in ``fps``.

        After ``set_function(nid, ...)``, re-hashing ``nid``'s transitive
        fanout in topological order brings :meth:`node_fingerprints`'
        result up to date.
        """
        node = self.nodes[nid]
        return hash(
            (node.tt.nvars, node.tt.bits) + tuple(fps[f] for f in node.fanins)
        )

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, assignment: Sequence[bool]) -> List[bool]:
        """Evaluate all POs on one input assignment (by PI order)."""
        values: Dict[int, bool] = {
            pi: bool(v) for pi, v in zip(self.pis, assignment)
        }
        for nid in self.topo_order():
            node = self.nodes[nid]
            values[nid] = node.tt.evaluate([values[f] for f in node.fanins])
        out = []
        for nid, neg in self.pos:
            v = values[nid]
            out.append((not v) if neg else v)
        return out

    def global_tts(self) -> Dict[int, TruthTable]:
        """Global function of every node over the PIs (small PI counts)."""
        n = len(self.pis)
        values: Dict[int, TruthTable] = {
            pi: TruthTable.var(i, n) for i, pi in enumerate(self.pis)
        }
        for nid in self.topo_order():
            node = self.nodes[nid]
            if not node.fanins:
                values[nid] = TruthTable.const(node.tt.is_const1, n)
            else:
                values[nid] = node.tt.compose([values[f] for f in node.fanins])
        return values

    def po_tts(self) -> List[TruthTable]:
        """Global PO functions over the PIs."""
        values = self.global_tts()
        out = []
        for nid, neg in self.pos:
            t = values[nid]
            out.append(~t if neg else t)
        return out

    def extract_po_cone(self, po_index: int) -> "Network":
        """Standalone copy of one PO's fan-in cone.

        The copy keeps the *full* PI list (order and count), so global
        function models and pattern words stay aligned with the parent
        network; internal ids are renumbered.
        """
        root, neg = self.pos[po_index]
        cone = self.fanin_cone([root])
        out = Network()
        id_map: Dict[int, int] = {}
        for pi in self.pis:
            id_map[pi] = out.add_pi(self.nodes[pi].name)
        for nid in self.topo_order():
            if nid not in cone:
                continue
            node = self.nodes[nid]
            id_map[nid] = out.add_node(
                [id_map[f] for f in node.fanins], node.tt, node.name
            )
        out.add_po(id_map[root], neg, self.po_names[po_index])
        return out

    def clone(self) -> "Network":
        """Deep copy (node functions are immutable and shared)."""
        dup = Network()
        dup._next_id = self._next_id
        for nid, node in self.nodes.items():
            dup.nodes[nid] = NetNode(
                node.nid, node.kind, list(node.fanins), node.tt, node.name
            )
        dup.pis = list(self.pis)
        dup.pos = list(self.pos)
        dup.po_names = list(self.po_names)
        return dup

    def __repr__(self) -> str:
        return (
            f"Network(pis={len(self.pis)}, pos={len(self.pos)}, "
            f"nodes={self.num_internal()})"
        )
