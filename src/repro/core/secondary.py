"""Secondary simplification: reducing the original cone under care !Σ1.

Cubes of a node's on/off minimum SOPs that are *unreachable* when Σ1 = 0
become don't-cares and the node function is re-minimized (the paper,
Sec. 3.1).  Unreachability is proved, never guessed: the exact models test
the care condition for emptiness; the signature model pre-filters with
simulation and confirms with a SAT query spanning the (Σ1-bearing) primary
network and the current secondary network, so correctness never rests on
the estimator.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import perf
from ..netlist import Network, min_sops
from ..netlist.encode import StrashTable, extend_encoding, topo_rank
from ..sat import Solver
from ..sop import Cube
from ..timing import NetworkTimingEngine
from ..tt import TruthTable
from .model import ExactModel, SignatureModel, eval_words
from .simplify import complete_function

MINTERM_GRANULARITY_LIMIT = 8
"""Node supports up to this size get minterm-granular don't-care checks."""

WITNESS_POOL_LIMIT = 1024
"""Max reachability witnesses harvested from SAT models per checker."""


class ExactCareChecker:
    """Unreachability by exact emptiness tests on global functions.

    The model is an :class:`ExactModel` or a ``BddModel``.  A cube is
    unreachable iff the conjunction of the care function and the fan-in
    literals is empty; ``conj_is_zero`` decides that without counting a
    minterm, and on BDDs without building the conjunction.
    """

    def __init__(self, model: ExactModel, care_fn):
        self.model = model
        self.care_fn = care_fn

    def refresh(self, nid: int) -> None:
        """Recompute the model after ``set_function(nid, ...)``.

        The whole model is recomputed; ``nid`` is accepted so both
        checkers share one refresh path.
        """
        self.model.recompute()

    def cube_unreachable(self, nid: int, cube: Cube) -> bool:
        perf.incr("secondary.exact.calls")
        model = self.model
        if model.conj_is_zero([self.care_fn, *model.cube_literals(nid, cube)]):
            perf.incr("secondary.exact.unreachable")
            return True
        return False


class WitnessPool:
    """Pooled reachability witnesses and their values on a network.

    A witness is a PI assignment; the pool keeps one word per node whose
    bit ``w`` is the node's value under witness ``w``.  Node words are
    filled lazily: :meth:`condition` evaluates, bit-parallel over every
    witness, only the part of the fan-in cones it reads that holds no
    word yet.  A new witness drops every node word (each needs one more
    bit), and :meth:`invalidate` drops the words of mutated nodes; PI
    words always hold every witness.
    """

    def __init__(self, net: Network, rank: Dict[int, int]):
        self.net = net
        self.rank = rank
        self.size = 0
        self.words: Dict[int, int] = {pi: 0 for pi in net.pis}

    def add(self, assignment: Sequence[bool]) -> None:
        """Pool one witness (a value per PI, in ``net.pis`` order)."""
        bit = 1 << self.size
        self.size += 1
        words = self.words
        self.words = {
            pi: (words[pi] | bit) if value else words[pi]
            for pi, value in zip(self.net.pis, assignment)
        }

    def invalidate(self, nids: Iterable[int]) -> None:
        """Drop the words of nodes whose global function changed."""
        words = self.words
        for nid in nids:
            words.pop(nid, None)

    def condition(self, nid: int, cube: Cube) -> int:
        """Witnesses under which ``nid``'s fan-ins lie inside ``cube``."""
        fanins = self.net.nodes[nid].fanins
        literals = list(cube.literals())
        self._fill([fanins[var] for var, _ in literals])
        words = self.words
        mask = (1 << self.size) - 1
        out = mask
        for var, pol in literals:
            word = words[fanins[var]]
            out &= word if pol else word ^ mask
            if not out:
                break
        return out

    def _fill(self, roots: List[int]) -> None:
        """Give every node in the fan-in cones of ``roots`` its word."""
        words = self.words
        nodes = self.net.nodes
        stale = set()
        stack = list(roots)
        while stack:
            nid = stack.pop()
            if nid in words or nid in stale:
                continue
            stale.add(nid)
            stack.extend(nodes[nid].fanins)
        mask = (1 << self.size) - 1
        for nid in sorted(stale, key=self.rank.__getitem__):
            node = nodes[nid]
            words[nid] = eval_words(
                node.tt, [words[f] for f in node.fanins], mask
            )


class SatCareChecker:
    """Unreachability by simulation pre-filter + SAT proof.

    A cube is unreachable iff ``!Σ1 AND (fan-ins of j in cube)`` is UNSAT
    over the primary network (which contains the Σ1 node) and the
    *current* secondary network, sharing PIs.  One incremental
    :class:`Solver` session answers every query with one solve at
    :attr:`max_conflicts` that branches on the PIs only (see
    :meth:`_encode_sigma_cone`); a query that exhausts the budget is
    solved once more, at the same budget, branching on every variable.

    An UNSAT answer is a proof and a SAT answer carries a *witness* (the
    model's PI assignment reaches the queried cube outside the window), so
    only a budget-exhausted query (UNKNOWN, treated as reachable) can
    depend on how the session searched.  Witnesses stay valid for the
    checker's whole lifetime — they satisfy !Σ1 against the primary
    network, which is never mutated during secondary simplification — so
    they are pooled (:class:`WitnessPool`) and replayed through the
    *current* secondary network before later queries go to SAT.  On
    circuits whose window covers the random patterns (``care_sig == 0``,
    where the simulation pre-filter never fires) the pool removes almost
    every satisfiable SAT call.

    Proofs are memoized: the :meth:`_query_key` of every proved query
    goes into a set the checker owns and keeps across :meth:`refresh`, so
    its verdicts depend on its own query stream alone.
    """

    max_conflicts = 200
    """Conflict budget of one query; UNKNOWN counts as reachable."""

    def __init__(
        self,
        sig_model: SignatureModel,
        care_sig: int,
        primary_net: Network,
        sigma_nid: int,
        secondary_net: Network,
    ):
        self.sig_model = sig_model
        self.care_sig = care_sig
        self.primary_net = primary_net
        self.sigma_nid = sigma_nid
        self.secondary_net = secondary_net
        self._proved: Set[Tuple] = set()
        self._solver: Optional[Solver] = None
        self._strash: Optional[StrashTable] = None
        # The session right after Σ1's cone is encoded, before any solve:
        # every session of this checker starts from a copy of it.
        self._base: Optional[Tuple[Solver, StrashTable]] = None
        self._sec_vars: Dict[int, int] = {}
        self._pi_vars: List[int] = []
        self._sigma_var = 0
        # ``set_function`` keeps the structure, so the secondary network's
        # topological rank and fanouts hold for the checker's lifetime.
        self._sec_rank = topo_rank(secondary_net)
        self._sec_fanouts: Optional[Dict[int, List[int]]] = None
        self._witnesses = WitnessPool(secondary_net, self._sec_rank)
        self._sigma_fp: Optional[int] = None
        self._sec_fps: Optional[Dict[int, int]] = None

    def refresh(self, nid: int) -> None:
        """Update the state after ``set_function(nid, ...)``.

        Only ``nid``'s transitive fanout changes its global function.  Its
        signature words and query fingerprints are re-evaluated in place,
        its witness words are dropped (the next lookup refills the ones it
        reads), and the session restarts from Σ1's snapshot at the next
        query past the fast paths: the secondary encoding names the old
        functions.
        """
        cone = self._fanout_cone(nid)
        perf.incr("secondary.refresh.nodes", len(cone))
        self.sig_model.update(cone)
        fps = self._sec_fps
        if fps is not None:
            net = self.secondary_net
            for n in cone:
                fps[n] = net.node_fingerprint(n, fps)
        self._witnesses.invalidate(cone)
        self._solver = None
        self._strash = None

    def _fanout_cone(self, nid: int) -> List[int]:
        """``nid`` and its transitive fanout, in topological order."""
        if self._sec_fanouts is None:
            self._sec_fanouts = self.secondary_net.fanout_map()
        fanouts = self._sec_fanouts
        cone = {nid}
        stack = [nid]
        while stack:
            for out in fanouts[stack.pop()]:
                if out not in cone:
                    cone.add(out)
                    stack.append(out)
        return sorted(cone, key=self._sec_rank.__getitem__)

    def _ensure_solver(self) -> Solver:
        """The session's solver: a copy of Σ1's snapshot, made on first use.

        The first session of the checker encodes Σ1's cone
        (:meth:`_encode_sigma_cone`) and keeps that state as the
        snapshot; every later session restarts from a copy of it, so it
        begins exactly as a freshly encoded one, with no clause, learned
        fact or heuristic state of the sessions before it.
        """
        if self._solver is None:
            if self._base is None:
                self._base = self._encode_sigma_cone()
                perf.incr("secondary.session.built")
            else:
                perf.incr("secondary.session.restored")
            solver, strash = self._base
            self._solver = solver.copy()
            self._strash = dict(strash)
            self._sec_vars = dict(zip(self.secondary_net.pis, self._pi_vars))
        return self._solver

    def _encode_sigma_cone(self) -> Tuple[Solver, StrashTable]:
        """A new solver holding Σ1's cone, and its structural-hash table.

        Also sets the PI and Σ1 variables, which every copy shares.

        Only Σ1's cone of the primary network is encoded: the query only
        constrains Σ1, and a SAT answer is a *total* assignment of every
        encoded variable, so nodes outside the cone are pure propagation
        cost.  The secondary network starts *empty* (PIs only) and grows
        lazily, one queried cube cone at a time (see
        :meth:`_require_sec_cone`) — the median query constrains a few
        dozen of its hundreds of nodes.

        Both encodings share one structural-hash table: the secondary
        network is a copy of the original network Σ1's cone was built
        on, so most secondary nodes reuse a primary node's variable.

        The solver branches only on the PI variables: every other
        variable is a Tseitin gate or cube variable that unit propagation
        fixes once the PIs are set, so the restricted search is complete
        and its SAT models are PI assignments the witness pool replays.
        """
        solver = Solver()
        strash: StrashTable = {}
        primary = self.primary_net
        self._pi_vars = [solver.new_var() for _ in primary.pis]
        solver.branch_on(self._pi_vars)
        prim_vars = dict(zip(primary.pis, self._pi_vars))
        extend_encoding(
            solver, primary, [self.sigma_nid], prim_vars,
            topo_rank(primary), strash,
        )
        self._sigma_var = prim_vars[self.sigma_nid]
        return solver, strash

    def _require_sec_cone(self, roots: List[int]) -> None:
        """Lazily encode the fan-in cones of ``roots`` into the session.

        A query's verdict depends only on Σ1's cone and the constrained
        fan-ins' cones; an UNSAT answer over the encoded subset implies
        UNSAT of the full encoding (more clauses only constrain further),
        and a SAT model's PI assignment is a genuine witness because every
        constrained variable is encoded down to the PIs.  Keeping the
        rest of the secondary network out of the CNF keeps the solver's
        total assignments — the dominant propagation cost — proportional
        to what the queries actually touched.

        The encoded set is closed under fan-in, so the extension walks
        only the cones' new nodes and emits them in the network's
        topological rank: the clause stream of a whole-network
        :func:`encode_network` walk, minus the nodes the structural-hash
        table merges.
        """
        if all(r in self._sec_vars for r in roots):
            return
        self._solver.reset()  # clauses may only be added at level 0
        extend_encoding(
            self._solver, self.secondary_net, roots, self._sec_vars,
            self._sec_rank, self._strash,
        )

    def _query_key(self, nid: int, cube: Cube) -> Tuple:
        """Memo key: everything the query's verdict depends on.

        The verdict of ``!Σ1 AND (fan-ins of nid in cube)`` is a function
        of Σ1's global function and the constrained fan-ins' global
        functions over the shared positional PI space — captured by
        structural fingerprints, so hits transfer across mutations of
        other nodes.
        """
        if self._sigma_fp is None:
            self._sigma_fp = self.primary_net.node_fingerprints()[
                self.sigma_nid
            ]
        if self._sec_fps is None:
            self._sec_fps = self.secondary_net.node_fingerprints()
        fanins = self.secondary_net.nodes[nid].fanins
        lits = tuple(
            sorted(
                (self._sec_fps[fanins[var]], pol)
                for var, pol in cube.literals()
            )
        )
        return (self._sigma_fp, lits)

    def _harvest_witness(self) -> None:
        """Pool the session's SAT model's PI assignment as a witness."""
        if self._witnesses.size >= WITNESS_POOL_LIMIT:
            return
        solver = self._solver
        self._witnesses.add(
            [bool(solver.model_value(sv)) for sv in self._pi_vars]
        )

    def cube_unreachable(self, nid: int, cube: Cube) -> bool:
        # Fast path: any care-set simulation pattern inside the cube proves
        # reachability without SAT.
        cond = self.sig_model.cube_condition(nid, cube)
        if self.care_sig & cond:
            return False
        # Second fast path: a pooled witness inside the cube is a known
        # !Σ1 assignment, i.e. a reachability proof without the solver.
        if self._witnesses.size and self._witnesses.condition(nid, cube):
            perf.incr("secondary.witness.hit")
            return False
        key = self._query_key(nid, cube)
        if key in self._proved:
            perf.incr("secondary.memo.hit")
            return True
        solver = self._ensure_solver()
        node = self.secondary_net.nodes[nid]
        roots = [node.fanins[var] for var, _ in cube.literals()]
        self._require_sec_cone(roots)
        assumptions = [-self._sigma_var]
        for var, pol in cube.literals():
            sv = self._sec_vars[node.fanins[var]]
            assumptions.append(sv if pol else -sv)
        # Budgeted query: unknown is treated as reachable (no drop), which
        # is always safe.  ``keep_prefix=1`` keeps the propagated ``!Σ1``
        # decision level alive between queries — on propagation-bound
        # workloads re-deriving that prefix dominates the per-query cost.
        perf.incr("secondary.sat.calls")
        props, conflicts = solver.num_propagations, solver.num_conflicts
        start = time.perf_counter()
        result = solver.solve(
            assumptions, max_conflicts=self.max_conflicts, keep_prefix=1
        )
        if result is None:
            # The PI-only search can run out where branching on every
            # variable answers; without this retry, UNKNOWN verdicts and
            # outputs move on dalu, C880, C3540 and lsu_stb_ctl_flat.
            perf.incr("secondary.sat.widened")
            retry_props = solver.num_propagations
            solver.branch_on(None)
            result = solver.solve(
                assumptions, max_conflicts=self.max_conflicts, keep_prefix=1
            )
            solver.branch_on(self._pi_vars)
            perf.incr(
                "secondary.sat.widened.propagations",
                solver.num_propagations - retry_props,
            )
            if result is None:
                perf.incr("secondary.sat.widened.unknown")
        perf.observe("sat.query.secondary", time.perf_counter() - start)
        perf.incr(
            "secondary.sat.propagations", solver.num_propagations - props
        )
        perf.incr("secondary.sat.conflicts", solver.num_conflicts - conflicts)
        if result is True:
            self._harvest_witness()
        elif result is False:
            self._proved.add(key)
        else:
            perf.incr("secondary.sat.unknown")
        return result is False


def secondary_simplify(
    net: Network, po_index: int, checker, max_nodes: Optional[int] = None
) -> int:
    """Drop care-unreachable cubes of every node in the output's cone.

    Mutates ``net``; returns the number of nodes whose function changed.
    Nodes are processed in topological order and the checker is refreshed
    with every mutated node, so each proof is against the current network.
    ``set_function`` keeps the structure, so the order is computed once
    and one timing engine re-evaluates only the mutated nodes' fanout.
    """
    root, _neg = net.pos[po_index]
    cone = net.fanin_cone([root])
    timing = NetworkTimingEngine(net)
    levels = timing.levels()
    changed = 0
    for nid in net.topo_order():
        if nid not in cone:
            continue
        if max_nodes is not None and changed >= max_nodes:
            break
        node = net.nodes[nid]
        tt = node.tt
        if tt.is_const0 or tt.is_const1 or not node.fanins:
            continue
        dc = TruthTable.const(False, tt.nvars)
        if tt.nvars <= MINTERM_GRANULARITY_LIMIT:
            # Minterm-granular don't-cares: an input vector of the node that
            # no care minterm can produce is free, even when the prime cube
            # containing it is partially reachable.
            for m in range(1 << tt.nvars):
                cube = Cube.from_minterm(m, tt.nvars)
                if checker.cube_unreachable(nid, cube):
                    dc |= cube.to_tt()
        else:
            on_cover, off_cover = min_sops(tt)
            for cube in list(on_cover) + list(off_cover):
                if checker.cube_unreachable(nid, cube):
                    dc |= cube.to_tt()
        if dc.is_const0:
            continue
        fanin_levels = [levels[f] for f in node.fanins]
        on_req = tt & ~dc
        new_tt = complete_function(on_req, dc, fanin_levels)
        if new_tt == tt:
            continue
        net.set_function(nid, new_tt)
        changed += 1
        checker.refresh(nid)
        timing.invalidate(nid)
        levels = timing.levels()
    return changed
