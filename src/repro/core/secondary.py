"""Secondary simplification: reducing the original cone under care !Σ1.

Cubes of a node's on/off minimum SOPs that are *unreachable* when Σ1 = 0
become don't-cares and the node function is re-minimized (the paper,
Sec. 3.1).  Unreachability is proved, never guessed: the exact model counts
minterms exactly; the signature model pre-filters with simulation and
confirms with a SAT query spanning the (Σ1-bearing) primary network and the
current secondary network, so correctness never rests on the estimator.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from .. import perf
from ..netlist import Network, compute_levels, min_sops, node_level
from ..netlist.encode import StrashTable, extend_encoding, topo_rank
from ..sat import Solver
from ..sop import Cube
from ..tt import TruthTable
from .model import ExactModel, SignatureModel
from .simplify import complete_function

MINTERM_GRANULARITY_LIMIT = 8
"""Node supports up to this size get minterm-granular don't-care checks."""

WITNESS_POOL_LIMIT = 1024
"""Max reachability witnesses harvested from SAT models per checker."""


class ExactCareChecker:
    """Unreachability by exact counting over global truth tables."""

    def __init__(self, model: ExactModel, care_fn):
        self.model = model
        self.care_fn = care_fn

    def refresh(self) -> None:
        self.model.recompute()

    def cube_unreachable(self, nid: int, cube: Cube) -> bool:
        cond = self.model.cube_condition(nid, cube)
        return self.model.count(self.model.conj([self.care_fn, cond])) == 0


class SatCareChecker:
    """Unreachability by simulation pre-filter + SAT proof.

    A cube is unreachable iff ``!Σ1 AND (fan-ins of j in cube)`` is UNSAT
    over the primary network (which contains the Σ1 node) and the
    *current* secondary network, sharing PIs.  One incremental
    :class:`Solver` session answers every query with one solve at
    :attr:`max_conflicts` that branches on the PIs only (see
    :meth:`_ensure_solver`); a query that exhausts the budget is solved
    once more, at the same budget, branching on every variable.

    An UNSAT answer is a proof and a SAT answer carries a *witness* (the
    model's PI assignment reaches the queried cube outside the window), so
    only a budget-exhausted query (UNKNOWN, treated as reachable) can
    depend on how the session searched.  Witnesses stay valid for the
    checker's whole lifetime — they satisfy !Σ1 against the primary
    network, which is never mutated during secondary simplification — so
    they are pooled and replayed through the *current* secondary network
    before later queries go to SAT.  On circuits whose window covers the
    random patterns (``care_sig == 0``, where the simulation pre-filter
    never fires) the pool removes almost every satisfiable SAT call.

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
        self._sec_vars: Dict[int, int] = {}
        self._pi_vars: List[int] = []
        self._sigma_var = 0
        self._witness_pis: List[List[bool]] = []
        self._wit_model: Optional[SignatureModel] = None
        # Topological ranks, computed once per network: ``set_function``
        # keeps the structure, so they outlive :meth:`refresh`.
        self._prim_rank: Optional[Dict[int, int]] = None
        self._sec_rank: Optional[Dict[int, int]] = None
        self._sigma_fp: Optional[int] = None
        self._sec_fps: Optional[Dict[int, int]] = None

    def refresh(self) -> None:
        """Invalidate the encoding after a secondary-network mutation."""
        self.sig_model.recompute()
        # The structural-hash table names the dropped solver's variables.
        self._solver = None
        self._strash = None
        self._sec_fps = None
        # Witness PI assignments survive (the primary net is immutable
        # here), but their node values must be re-derived from the
        # mutated secondary network.
        self._wit_model = None

    def _ensure_solver(self) -> Solver:
        """The session's solver, encoding Σ1's cone on first use.

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
        if self._solver is None:
            solver = Solver()
            self._strash = {}
            primary = self.primary_net
            if self._prim_rank is None:
                self._prim_rank = topo_rank(primary)
                self._sec_rank = topo_rank(self.secondary_net)
            self._pi_vars = [solver.new_var() for _ in primary.pis]
            solver.branch_on(self._pi_vars)
            prim_vars = dict(zip(primary.pis, self._pi_vars))
            extend_encoding(
                solver, primary, [self.sigma_nid], prim_vars,
                self._prim_rank, self._strash,
            )
            self._sigma_var = prim_vars[self.sigma_nid]
            self._sec_vars = dict(zip(self.secondary_net.pis, self._pi_vars))
            self._solver = solver
        return self._solver

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

    # -- witness pool ------------------------------------------------------

    def _witness_model(self) -> Optional[SignatureModel]:
        """Witness node values over the current secondary network."""
        if not self._witness_pis:
            return None
        if (
            self._wit_model is None
            or self._wit_model.width != len(self._witness_pis)
        ):
            width = len(self._witness_pis)
            pi_words = []
            for i in range(len(self.secondary_net.pis)):
                word = 0
                for w, assignment in enumerate(self._witness_pis):
                    if assignment[i]:
                        word |= 1 << w
                pi_words.append(word)
            self._wit_model = SignatureModel(
                self.secondary_net, pi_words, width
            )
        return self._wit_model

    def _harvest_witness(self) -> None:
        """Pool the session's SAT model's PI assignment as a witness."""
        if len(self._witness_pis) >= WITNESS_POOL_LIMIT:
            return
        solver = self._solver
        assignment = [bool(solver.model_value(sv)) for sv in self._pi_vars]
        self._witness_pis.append(assignment)
        if self._wit_model is not None:
            self._extend_witness_model(assignment)

    def _extend_witness_model(self, assignment: List[bool]) -> None:
        """Append one witness column to the packed model in place.

        Cheaper than a full rebuild per harvest: one scalar evaluation
        pass through the secondary network, OR-ing the new bit into every
        node's packed word.  Constant nodes need the pass too — their
        packed words were built against the old (narrower) mask.
        """
        wm = self._wit_model
        bit = 1 << wm.width
        wm.width += 1
        wm.mask = (wm.mask << 1) | 1
        vals: Dict[int, bool] = {}
        for i, (pi, v) in enumerate(
            zip(self.secondary_net.pis, assignment)
        ):
            vals[pi] = v
            if v:
                wm.pi_words[i] |= bit
                wm.fns[pi] |= bit
        for nid in self._sec_rank:  # keys in topological order
            node = self.secondary_net.nodes[nid]
            m = 0
            for j, f in enumerate(node.fanins):
                if vals[f]:
                    m |= 1 << j
            v = bool(node.tt.value(m))
            vals[nid] = v
            if v:
                wm.fns[nid] |= bit

    def cube_unreachable(self, nid: int, cube: Cube) -> bool:
        # Fast path: any care-set simulation pattern inside the cube proves
        # reachability without SAT.
        cond = self.sig_model.cube_condition(nid, cube)
        if self.care_sig & cond:
            return False
        # Second fast path: a pooled witness inside the cube is a known
        # !Σ1 assignment, i.e. a reachability proof without the solver.
        wit = self._witness_model()
        if wit is not None and wit.cube_condition(nid, cube):
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
            solver.branch_on(None)
            result = solver.solve(
                assumptions, max_conflicts=self.max_conflicts, keep_prefix=1
            )
            solver.branch_on(self._pi_vars)
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
    after every mutation, so each proof is against the current network.
    """
    root, _neg = net.pos[po_index]
    cone = net.fanin_cone([root])
    levels = compute_levels(net)
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
        checker.refresh()
        levels = compute_levels(net)
    return changed
