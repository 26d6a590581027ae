"""CNF encoding of technology-independent networks.

Each node's on-set minimum SOP is Tseitin-encoded (one auxiliary variable
per cube).  Used by the secondary simplification's exact cube-reachability
checks on circuits too large for global truth tables.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sat import Solver
from .levels import min_sops
from .network import Network

StrashTable = Dict[Tuple[int, Tuple[int, ...]], int]
"""Structural hash of encoded nodes: (truth-table bits, fan-in solver
variables) -> the node's solver variable.  The truth table's width is
the number of fan-in variables."""


def encode_network(
    solver: Solver,
    net: Network,
    pi_vars: Optional[Sequence[int]] = None,
    roots: Optional[Iterable[int]] = None,
    var_of: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """Encode the network into ``solver``; returns node id -> solver var.

    ``pi_vars`` allows sharing PI variables across multiple encodings (for
    care-set checks spanning two networks).  ``roots`` restricts the
    encoding to the transitive fan-in cones of the given nodes; every PI
    still gets a variable, but nodes outside the cones get neither a
    variable nor clauses — keeping total assignments (and thus SAT-side
    propagation cost) proportional to the queried cone, not the network.

    ``var_of`` extends an existing encoding in place: nodes already in
    the map are assumed encoded, with their fan-ins, and skipped (no
    variable, no clauses), so repeated calls with growing ``roots``
    lazily encode a network cone by cone.  The clause stream of such a
    call sequence is a function of the root batches alone, so replaying
    the batches into a fresh solver reproduces the variable numbering
    exactly.  Each call ranks the whole network; a caller that extends
    one map many times keeps the rank and calls :func:`extend_encoding`.
    """
    if var_of is None:
        var_of = {}
    if pi_vars is None:
        pi_vars = [solver.new_var() for _ in range(len(net.pis))]
    if len(pi_vars) != len(net.pis):
        raise ValueError("one solver variable per PI required")
    for pi, sv in zip(net.pis, pi_vars):
        var_of[pi] = sv
    rank = topo_rank(net)
    if roots is None:
        roots = rank
    extend_encoding(solver, net, roots, var_of, rank)
    return var_of


def topo_rank(net: Network) -> Dict[int, int]:
    """Position of every internal node in ``net.topo_order()``.

    ``set_function`` keeps the structure, so a rank stays valid across
    function mutations of the network.
    """
    return {nid: i for i, nid in enumerate(net.topo_order())}


def extend_encoding(
    solver: Solver,
    net: Network,
    roots: Iterable[int],
    var_of: Dict[int, int],
    rank: Dict[int, int],
    strash: Optional[StrashTable] = None,
) -> None:
    """Encode the not-yet-encoded part of the fan-in cones of ``roots``.

    ``var_of`` must hold every PI and be closed under fan-in (each
    encoded node's fan-ins are encoded).  The walk then stops at encoded
    nodes, so its cost is that of the new nodes, and it emits them in
    ``rank`` order (:func:`topo_rank` of ``net``), the order a walk over
    the whole network would emit them in.

    With a ``strash`` table, a node whose truth table and fan-in solver
    variables equal those of an already-encoded node reuses that node's
    variable and adds no clauses.  Both are functions of the same
    variables, so the merged formula is equisatisfiable with the
    unmerged one.
    """
    nodes = net.nodes
    new = set()
    stack = list(roots)
    while stack:
        nid = stack.pop()
        if nid in var_of or nid in new:
            continue
        new.add(nid)
        stack.extend(nodes[nid].fanins)
    for nid in sorted(new, key=rank.__getitem__):
        node = nodes[nid]
        tt = node.tt
        if strash is not None:
            key = (tt.bits, tuple([var_of[f] for f in node.fanins]))
            shared = strash.get(key)
            if shared is not None:
                var_of[nid] = shared
                continue
        out = solver.new_var()
        var_of[nid] = out
        if strash is not None:
            strash[key] = out
        if tt.is_const0:
            solver.add_clause([-out])
            continue
        if tt.is_const1:
            solver.add_clause([out])
            continue
        on_cover, _ = min_sops(tt)
        aux_vars: List[int] = []
        for cube in on_cover:
            lits = [
                (var_of[node.fanins[var]] if pol else -var_of[node.fanins[var]])
                for var, pol in cube.literals()
            ]
            if len(lits) == 1:
                aux_vars.append(lits[0])
                continue
            aux = solver.new_var()
            aux_vars.append(aux)
            for l in lits:
                solver.add_clause([-aux, l])
            solver.add_clause([aux] + [-l for l in lits])
        # out <-> OR(aux_vars)
        solver.add_clause([-out] + aux_vars)
        for a in aux_vars:
            solver.add_clause([out, -a])
