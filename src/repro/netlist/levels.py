"""The paper's logic-level model for technology-independent networks.

Node levels are computed from the *minimum SOP* of the node's on-set and
off-set: each prime-implicant cube contributes an optimal (arrival-aware)
AND tree, the cubes combine through an optimal OR tree, and the node level
is the smaller of the on-set and off-set values (output inversion is free,
as in an AIG).  Optimal binary-tree depth over weighted leaves is obtained
with the classic Huffman-style merge of the two earliest arrivals.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from ..sop import Cover, min_sop
from ..tt import TruthTable
from .network import Network

SOP_CACHE_SIZE = 8192
"""Local functions whose minimum SOPs :func:`min_sops` keeps.

Well above what one process meets in practice (649 distinct functions
after the whole flow on C432 and an 8-bit adder), yet bounded, so a
long-lived daemon does not keep every function it has ever seen."""


def min_sops(tt: TruthTable) -> Tuple[Cover, Cover]:
    """Cached (on-set, off-set) minimum SOPs of a local function."""
    return _min_sops(tt.bits, tt.nvars)


@lru_cache(maxsize=SOP_CACHE_SIZE)
def _min_sops(bits: int, nvars: int) -> Tuple[Cover, Cover]:
    tt = TruthTable(bits, nvars)
    return min_sop(tt), min_sop(~tt)


def tree_level(arrivals: Sequence[int]) -> int:
    """Depth of the optimal binary tree combining leaves with arrival times.

    Repeatedly merges the two earliest leaves; the result is the minimum
    achievable arrival at the tree root (0 for a single leaf or no leaves).
    """
    if len(arrivals) <= 1:
        return arrivals[0] if arrivals else 0
    heap = list(arrivals)
    heapq.heapify(heap)
    while len(heap) > 1:
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        heapq.heappush(heap, max(a, b) + 1)
    return heap[0]


def cover_level(cover: Cover, fanin_levels: Sequence[int]) -> int:
    """Arrival of an SOP cover as AND trees feeding an OR tree."""
    if cover.is_empty():
        return 0  # constant
    cube_levels = []
    for cube in cover:
        arrivals = [fanin_levels[var] for var, _pol in cube.literals()]
        cube_levels.append(tree_level(arrivals))
    return tree_level(cube_levels)


def node_level(tt: TruthTable, fanin_levels: Sequence[int]) -> int:
    """Paper's node level: min over the on-set and off-set minimum SOPs."""
    if tt.is_const0 or tt.is_const1:
        return 0
    on_cover, off_cover = min_sops(tt)
    return min(
        cover_level(on_cover, fanin_levels),
        cover_level(off_cover, fanin_levels),
    )


def compute_levels(net: Network, model=None) -> Dict[int, int]:
    """Level of every node in the network (PIs at the model's arrivals).

    Facade over :class:`repro.timing.NetworkTimingEngine`; hold an engine
    directly for incremental re-analysis across edits.
    """
    from ..timing import NetworkTimingEngine

    return dict(NetworkTimingEngine(net, model).levels())


def network_depth(net: Network, model=None) -> int:
    """Max PO level of the network."""
    from ..timing import NetworkTimingEngine

    return NetworkTimingEngine(net, model).depth()


def po_level(net: Network, po_index: int, levels: Dict[int, int]) -> int:
    nid, _neg = net.pos[po_index]
    return levels[nid]


def critical_inputs(
    tt: TruthTable, fanin_levels: Sequence[int]
) -> List[int]:
    """Fan-in positions whose level reduction is necessary to reduce the node.

    A fan-in is critical when, with every *other* fan-in arriving instantly,
    the node still cannot beat its current level.  If no single fan-in is
    individually necessary (ties), the latest-arriving fan-ins are returned
    so the critical walk always has somewhere to go.
    """
    current = node_level(tt, fanin_levels)
    if current == 0 or not fanin_levels:
        return []
    necessary = []
    for i in range(len(fanin_levels)):
        relaxed = [0] * len(fanin_levels)
        relaxed[i] = fanin_levels[i]
        if node_level(tt, relaxed) >= current:
            necessary.append(i)
    if necessary:
        return necessary
    peak = max(fanin_levels)
    return [i for i, l in enumerate(fanin_levels) if l == peak]
