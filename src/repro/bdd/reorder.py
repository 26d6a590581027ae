"""BDD variable reordering (greedy sifting by rebuild).

The manager in :mod:`repro.bdd.bdd` keys nodes by variable index, so
reordering is implemented by *rebuilding* the function in a fresh manager
under a permuted order — exact and simple, at O(rebuild) per trial.  The
sifting heuristic moves one variable at a time to its locally best
position, which is the classic Rudell scheme evaluated by reconstruction
instead of in-place level swaps.  Intended for the moderate-width
functions this project builds BDDs for (SPCFs, window functions).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .bdd import BDD, FALSE, TRUE, ref_node, ref_not


def rebuild_with_order(
    src: BDD, ref: int, order: Sequence[int], dest: Optional[BDD] = None
) -> Tuple[BDD, int]:
    """Rebuild ``ref`` in a (fresh) manager with variables renamed by order.

    ``order[i]`` gives the new position of source variable ``i`` — the
    function is the same up to variable renaming, so node counts are
    comparable across orders.
    """
    if dest is None:
        dest = BDD()
    position: Dict[int, int] = {var: order[var] for var in range(len(order))}
    cache: Dict[int, int] = {TRUE: TRUE, FALSE: FALSE}

    def rec(r: int) -> int:
        if r in cache:
            return cache[r]
        if ref_not(r) in cache:
            out = ref_not(cache[ref_not(r)])
            cache[r] = out
            return out
        var = src.level_of(r)
        hi, lo = src.cofactors(r, var)
        new_var = position[var]
        out = dest.ite(dest.var(new_var), rec(hi), rec(lo))
        cache[r] = out
        return out

    out = rec(ref)
    del rec  # free the self-referencing closure now, not at GC
    return dest, out


def order_cost(src: BDD, ref: int, order: Sequence[int]) -> int:
    """Node count of ``ref`` under the permuted order."""
    dest, new_ref = rebuild_with_order(src, ref, order)
    return dest.node_count(new_ref)


def sift(
    src: BDD, ref: int, max_rounds: int = 2
) -> Tuple[BDD, int, List[int]]:
    """Greedy sifting: returns (new manager, new ref, chosen order).

    ``order[i]`` is the new position of original variable ``i``; the
    rebuilt function equals the original up to that renaming.
    """
    support = src.support(ref)
    if len(support) <= 2:
        dest, new_ref = rebuild_with_order(
            src, ref, list(range(max(support, default=0) + 1))
        )
        return dest, new_ref, list(range(max(support, default=0) + 1))
    nvars = max(support) + 1
    # Current placement: position list (index = variable).
    order = list(range(nvars))
    best_cost = order_cost(src, ref, order)
    for _ in range(max_rounds):
        improved = False
        for var in support:
            current_pos = order[var]
            best_pos = current_pos
            for pos in range(nvars):
                if pos == current_pos:
                    continue
                trial = _move(order, var, pos)
                cost = order_cost(src, ref, trial)
                if cost < best_cost:
                    best_cost = cost
                    best_pos = pos
            if best_pos != order[var]:
                order = _move(order, var, best_pos)
                improved = True
        if not improved:
            break
    dest, new_ref = rebuild_with_order(src, ref, order)
    return dest, new_ref, order


def _move(order: List[int], var: int, new_pos: int) -> List[int]:
    """Positions list with ``var`` moved to ``new_pos`` (others shifted)."""
    by_pos = sorted(range(len(order)), key=lambda v: order[v])
    by_pos.remove(var)
    by_pos.insert(new_pos, var)
    out = [0] * len(order)
    for pos, v in enumerate(by_pos):
        out[v] = pos
    return out
