"""Cone, fanout, transitive-fanout, and structural-hash utilities on AIGs."""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from .aig import AIG, lit_neg, lit_var


def fanin_cone_vars(aig: AIG, lits: Iterable[int]) -> Set[int]:
    """All variables in the transitive fan-in of the given literals."""
    seen: Set[int] = set()
    stack = [lit_var(lit) for lit in lits]
    while stack:
        var = stack.pop()
        if var in seen:
            continue
        seen.add(var)
        if aig.is_and(var):
            f0, f1 = aig.fanins(var)
            stack.append(lit_var(f0))
            stack.append(lit_var(f1))
    return seen


def cone_pis(aig: AIG, lits: Iterable[int]) -> List[int]:
    """PI variables in the transitive fan-in, in PI order."""
    cone = fanin_cone_vars(aig, lits)
    return [var for var in aig.pis if var in cone]


def critical_cone_vars(aig: AIG, engine=None) -> Set[int]:
    """Zero-slack variables inside the fan-in cones of critical POs.

    ``engine`` is a :class:`repro.timing.AigTimingEngine` (unit delay by
    default), so criticality follows whatever delay model drives the flow
    — under prescribed PI arrivals the critical cone chases the latest
    *arrivals*, not the deepest paths.
    """
    if engine is None:
        from ..timing import AigTimingEngine

        engine = AigTimingEngine(aig)
    crit = engine.critical_vars()
    cone = fanin_cone_vars(
        aig, [aig.pos[i] for i in engine.critical_pos()]
    )
    return crit & cone


def extract_critical_cone(aig: AIG, po_index: int, engine=None) -> AIG:
    """Standalone copy of one critical PO's fan-in cone (full PI space).

    Equivalent to ``aig.extract([aig.pos[po_index]])``; the engine argument
    exists so callers that already hold timing analysis reuse it for the
    criticality bookkeeping around the extraction.
    """
    return aig.extract([aig.pos[po_index]])


def fanout_lists(aig: AIG) -> List[List[int]]:
    """For each variable, the list of AND variables that read it."""
    fanouts: List[List[int]] = [[] for _ in range(aig.num_vars)]
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        fanouts[lit_var(f0)].append(var)
        if lit_var(f1) != lit_var(f0):
            fanouts[lit_var(f1)].append(var)
    return fanouts


def fanout_counts(aig: AIG) -> List[int]:
    """Reference count of each variable (PO references included)."""
    counts = [0] * aig.num_vars
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        counts[lit_var(f0)] += 1
        counts[lit_var(f1)] += 1
    for po in aig.pos:
        counts[lit_var(po)] += 1
    return counts


def tfo_vars(aig: AIG, roots: Iterable[int]) -> Set[int]:
    """Transitive fan-out variable set of the given root variables."""
    fanouts = fanout_lists(aig)
    seen: Set[int] = set()
    stack = list(roots)
    while stack:
        var = stack.pop()
        if var in seen:
            continue
        seen.add(var)
        stack.extend(fanouts[var])
    return seen


_MASK64 = (1 << 64) - 1
_PI_SEED = 0x9E3779B97F4A7C15
_AND_SEED = 0xC2B2AE3D27D4EB4F


def _mix(a: int, b: int) -> int:
    """Deterministic 64-bit hash combine (splitmix64-style finalizer)."""
    h = (a * 0xFF51AFD7ED558CCD + b * 0xC4CEB9FE1A85EC53 + 1) & _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 29
    return h


def cone_fingerprint(aig: AIG, lits: Iterable[int]) -> int:
    """Canonical 64-bit structural hash of the fan-in cones of ``lits``.

    Two cones hash equal iff they compute the same literal structure over
    the same PIs (identified by PI *position*, so the hash survives the
    renumbering done by ``AIG.extract``).  Complement edges participate,
    and the order of ``lits`` matters — ``(fp of [a, b]) != (fp of [b, a])``
    in general.  Deterministic across processes and runs (no ``hash()``).
    """
    pi_pos = {var: i for i, var in enumerate(aig.pis)}
    memo: Dict[int, int] = {0: _mix(_AND_SEED, 0)}

    def var_hash(root: int) -> int:
        stack = [root]
        while stack:
            var = stack[-1]
            if var in memo:
                stack.pop()
                continue
            if aig.is_pi(var):
                memo[var] = _mix(_PI_SEED, pi_pos[var])
                stack.pop()
                continue
            f0, f1 = aig.fanins(var)
            pending = [
                v for v in (lit_var(f0), lit_var(f1)) if v not in memo
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            h0 = _mix(memo[lit_var(f0)], int(lit_neg(f0)))
            h1 = _mix(memo[lit_var(f1)], int(lit_neg(f1)))
            if h0 > h1:
                h0, h1 = h1, h0
            memo[var] = _mix(_mix(_AND_SEED, h0), h1)
        return memo[root]

    fp = _mix(_PI_SEED, aig.num_pis)
    for lit in lits:
        fp = _mix(fp, _mix(var_hash(lit_var(lit)), int(lit_neg(lit))))
    return fp


def aig_fingerprint(aig: AIG) -> int:
    """Structural hash of a whole AIG: all PO cones in PO order."""
    return cone_fingerprint(aig, aig.pos)


def mffc_vars(aig: AIG, root: int) -> Set[int]:
    """Maximum fanout-free cone of ``root``: nodes used only inside it."""
    counts = fanout_counts(aig)
    mffc: Set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in mffc or not aig.is_and(var):
            continue
        mffc.add(var)
        f0, f1 = aig.fanins(var)
        for fv in (lit_var(f0), lit_var(f1)):
            # A fanin joins the MFFC when all its references are inside.
            if aig.is_and(fv):
                outside = counts[fv] - sum(
                    1
                    for u in mffc
                    if fv in (lit_var(aig.fanins(u)[0]), lit_var(aig.fanins(u)[1]))
                )
                if outside <= 0:
                    stack.append(fv)
    return mffc
