"""Area recovery: SAT sweeping plus incremental redundancy removal.

After reconstruction the paper runs "standard redundancy elimination
algorithms" (Sec. 3.2).  Two passes implement that here:

* :func:`sat_sweep` — merge simulation-equivalent node classes after
  bounded SAT proofs (including constant detection), then clean up
  structurally.
* :class:`RedundancyEngine` / :func:`remove_redundant_edges` — drop AND
  fan-in edges whose stuck-at-1 fault is untestable.  The engine keeps
  one persistent incremental CNF encoding of the circuit and answers
  each candidate edge with a single bounded SAT query under two
  assumption literals — no per-candidate AIG rebuild, no full CEC — with
  a shared bit-parallel simulation prefilter
  (:mod:`repro.core.signatures`) screening out the testable majority
  before the solver is ever consulted.

:func:`recover_area` packages both passes behind one effort knob; the
lookahead optimizer calls it once per accepted round.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Optional

import numpy as np

from .. import perf
from ..aig import (
    AIG,
    CONST0,
    CONST1,
    fanout_lists,
    lit_neg,
    lit_not,
    lit_notif,
    lit_var,
    random_patterns,
    simulate,
)
from ..aig.cone import lit_fingerprint, var_fingerprints
from ..sat.cnf import AigCnf
from ..store import runtime as store_runtime
from .signatures import random_pi_bits, value_signatures

#: Valid effort levels for :func:`recover_area`.
AREA_EFFORTS = ("low", "medium", "high")

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: SAT counterexamples are batched into whole signature words before a
#: re-simulation folds them into the prefilter matrix.
_WITNESS_BATCH = 64


def sat_sweep(
    aig: AIG,
    sim_width: int = 1024,
    seed: int = 0,
    max_pairs: int = 5000,
    max_conflicts: int = 300,
    size_limit: int = 6000,
    delay_model=None,
) -> AIG:
    """Merge functionally equivalent internal nodes (SAT-proved).

    Simulation partitions nodes into candidate classes (up to complement);
    each candidate merge is proved by an incremental SAT query (bounded by
    ``max_conflicts``; unknown means no merge) before being applied.
    Circuits beyond ``size_limit`` AND nodes are only cleaned structurally.
    Returns a rebuilt, cleaned AIG, never larger than ``aig.extract()``
    (a sweep whose dead-representative merges grew the net result is
    retried on the cleaned circuit, where growth is impossible).
    ``delay_model`` makes the
    never-worsen-arrival merge guard respect non-uniform PI arrivals.
    """
    if aig.num_ands() > size_limit:
        return aig.extract()
    mask = (1 << sim_width) - 1
    patterns = random_patterns(aig.num_pis, sim_width, seed)
    values = simulate(aig, patterns, sim_width)
    # Candidate classes keyed by polarity-canonical signature.
    classes: Dict[int, List[int]] = {}
    for var in range(aig.num_vars):
        if var != 0 and not aig.is_and(var):
            continue  # keep PIs out of merging
        sig = values[var] & mask
        key = min(sig, sig ^ mask)
        classes.setdefault(key, []).append(var)

    enc: Optional[AigCnf] = None
    var_map: Dict[int, int] = {}

    def prove_equal(v1: int, v2: int, complemented: bool) -> bool:
        nonlocal enc, var_map
        if enc is None:
            enc = AigCnf()
            var_map = enc.encode(aig)
        s1 = var_map[v1]
        s2 = var_map[v2]
        if complemented:
            s2 = -s2
        enc.solver.reset()
        x = enc.add_xor(s1, s2)
        perf.incr("area.sweep.queries")
        start = time.perf_counter()
        result = enc.solver.solve([x], max_conflicts=max_conflicts)
        perf.observe("sat.query.sweep", time.perf_counter() - start)
        enc.solver.reset()
        return result is False

    # representative literal for each merged variable.
    replacement: Dict[int, int] = {}
    pairs_checked = 0
    for members in classes.values():
        if pairs_checked >= max_pairs:
            break  # budget exhausted: stop scanning classes entirely
        if len(members) < 2:
            continue
        rep = members[0]
        rep_sig = values[rep] & mask
        for var in members[1:]:
            if pairs_checked >= max_pairs:
                break
            pairs_checked += 1
            complemented = (values[var] & mask) != rep_sig
            if prove_equal(rep, var, complemented):
                perf.incr("area.sweep.merges")
                replacement[var] = lit_notif(rep * 2, complemented)

    if not replacement:
        return aig.extract()

    # Rebuild with replacements applied (reps have smaller ids, hence are
    # rebuilt before their members in topological order).  A merge is only
    # taken when the representative arrives no later than the node it
    # replaces, so area recovery never undoes a depth/arrival gain.  The
    # timing engine extends its arrival array incrementally as the rebuild
    # appends nodes.
    from ..timing import AigTimingEngine

    dest = AIG()
    engine = AigTimingEngine(dest, delay_model)
    mapping: Dict[int, int] = {0: CONST0}
    for var, name in zip(aig.pis, aig.pi_names):
        mapping[var] = dest.add_pi(name)

    def mapped(lit: int) -> int:
        return lit_notif(mapping[lit_var(lit)], lit_neg(lit))

    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        own = dest.and_(mapped(f0), mapped(f1))
        target = replacement.get(var)
        if target is not None and engine.arrival(
            lit_var(mapped(target))
        ) <= engine.arrival(lit_var(own)):
            mapping[var] = mapped(target)
        else:
            mapping[var] = own
    for po, name in zip(aig.pos, aig.po_names):
        dest.add_po(mapped(po), name)
    result = dest.extract()
    # Merge classes deliberately include *dead* nodes: collapsing a live
    # node onto an equivalent dead representative with a smaller cone is
    # a real area win.  It can also backfire — resurrecting a dead cone
    # larger than what it replaces.  If the net effect grew the cleaned
    # circuit, retry on the cleanup itself: with every node live, merges
    # can only redirect onto already-counted logic, so the retry cannot
    # grow and cannot recurse again.
    cleaned = aig.extract()
    if result.num_ands() > cleaned.num_ands():
        perf.incr("area.sweep.growth_rejected")
        return sat_sweep(
            cleaned,
            sim_width=sim_width,
            seed=seed,
            max_pairs=max_pairs,
            max_conflicts=max_conflicts,
            size_limit=size_limit,
            delay_model=delay_model,
        )
    return result


class RedundancyEngine:
    """Incremental stuck-at-1 redundancy removal over one persistent CNF.

    An AND fan-in edge whose stuck-at-1 fault is untestable can be
    replaced by constant 1, i.e. the AND collapses onto its other fan-in.
    We prove untestability in the *implication framing*: for the node
    ``v = AND(keep, drop)``, the edge to ``drop`` is redundant iff
    ``keep -> drop`` as circuit functions — the stuck-at-1 difference
    ``keep & !drop`` has no exciting input.  Each candidate is one
    incremental SAT query ``solve([keep, -drop])`` against a single
    Tseitin encoding of the circuit built once up front; the two
    assumption literals select the edge under test, so no clauses are
    ever added or retracted between queries.

    This framing is what keeps the persistent encoding *sound*: an
    accepted drop makes ``v`` functionally identical to ``keep`` (it is a
    pure equivalence, not an observability-don't-care rewrite), so no
    node function ever changes and both the CNF and the simulation
    signatures stay valid for every later query.  The price is that
    don't-care-only redundancies are out of scope — those are exactly the
    ones that would invalidate the incremental encoding.

    Candidate edges come off a fanout-driven worklist: every AND node is
    visited once in topological order, and an accepted drop re-enqueues
    only the fanouts of the collapsed node (their resolved fan-ins
    changed), instead of restarting the scan from node zero.  A bounded
    query returning unknown keeps the edge — timeouts can only cost
    area, never correctness.  SAT counterexamples are harvested into new
    signature columns (batched per :data:`_WITNESS_BATCH`) so each
    testable edge pattern also prefilters its structural neighbours.
    """

    def __init__(
        self,
        aig: AIG,
        max_checks: int = 2000,
        sim_width: int = 512,
        seed: int = 1,
        max_conflicts: int = 300,
        delay_model=None,
    ):
        self.aig = aig
        self.max_checks = max_checks
        self.max_conflicts = max_conflicts
        self.delay_model = delay_model
        #: var -> replacement literal (an equivalence; targets always have
        #: smaller var ids, so chains terminate).
        self.replacement: Dict[int, int] = {}
        self.checks = 0
        # Shared bit-parallel prefilter domain (repro.core.signatures).
        width = max(0, sim_width)
        self._values = value_signatures(
            aig, random_pi_bits(aig.num_pis, width, seed)
        )
        nwords = self._values.shape[1]
        self._valid = np.zeros(nwords, dtype=np.uint64)
        for w in range(nwords):
            bits = min(64, max(0, width - 64 * w))
            self._valid[w] = _FULL if bits == 64 else np.uint64(
                (1 << bits) - 1
            )
        self._witnesses: List[List[bool]] = []
        # Lazy persistent CNF: circuits fully resolved by simulation never
        # pay for an encoding.
        self._enc: Optional[AigCnf] = None
        self._var_map: Dict[int, int] = {}
        # Accepted-drop verdicts, keyed by the (keep, drop) literals'
        # structural fingerprints, live in the result store's
        # ``redundant`` namespace when the process has a persistent
        # store.  Only UNSAT verdicts are stored (an accepted drop is a
        # proved implication — true regardless of the budget that proved
        # it), so a warm hit replays exactly the decision the cold run
        # made; SAT/unknown outcomes are never cached.
        self._lit_fps: Optional[List[int]] = None

    # -- resolution through accepted equivalences ----------------------------

    def _resolve(self, lit: int) -> int:
        var, neg = lit_var(lit), lit_neg(lit)
        while var in self.replacement:
            target = self.replacement[var]
            var, neg = lit_var(target), neg ^ lit_neg(target)
        return lit_notif(2 * var, neg)

    # -- simulation prefilter ------------------------------------------------

    def _lit_words(self, lit: int) -> np.ndarray:
        words = self._values[lit_var(lit)]
        if lit_neg(lit):
            words = words ^ _FULL
        return words

    def _sim_testable(self, keep: int, drop: int) -> bool:
        """Does any simulated pattern excite the fault (keep=1, drop=0)?"""
        diff = self._lit_words(keep) & ~self._lit_words(drop) & self._valid
        return bool(diff.any())

    def _harvest_witness(self) -> None:
        """Fold the session's counterexample into the prefilter matrix."""
        if self.aig.num_pis == 0:
            return
        solver = self._enc.solver
        column = [
            solver.model_value(self._var_map[pi]) or False
            for pi in self.aig.pis
        ]
        self._witnesses.append(column)
        perf.incr("area.redundancy.witnesses")
        if len(self._witnesses) < _WITNESS_BATCH:
            return
        batch = np.array(self._witnesses, dtype=bool).T  # (num_pis, B)
        self._witnesses = []
        extra = value_signatures(self.aig, batch)
        self._values = np.hstack([self._values, extra])
        self._valid = np.concatenate(
            [self._valid, np.full(extra.shape[1], _FULL, dtype=np.uint64)]
        )

    # -- the SAT oracle ------------------------------------------------------

    def _verdict_key(self, keep: int, drop: int):
        if self._lit_fps is None:
            self._lit_fps = var_fingerprints(self.aig)
        return (
            lit_fingerprint(self._lit_fps, keep),
            lit_fingerprint(self._lit_fps, drop),
            self.aig.num_pis,
        )

    def _sat_redundant(self, keep: int, drop: int) -> bool:
        """Bounded proof of ``keep -> drop``; unknown keeps the edge."""
        self.checks += 1
        persistent = store_runtime.is_persistent()
        if persistent:
            key = self._verdict_key(keep, drop)
            ns = store_runtime.get_store().namespace("redundant")
            if ns.contains(key):
                perf.incr("area.redundancy.store_hits")
                return True
        perf.incr("area.redundancy.queries")
        if self._enc is None:
            self._enc = AigCnf()
            self._var_map = self._enc.encode(self.aig)
        start = time.perf_counter()
        result = self._enc.solver.solve(
            [
                self._enc.lit(self._var_map, keep),
                -self._enc.lit(self._var_map, drop),
            ],
            max_conflicts=self.max_conflicts,
        )
        perf.observe("sat.query.redundancy", time.perf_counter() - start)
        if result is True:
            self._harvest_witness()
        elif result is None:
            perf.incr("area.redundancy.unknown")
        if result is False and persistent:
            ns.put(key, True)
        return result is False

    # -- the worklist pass ---------------------------------------------------

    def _try_node(self, var: int) -> bool:
        """Try to collapse ``var`` onto one of its resolved fan-ins."""
        f0, f1 = (self._resolve(l) for l in self.aig.fanins(var))
        # Constant and duplicate folds need no oracle at all.
        for keep, drop in ((f0, f1), (f1, f0)):
            if drop == CONST1 or drop == keep:
                self.replacement[var] = keep
                perf.incr("area.redundancy.folds")
                return True
            if drop == CONST0 or drop == lit_not(keep):
                self.replacement[var] = CONST0
                perf.incr("area.redundancy.folds")
                return True
        for keep, drop in ((f0, f1), (f1, f0)):
            if self._sim_testable(keep, drop):
                perf.incr("area.prefilter.hit")
                continue
            perf.incr("area.prefilter.miss")
            if self.checks >= self.max_checks:
                return False  # budget exhausted: keep every further edge
            if self._sat_redundant(keep, drop):
                self.replacement[var] = keep
                perf.incr("area.redundancy.removed")
                return True
        return False

    def run(self) -> AIG:
        """One worklist pass; returns the rebuilt, cleaned AIG."""
        fanouts = fanout_lists(self.aig)
        queue = deque(self.aig.and_vars())
        queued = set(queue)
        while queue:
            var = queue.popleft()
            queued.discard(var)
            if var in self.replacement:
                continue
            if self._try_node(var):
                for fo in fanouts[var]:
                    if fo not in queued and fo not in self.replacement:
                        queue.append(fo)
                        queued.add(fo)
            elif self.checks >= self.max_checks:
                break
        return self._rebuild()

    # -- applying the replacement map ----------------------------------------

    def _rebuild(self) -> AIG:
        """One rebuild applying all accepted drops, under an arrival guard.

        A replacement target always lies in the collapsed node's fan-in
        cone, so under fanout-insensitive models the guard is trivially
        satisfied; under :class:`~repro.timing.LoadAwareDelay` the extra
        load on the surviving fan-in can matter, and the incremental
        timing engine on the rebuilt prefix rejects any drop that would
        worsen the arrival — the same never-worsen guard ``sat_sweep``
        applies to merges.
        """
        aig = self.aig
        if not self.replacement:
            return aig.extract()
        from ..timing import AigTimingEngine

        dest = AIG()
        engine = AigTimingEngine(dest, self.delay_model)
        mapping: Dict[int, int] = {0: CONST0}
        for var, name in zip(aig.pis, aig.pi_names):
            mapping[var] = dest.add_pi(name)

        def mapped(lit: int) -> int:
            return lit_notif(mapping[lit_var(lit)], lit_neg(lit))

        for var in aig.and_vars():
            f0, f1 = aig.fanins(var)
            own = dest.and_(mapped(f0), mapped(f1))
            if var in self.replacement:
                target = mapped(self._resolve(2 * var))
                if engine.arrival(lit_var(target)) <= engine.arrival(
                    lit_var(own)
                ):
                    mapping[var] = target
                    continue
                perf.incr("area.redundancy.arrival_rejected")
            mapping[var] = own
        for po, name in zip(aig.pos, aig.po_names):
            dest.add_po(mapped(po), name)
        return dest.extract()


def remove_redundant_edges(
    aig: AIG,
    max_checks: int = 2000,
    sim_width: int = 512,
    seed: int = 1,
    max_conflicts: int = 300,
    delay_model=None,
) -> AIG:
    """Drop AND edges whose stuck-at-1 fault is untestable.

    One :class:`RedundancyEngine` pass: a persistent incremental CNF of
    the whole circuit answers each candidate edge with a single bounded
    two-assumption SAT query (``max_checks`` queries, ``max_conflicts``
    conflicts each; unknown keeps the edge), after a shared bit-parallel
    simulation prefilter (``sim_width`` patterns, plus harvested SAT
    counterexamples) has discharged the testable majority.  Accepted
    drops are pure node equivalences applied in one final rebuild under a
    never-worsen-arrival guard driven by ``delay_model``.
    """
    return RedundancyEngine(
        aig,
        max_checks=max_checks,
        sim_width=sim_width,
        seed=seed,
        max_conflicts=max_conflicts,
        delay_model=delay_model,
    ).run()


def recover_area(
    aig: AIG,
    effort: str = "medium",
    seed: int = 0,
    delay_model=None,
) -> AIG:
    """The post-reconstruction area-recovery pipeline, by effort level.

    * ``"low"`` — SAT sweeping only (the pre-engine behaviour).
    * ``"medium"`` — SAT sweeping followed by one incremental
      redundancy-removal pass (the optimizer default).
    * ``"high"`` — iterate both passes with enlarged budgets until the
      AND count stops shrinking.

    Every pass preserves the circuit function and never worsens depth or
    completion time under ``delay_model`` (arrival-guarded merges/drops),
    so effort only trades wall-clock for area.
    """
    if effort not in AREA_EFFORTS:
        raise ValueError(
            f"unknown area effort {effort!r}; expected one of {AREA_EFFORTS}"
        )
    with perf.timer("area.recover"):
        current = sat_sweep(aig, seed=seed, delay_model=delay_model)
        if effort == "low":
            return current
        if effort == "medium":
            return remove_redundant_edges(
                current, seed=seed + 1, delay_model=delay_model
            )
        for _ in range(4):
            before = current.num_ands()
            current = remove_redundant_edges(
                current,
                max_checks=20000,
                sim_width=1024,
                seed=seed + 1,
                max_conflicts=1000,
                delay_model=delay_model,
            )
            current = sat_sweep(
                current,
                max_pairs=20000,
                max_conflicts=1000,
                seed=seed,
                delay_model=delay_model,
            )
            if current.num_ands() >= before:
                break
        return current
