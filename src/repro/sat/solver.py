"""A CDCL SAT solver (MiniSat-style).

Features: two-literal watching, first-UIP conflict analysis with clause
learning, VSIDS decision heuristic with an indexed heap, phase saving, Luby
restarts, incremental solving under assumptions, and an optional set of
decision variables (:meth:`Solver.branch_on`).  There is one search
strategy: saved phases, Luby restarts of :data:`RESTART_BASE` conflicts
and VSIDS decay :data:`VAR_DECAY`.

External literals use the DIMACS convention: variable ``v`` (1-based) is the
positive literal ``v`` and the negative literal ``-v``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_UNDEF = -1
_NO_BRANCH = -2
"""Heap position of a variable that is not a decision variable."""


def _ilit(ext: int) -> int:
    """DIMACS literal -> internal literal (2*var + sign)."""
    var = abs(ext) - 1
    return var * 2 + (1 if ext < 0 else 0)


def luby(i: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 0-indexed."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


RESTART_BASE = 64
"""Conflicts before the first restart; restart ``n`` allows
``RESTART_BASE * luby(n)``."""

VAR_DECAY = 0.95
"""VSIDS activity decay: the bump increment grows by ``1 / VAR_DECAY``
per conflict."""


class _VarHeap:
    """Indexed max-heap on variable activity.

    ``pos[var]`` is the variable's index in ``heap``, -1 while it is
    not in the heap, or :data:`_NO_BRANCH` while the solver does not
    branch on it (:meth:`Solver.branch_on`); only variables at -1
    re-enter the heap.  The solver inlines push (in :meth:`Solver._backtrack`)
    and pop (in :meth:`Solver._decide`); those copies make exactly the
    sift comparisons of :meth:`_up` and :meth:`_down`, since with equal
    activities the heap layout is the decision tie-break.
    """

    def __init__(self) -> None:
        self.heap: List[int] = []
        self.pos: List[int] = []

    def __contains__(self, var: int) -> bool:
        return var < len(self.pos) and self.pos[var] >= 0

    def push(self, var: int, activity: List[float]) -> None:
        pos = self.pos
        if var >= len(pos):
            pos.extend([-1] * (var + 1 - len(pos)))
        elif pos[var] >= 0:
            return
        self.heap.append(var)
        self._up(len(self.heap) - 1, activity)

    def pop(self, activity: List[float]) -> int:
        heap = self.heap
        top = heap[0]
        last = heap.pop()
        self.pos[top] = -1
        if heap:
            heap[0] = last
            self._down(0, activity)
        return top

    def update(self, var: int, activity: List[float]) -> None:
        if var in self:
            self._up(self.pos[var], activity)

    def _up(self, i: int, act: List[float]) -> None:
        heap, pos = self.heap, self.pos
        var = heap[i]
        while i > 0:
            parent = (i - 1) >> 1
            if act[heap[parent]] >= act[var]:
                break
            heap[i] = heap[parent]
            pos[heap[i]] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _down(self, i: int, act: List[float]) -> None:
        heap, pos = self.heap, self.pos
        n = len(heap)
        var = heap[i]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            best = left
            right = left + 1
            if right < n and act[heap[right]] > act[heap[left]]:
                best = right
            if act[heap[best]] <= act[var]:
                break
            heap[i] = heap[best]
            pos[heap[i]] = i
            i = best
        heap[i] = var
        pos[var] = i


class Solver:
    """Incremental CDCL SAT solver.

    The hot paths (:meth:`_propagate`, :meth:`_backtrack`,
    :meth:`_decide`) work on local references to the per-literal value
    list ``_lv`` and inline the enqueue and the heap sifts.  Every
    mutation — watch-list order, clause literal swaps, heap layout — is
    made in the same order as the plain MiniSat formulation, so a given
    clause and call stream always takes the same search.
    """

    def __init__(self) -> None:
        # Clauses are lists of internal literals.  Watch lists and
        # reasons hold the clause objects themselves: each stored clause
        # sits in the lists of the negations of its first two literals.
        self.watches: List[List[List[int]]] = []  # per internal literal
        # Per internal literal: 1 (true), 0 (false) or _UNDEF.  A
        # variable's value is the value of its positive literal.
        self._lv: List[int] = []
        self.level: List[int] = []
        # Implying clause of each assigned variable (None: decision,
        # assumption or root unit).
        self.reason: List[Optional[List[int]]] = []
        self.trail: List[int] = []  # assigned internal literals
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.activity: List[float] = []
        self.var_inc = 1.0
        # Sign bit of each variable's last assignment (1 = negative); the
        # initial phase is false.
        self.phase: List[int] = []
        self.heap = _VarHeap()
        # True while branch_on() limits the decision variables.
        self._restricted = False
        self.ok = True
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        # Assumption literals (DIMACS) of the currently retained decision
        # levels 1..len(_assumption_levels); maintained by solve() and
        # _backtrack() so keep_prefix can reuse the propagated prefix.
        self._assumption_levels: List[int] = []

    # -- variables and clauses ------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its 1-based DIMACS index."""
        var = len(self.level)
        self._lv.append(_UNDEF)
        self._lv.append(_UNDEF)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(1)
        self.watches.append([])
        self.watches.append([])
        if self._restricted:
            self.heap.pos.append(_NO_BRANCH)
        else:
            self.heap.push(var, self.activity)
        return var + 1

    def branch_on(self, variables: Optional[Iterable[int]]) -> None:
        """Decide only on ``variables`` (DIMACS indices); None lifts it.

        MiniSat's decision-variable set.  While a restriction is active,
        :meth:`_decide` picks only those variables, :meth:`_backtrack`
        re-inserts only them, and variables created later are not
        decision variables.  A variable no decision reaches is still
        assigned: once the heap runs dry, :meth:`_decide` takes the first
        unassigned variable, so a SAT answer is always a total model.
        The restriction pays off when every other variable is a function
        of the decision variables that unit propagation fixes, as in a
        Tseitin encoding over its inputs.  A solver that never calls this
        method searches exactly as before.
        """
        # The heap takes the unassigned decision variables; an assigned
        # one waits at -1 and re-enters it when backtracking unassigns it.
        heap = self.heap
        pos = heap.pos
        lv = self._lv
        if variables is None:
            self._restricted = False
            for var in range(self.num_vars):
                if pos[var] == _NO_BRANCH:
                    pos[var] = -1
                    if lv[2 * var] == _UNDEF:
                        heap.push(var, self.activity)
            return
        self._restricted = True
        chosen = {abs(ext) - 1 for ext in variables}
        heap.heap.clear()
        for var in range(self.num_vars):
            if var not in chosen:
                pos[var] = _NO_BRANCH
                continue
            pos[var] = -1
            if lv[2 * var] == _UNDEF:
                heap.push(var, self.activity)

    @property
    def num_vars(self) -> int:
        return len(self.level)

    def _ensure_var(self, ext: int) -> None:
        while abs(ext) > len(self.level):
            self.new_var()

    def add_clause(self, ext_lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT."""
        if not self.ok:
            return False
        if self.trail_lim:
            raise RuntimeError("clauses may only be added at decision level 0")
        lv = self._lv
        lits: List[int] = []
        for ext in ext_lits:
            if ext > 0:
                il = 2 * ext - 2
            elif ext < 0:
                il = -2 * ext - 1
            else:
                raise ValueError("literal 0 is invalid")
            if il >= len(lv):
                self._ensure_var(ext)
            # At level 0 every assigned literal is a root fact.
            value = lv[il]
            if value == 1:
                return True  # satisfied at root
            if value == 0:
                continue  # falsified at root: drop literal
            if il ^ 1 in lits:
                return True  # tautology
            if il not in lits:
                lits.append(il)
        if not lits:
            self.ok = False
            return False
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            self.ok = self._propagate() is None
            return self.ok
        self.watches[lits[0] ^ 1].append(lits)
        self.watches[lits[1] ^ 1].append(lits)
        return True

    # -- assignment helpers ----------------------------------------------------

    def _enqueue(self, ilit: int, reason: Optional[List[int]]) -> None:
        """Assign an unassigned literal at the current decision level."""
        lv = self._lv
        lv[ilit] = 1
        lv[ilit ^ 1] = 0
        var = ilit >> 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = ilit & 1
        self.trail.append(ilit)

    # -- propagation ----------------------------------------------------------

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns the conflicting clause or None.

        Watch lists are compacted in place; a clause whose other watch
        is true stays put, one that finds a non-false replacement moves
        to that literal's list, and a unit clause enqueues its first
        literal (inlined :meth:`_enqueue`).
        """
        trail = self.trail
        qhead = start = self.qhead
        if qhead == len(trail):
            return None
        watches = self.watches
        lv = self._lv
        level = self.level
        reason = self.reason
        phase = self.phase
        lvl = len(self.trail_lim)
        conflict = None
        while qhead < len(trail):
            ilit = trail[qhead]
            qhead += 1
            false_lit = ilit ^ 1
            ws = watches[ilit]
            n = len(ws)
            i = j = 0
            while i < n:
                clause = ws[i]
                i += 1
                # Normalize: the falsified watch goes to position 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if lv[first] == 1:
                    ws[j] = clause
                    j += 1
                    continue
                # Search for a replacement watch.
                k = 2
                size = len(clause)
                while k < size:
                    lk = clause[k]
                    if lv[lk] != 0:
                        clause[1] = lk
                        clause[k] = false_lit
                        watches[lk ^ 1].append(clause)
                        break
                    k += 1
                else:
                    # Clause is unit or conflicting.
                    ws[j] = clause
                    j += 1
                    if lv[first] == 0:
                        conflict = clause
                        break
                    lv[first] = 1
                    lv[first ^ 1] = 0
                    var = first >> 1
                    level[var] = lvl
                    reason[var] = clause
                    phase[var] = first & 1
                    trail.append(first)
            if conflict is not None:
                del ws[j:i]  # keep the unvisited tail
                self.num_propagations += qhead - start
                self.qhead = len(trail)
                return conflict
            del ws[j:]
        self.num_propagations += qhead - start
        self.qhead = qhead
        return None

    # -- conflict analysis ------------------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(self.num_vars):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
        self.heap.update(var, self.activity)

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """First-UIP learning; returns (learned clause, backtrack level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = set()
        level = self.level
        trail = self.trail
        decision_level = len(self.trail_lim)
        counter = 0
        ilit = _UNDEF
        index = len(trail) - 1
        clause = conflict
        while True:
            start = 0 if ilit == _UNDEF else 1
            for q in clause[start:]:
                var = q >> 1
                if var not in seen and level[var] > 0:
                    seen.add(var)
                    self._bump(var)
                    if level[var] >= decision_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Find the next trail literal to resolve on.
            while trail[index] >> 1 not in seen:
                index -= 1
            ilit = trail[index]
            index -= 1
            var = ilit >> 1
            seen.discard(var)
            counter -= 1
            if counter == 0:
                break
            clause = self.reason[var]
            # Put the resolved literal first so it is skipped above.
            if clause[0] != ilit:
                pos = clause.index(ilit)
                clause[0], clause[pos] = clause[pos], clause[0]
        learned[0] = ilit ^ 1
        if len(learned) == 1:
            bt_level = 0
        else:
            # Second-highest decision level among learned literals.
            max_i = 1
            for i in range(2, len(learned)):
                if level[learned[i] >> 1] > level[learned[max_i] >> 1]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            bt_level = level[learned[1] >> 1]
        return learned, bt_level

    def _backtrack(self, target_level: int) -> None:
        """Undo every level above ``target_level``.

        Unassigned decision variables re-enter the heap in reverse trail
        order (inlined :meth:`_VarHeap.push`).
        """
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        trail = self.trail
        limit = trail_lim[target_level]
        lv = self._lv
        heap = self.heap.heap
        pos = self.heap.pos
        act = self.activity
        for ilit in reversed(trail[limit:]):
            lv[ilit] = _UNDEF
            lv[ilit ^ 1] = _UNDEF
            var = ilit >> 1
            if pos[var] == -1:
                i = len(heap)
                heap.append(var)
                a = act[var]
                while i > 0:
                    parent = (i - 1) >> 1
                    pv = heap[parent]
                    if act[pv] >= a:
                        break
                    heap[i] = pv
                    pos[pv] = i
                    i = parent
                heap[i] = var
                pos[var] = i
        del trail[limit:]
        del trail_lim[target_level:]
        del self._assumption_levels[target_level:]
        self.qhead = limit

    def _learn(self, learned: List[int]) -> None:
        if len(learned) == 1:
            self._enqueue(learned[0], None)
            return
        self.watches[learned[0] ^ 1].append(learned)
        self.watches[learned[1] ^ 1].append(learned)
        self._enqueue(learned[0], learned)

    # -- decisions ---------------------------------------------------------------

    def _decide(self) -> int:
        """Pop the most active unassigned variable; decide its saved phase.

        Assigned variables popped on the way stay out of the heap until
        backtracking unassigns them (inlined :meth:`_VarHeap.pop`).  A
        dry heap with an unassigned variable left (one :meth:`branch_on`
        excluded) decides the first such variable.
        """
        heap = self.heap.heap
        pos = self.heap.pos
        act = self.activity
        lv = self._lv
        # The larger activity of the root's children.  Pops that leave
        # ``last`` at the root (most of them: unbumped activities are all
        # 0.0) do not touch the children, so it holds until a sift runs.
        top_child = None
        while heap:
            var = heap[0]
            last = heap.pop()
            pos[var] = -1
            n = len(heap)
            if n >= 3 and top_child is None:
                top_child = max(act[heap[1]], act[heap[2]])
            if n >= 3 and act[last] >= top_child:
                heap[0] = last
                pos[last] = 0
            elif n:
                # Sift ``last`` down from the root.
                top_child = None
                a = act[last]
                i = 0
                child = 1
                while child < n:
                    right = child + 1
                    if right < n and act[heap[right]] > act[heap[child]]:
                        child = right
                    cv = heap[child]
                    if act[cv] <= a:
                        break
                    heap[i] = cv
                    pos[cv] = i
                    i = child
                    child = 2 * i + 1
                heap[i] = last
                pos[last] = i
            if lv[var << 1] == _UNDEF:
                return (var << 1) | self.phase[var]
        if len(self.trail) < len(self.level):
            var = lv.index(_UNDEF) >> 1
            return (var << 1) | self.phase[var]
        return _UNDEF

    # -- main solve loop -----------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        max_propagations: Optional[int] = None,
        keep_prefix: int = 0,
    ) -> Optional[bool]:
        """Solve under assumptions; True = SAT (model available).

        With ``max_conflicts`` or ``max_propagations`` set, returns None
        (unknown) once either budget is exhausted — callers treat unknown
        conservatively.  Budgets are per-call: a repeated call continues
        the search incrementally (learned clauses persist).

        ``keep_prefix`` opts into assumption-trail reuse: up to that many
        leading assumptions shared with the previous call keep their
        decision levels (and propagations) instead of being backtracked
        and replayed.  After a prefix-retaining call the solver may sit at
        a non-zero decision level, so interleaving ``add_clause`` requires
        an explicit :meth:`reset`.  With ``keep_prefix=0`` (the default)
        the behavior is identical to the historical solver.
        """
        if not self.ok:
            return False
        keep = 0
        if keep_prefix:
            limit = min(
                keep_prefix, len(assumptions), len(self._assumption_levels)
            )
            while keep < limit and self._assumption_levels[keep] == assumptions[keep]:
                keep += 1
        self._backtrack(keep)
        trail_lim = self.trail_lim
        if self._propagate() is not None:
            if not trail_lim:
                self.ok = False
                return False
            # A retained assumption prefix (a subset of the current
            # assumptions) already contradicts the formula.
            self._backtrack(len(trail_lim) - 1)
            return False
        for ext in assumptions:
            self._ensure_var(ext)
        restart_num = 0
        conflict_budget = RESTART_BASE * luby(restart_num)
        conflicts_here = 0
        total_conflicts = 0
        prop_limit = (
            None
            if max_propagations is None
            else self.num_propagations + max_propagations
        )
        n_assumptions = len(assumptions)
        propagate = self._propagate
        while True:
            if (max_conflicts is not None and total_conflicts > max_conflicts) or (
                prop_limit is not None and self.num_propagations >= prop_limit
            ):
                self._backtrack(
                    min(keep_prefix, len(self._assumption_levels))
                    if keep_prefix
                    else 0
                )
                return None
            conflict = propagate()
            if conflict is not None:
                self.num_conflicts += 1
                conflicts_here += 1
                total_conflicts += 1
                if not trail_lim:
                    self.ok = False
                    return False
                if len(trail_lim) <= n_assumptions:
                    # Conflict forced by assumptions alone.
                    self._backtrack(
                        min(keep_prefix, len(trail_lim) - 1)
                        if keep_prefix
                        else 0
                    )
                    return False
                learned, bt_level = self._analyze(conflict)
                self._backtrack(max(bt_level, 0))
                if len(trail_lim) < n_assumptions:
                    # Learned unit (or backjump) jumped into the assumption
                    # prefix; replay assumptions from scratch.
                    self._learn(learned)
                    self._backtrack(0)
                    continue
                self._learn(learned)
                self.var_inc /= VAR_DECAY
                continue
            if conflicts_here >= conflict_budget:
                restart_num += 1
                conflict_budget = RESTART_BASE * luby(restart_num)
                conflicts_here = 0
                self._backtrack(
                    len(self._assumption_levels) if keep_prefix else 0
                )
                continue
            if len(trail_lim) < n_assumptions:
                ext = assumptions[len(trail_lim)]
                ilit = _ilit(ext)
                value = self._lv[ilit]
                if value == 0:
                    if keep_prefix:
                        self._backtrack(min(keep_prefix, len(trail_lim)))
                    return False
                trail_lim.append(len(self.trail))
                self._assumption_levels.append(ext)
                if value == _UNDEF:
                    self._enqueue(ilit, None)
                continue
            decision = self._decide()
            if decision == _UNDEF:
                return True
            self.num_decisions += 1
            trail_lim.append(len(self.trail))
            self._enqueue(decision, None)

    def reset(self) -> None:
        """Backtrack to the root level (allows adding clauses after solve)."""
        self._backtrack(0)

    def copy(self) -> "Solver":
        """An independent solver in exactly this solver's state.

        The copy holds the same clauses in the same watch-list order, the
        same trail, heap layout, activities, phases and counters, so a
        call stream on it searches call for call as the same stream on
        this solver.  A clause sits in two watch lists (and maybe in
        ``reason``) and :meth:`_propagate` reorders its literals in
        place, so each clause is copied once and every reference to it
        points at that one copy.
        """
        twins: Dict[int, List[int]] = {}
        watches: List[List[List[int]]] = []
        for ws in self.watches:
            row = []
            for clause in ws:
                twin = twins.get(id(clause))
                if twin is None:
                    twin = twins[id(clause)] = clause[:]
                row.append(twin)
            watches.append(row)
        new = Solver()
        new.watches = watches
        # Every stored clause is watched, so every reason has a twin.
        new.reason = [
            None if clause is None else twins[id(clause)]
            for clause in self.reason
        ]
        new._lv = self._lv[:]
        new.level = self.level[:]
        new.trail = self.trail[:]
        new.trail_lim = self.trail_lim[:]
        new.qhead = self.qhead
        new.activity = self.activity[:]
        new.var_inc = self.var_inc
        new.phase = self.phase[:]
        new.heap.heap = self.heap.heap[:]
        new.heap.pos = self.heap.pos[:]
        new._restricted = self._restricted
        new.ok = self.ok
        new.num_conflicts = self.num_conflicts
        new.num_decisions = self.num_decisions
        new.num_propagations = self.num_propagations
        new._assumption_levels = self._assumption_levels[:]
        return new

    # -- model access ------------------------------------------------------------

    def model_value(self, ext: int) -> Optional[bool]:
        """Value of a DIMACS literal in the current model (None if free)."""
        if abs(ext) > self.num_vars:
            return None
        value = self._lv[_ilit(ext)]
        return None if value == _UNDEF else value == 1

    def model(self) -> List[bool]:
        """Full model as a list indexed by variable-1 (free vars -> False)."""
        return [value == 1 for value in self._lv[::2]]
