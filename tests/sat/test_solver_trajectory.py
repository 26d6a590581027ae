"""Pinned search trajectories of the CDCL solver.

Every ``solve()`` call below is checked against constants recorded from
the solver: its result, its cumulative propagation, decision and conflict
counters, and a digest of its model.  A faster kernel must make exactly
the same search — the same decisions, propagation order, conflicts,
learned clauses and model — so none of these may move.  Callers rely on
that: a budgeted query that answered before must answer the same way, or
optimization results would change.

The scripts cover Luby restarts, saved phases, assumptions, conflict
and propagation budgets that run out, ``keep_prefix`` reuse, and
``reset()`` followed by ``add_clause``.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.adders import ripple_carry_adder
from repro.netlist import renode
from repro.netlist.encode import encode_network
from repro.sat import Solver


def _outcome(solver, result):
    digest = None
    if result:
        digest = hashlib.sha256(bytes(solver.model())).hexdigest()[:12]
    return (
        result,
        solver.num_propagations,
        solver.num_decisions,
        solver.num_conflicts,
        digest,
    )


def _random_clauses(rng, n_vars, n_clauses):
    return [
        [rng.choice([1, -1]) * rng.randint(1, n_vars) for _ in range(3)]
        for _ in range(n_clauses)
    ]


def _random_lits(rng, n_vars, count):
    picked = rng.sample(range(1, n_vars + 1), count)
    return [rng.choice([1, -1]) * v for v in picked]


def _script_random():
    """Near-threshold random 3-CNFs: plain, assumed, budgeted, reused."""
    outcomes = []
    for seed, n_vars, n_clauses in ((0, 100, 426), (1, 120, 511)):
        rng = random.Random(seed)
        solver = Solver()
        for clause in _random_clauses(rng, n_vars, n_clauses):
            solver.add_clause(clause)

        def run(*args, **kwargs):
            outcomes.append(_outcome(solver, solver.solve(*args, **kwargs)))

        run()
        run(_random_lits(rng, n_vars, 4))
        run(_random_lits(rng, n_vars, 6), max_conflicts=2)
        run(_random_lits(rng, n_vars, 3), max_propagations=50)
        head = _random_lits(rng, n_vars, 2)
        for _ in range(4):
            run(head + _random_lits(rng, n_vars, 3), keep_prefix=2)
        run(head[:1] + _random_lits(rng, n_vars, 2), keep_prefix=2)
        solver.reset()
        for clause in _random_clauses(rng, n_vars, 25):
            solver.add_clause(clause)
        run()
        run(_random_lits(rng, n_vars, 5))
    return outcomes


def _script_unsat():
    """Over-constrained instances: budgets that run out, then the proof."""
    outcomes = []
    for seed, n_vars, n_clauses in ((5, 100, 500), (3, 80, 400)):
        rng = random.Random(seed)
        solver = Solver()
        for clause in _random_clauses(rng, n_vars, n_clauses):
            solver.add_clause(clause)
        for budget in (1, 20, 100):
            outcomes.append(
                _outcome(solver, solver.solve(max_conflicts=budget))
            )
        outcomes.append(_outcome(solver, solver.solve()))
        # An UNSAT formula stays UNSAT and rejects further clauses.
        outcomes.append(_outcome(solver, solver.solve([1])))
        outcomes.append((solver.add_clause([1, 2]),))
    return outcomes


def _script_care():
    """Care queries over a Tseitin-encoded renoded rca8, plus a miter.

    Mirrors secondary simplification: a primary encoding holds Σ, a second
    encoding of the same network over shared PIs grows cone by cone, and
    each query assumes ``!Σ`` plus one fan-in minterm of a node.
    """
    net = renode(ripple_carry_adder(8))
    solver = Solver()
    prim = encode_network(solver, net)
    pi_vars = [prim[pi] for pi in net.pis]
    sigma = prim[net.pos[-1][0]]
    sec = dict(zip(net.pis, pi_vars))
    outcomes = []
    order = [nid for nid in net.topo_order() if net.nodes[nid].fanins]
    for step, nid in enumerate(order[::3]):
        if nid not in sec:
            solver.reset()
            encode_network(solver, net, pi_vars=pi_vars, roots=[nid],
                           var_of=sec)
        fanins = net.nodes[nid].fanins
        for m in range(min(4, 1 << len(fanins))):
            assumptions = [-sigma] + [
                sec[f] if (m >> j) & 1 else -sec[f]
                for j, f in enumerate(fanins)
            ]
            if step % 2:
                result = solver.solve(assumptions, max_conflicts=200)
            else:
                result = solver.solve(assumptions, max_conflicts=200,
                                      keep_prefix=1)
            outcomes.append(_outcome(solver, result))
    # Miter: each primary output against its secondary copy.
    solver.reset()
    encode_network(solver, net, pi_vars=pi_vars, var_of=sec)
    for root, _neg in net.pos:
        a, b = prim[root], sec[root]
        solver.reset()
        x = solver.new_var()
        for clause in ([-x, a, b], [-x, -a, -b], [x, -a, b], [x, a, -b]):
            solver.add_clause(clause)
        outcomes.append(_outcome(solver, solver.solve([x])))
        outcomes.append(_outcome(solver, solver.solve([-x, a])))
    return outcomes


SCRIPTS = {
    "random": _script_random,
    "unsat": _script_unsat,
    "care": _script_care,
}


EXPECTED_PATH = Path(__file__).with_name("solver_trajectory.json")
"""Per-call outcomes ``[result, propagations, decisions, conflicts,
model digest]`` by script, recorded under the ``base`` key."""


@pytest.fixture(scope="module")
def expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


# One search strategy; the JSON keys its lists by its name, "base".
@pytest.mark.parametrize("config", ["base"])
@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_trajectory_is_pinned(expected, script, config):
    got = [list(o) for o in SCRIPTS[script]()]
    want = expected[script][config]
    assert len(got) == len(want)
    for call, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{script}/{config} call {call}"
