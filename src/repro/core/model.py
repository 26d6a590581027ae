"""Global-function models of a (mutating) technology-independent network.

Cube weights — the guide metric of `Simplify` — need the global function of
every network node in the same domain as the SPCF.  Two interchangeable
models are provided:

* :class:`ExactModel` — global truth tables over the PIs (small circuits);
* :class:`SignatureModel` — packed random-simulation signatures (any size).

All of them expose the same small algebra (literal/conj/complement/count)
so the core algorithms are mode-agnostic; the exact ones also answer
emptiness (``conj_is_zero``) for the care checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..netlist import Network, min_sops
from ..sop import Cube
from ..tt import TruthTable
from .spcf import Spcf


class ExactModel:
    """Global truth tables of every network node."""

    mode = "tt"

    def __init__(self, net: Network):
        self.net = net
        self.num_pis = len(net.pis)
        self.fns: Dict[int, TruthTable] = {}
        self.recompute()

    def recompute(self) -> None:
        """Recompute all node functions after network mutation."""
        self.fns = self.net.global_tts()

    def fn(self, nid: int) -> TruthTable:
        return self.fns[nid]

    def literal(self, fn: TruthTable, pol: bool) -> TruthTable:
        return fn if pol else ~fn

    def conj(self, fns: Sequence[TruthTable]) -> TruthTable:
        out = TruthTable.const(True, self.num_pis)
        for f in fns:
            out &= f
            if out.is_const0:
                break
        return out

    def complement(self, fn: TruthTable) -> TruthTable:
        return ~fn

    def count(self, fn: TruthTable) -> int:
        return fn.count_ones()

    def conj_is_zero(self, fns: Sequence[TruthTable]) -> bool:
        """Whether the conjunction of ``fns`` is empty."""
        return self.conj(fns).is_const0

    def cube_literals(self, nid: int, cube: Cube) -> List[TruthTable]:
        """Global literals of the fan-ins of ``nid`` that ``cube`` fixes."""
        fanins = self.net.nodes[nid].fanins
        return [
            self.literal(self.fn(fanins[var]), pol)
            for var, pol in cube.literals()
        ]

    def cube_condition(self, nid: int, cube: Cube) -> TruthTable:
        """Global condition: node ``nid``'s fan-ins lie inside ``cube``."""
        return self.conj(self.cube_literals(nid, cube))

    def spcf_fn(self, spcf: Spcf) -> TruthTable:
        if spcf.mode != "tt":
            raise ValueError("SPCF domain mismatch (expected tt)")
        return spcf.tt

    def cube_weight(self, spcf_fn: TruthTable, nid: int, cube: Cube) -> float:
        """Fraction of SPCF minterms driving the node's fan-ins into cube."""
        total = self.count(spcf_fn)
        if total == 0:
            return 0.0
        hit = self.count(self.conj([spcf_fn, self.cube_condition(nid, cube)]))
        return hit / total


class BddModel:
    """Global BDD functions of every network node (exact, mid-size PIs).

    Same interface as :class:`ExactModel` with BDD references as the
    function domain; raises :class:`BddBlowup` when the manager exceeds
    its node budget so callers can fall back to signatures.
    """

    mode = "bdd"

    def __init__(self, net: Network, bdd=None, size_limit: int = 500_000):
        from ..bdd import BDD

        self.net = net
        self.num_pis = len(net.pis)
        self.bdd = bdd if bdd is not None else BDD()
        self.size_limit = size_limit
        self.fns: Dict[int, int] = {}
        self.recompute()

    def recompute(self) -> None:
        from ..bdd import FALSE, TRUE, ref_not

        bdd = self.bdd
        fns: Dict[int, int] = {}
        for i, pi in enumerate(self.net.pis):
            fns[pi] = bdd.var(i)
        for nid in self.net.topo_order():
            node = self.net.nodes[nid]
            tt = node.tt
            if tt.is_const0:
                fns[nid] = FALSE
                continue
            if tt.is_const1:
                fns[nid] = TRUE
                continue
            on_cover, _ = min_sops(tt)
            acc = FALSE
            for cube in on_cover:
                term = TRUE
                for var, pol in cube.literals():
                    f = fns[node.fanins[var]]
                    term = bdd.and_(term, f if pol else ref_not(f))
                    if term == FALSE:
                        break
                acc = bdd.or_(acc, term)
            fns[nid] = acc
            if bdd.size() > self.size_limit:
                raise BddBlowup(
                    f"BDD manager exceeded {self.size_limit} nodes"
                )
        self.fns = fns

    def fn(self, nid: int) -> int:
        return self.fns[nid]

    def literal(self, fn: int, pol: bool) -> int:
        from ..bdd import ref_not

        return fn if pol else ref_not(fn)

    def conj(self, fns: Sequence[int]) -> int:
        from ..bdd import FALSE, TRUE

        acc = TRUE
        for f in fns:
            acc = self.bdd.and_(acc, f)
            if acc == FALSE:
                break
        return acc

    def complement(self, fn: int) -> int:
        from ..bdd import ref_not

        return ref_not(fn)

    def count(self, fn: int) -> int:
        return self.bdd.sat_count(fn, self.num_pis)

    def conj_is_zero(self, fns: Sequence[int]) -> bool:
        """Whether the conjunction of ``fns`` is empty, building no node."""
        return self.bdd.conj_is_false(fns)

    def cube_literals(self, nid: int, cube: Cube) -> List[int]:
        fanins = self.net.nodes[nid].fanins
        return [
            self.literal(self.fn(fanins[var]), pol)
            for var, pol in cube.literals()
        ]

    def cube_condition(self, nid: int, cube: Cube) -> int:
        return self.conj(self.cube_literals(nid, cube))

    def spcf_fn(self, spcf) -> int:
        if spcf.mode != "bdd":
            raise ValueError("SPCF domain mismatch (expected bdd)")
        if spcf.bdd is not self.bdd:
            raise ValueError("SPCF built in a different BDD manager")
        return spcf.ref

    def cube_weight(self, spcf_fn: int, nid: int, cube: Cube) -> float:
        total = self.count(spcf_fn)
        if total == 0:
            return 0.0
        hit = self.count(
            self.conj([spcf_fn, self.cube_condition(nid, cube)])
        )
        return hit / total


class BddBlowup(RuntimeError):
    """Raised when a BDD-domain model exceeds its node budget."""


class SignatureModel:
    """Packed random-simulation signatures of every network node."""

    mode = "sim"

    def __init__(self, net: Network, pi_words: Sequence[int], width: int):
        if len(pi_words) != len(net.pis):
            raise ValueError("one pattern word per PI required")
        self.net = net
        self.width = width
        self.mask = (1 << width) - 1
        self.pi_words = list(pi_words)
        self.fns: Dict[int, int] = {}
        self.recompute()

    def recompute(self) -> None:
        """Re-evaluate every node (after nodes were added, say)."""
        self.fns = {
            pi: word & self.mask
            for pi, word in zip(self.net.pis, self.pi_words)
        }
        self.update(self.net.topo_order())

    def update(self, nids: Iterable[int]) -> None:
        """Re-evaluate ``nids``, given in topological order, in place.

        After ``set_function(nid, ...)`` the words that change are those
        of ``nid``'s transitive fanout; every other word stays valid.
        """
        fns = self.fns
        nodes = self.net.nodes
        mask = self.mask
        for nid in nids:
            node = nodes[nid]
            fns[nid] = eval_words(node.tt, [fns[f] for f in node.fanins], mask)

    def fn(self, nid: int) -> int:
        return self.fns[nid]

    def literal(self, fn: int, pol: bool) -> int:
        return fn if pol else (fn ^ self.mask)

    def conj(self, fns: Sequence[int]) -> int:
        out = self.mask
        for f in fns:
            out &= f
            if not out:
                break
        return out

    def complement(self, fn: int) -> int:
        return fn ^ self.mask

    def count(self, fn: int) -> int:
        return bin(fn).count("1")

    def cube_condition(self, nid: int, cube: Cube) -> int:
        node = self.net.nodes[nid]
        terms = [
            self.literal(self.fn(node.fanins[var]), pol)
            for var, pol in cube.literals()
        ]
        return self.conj(terms)

    def spcf_fn(self, spcf: Spcf) -> int:
        if spcf.mode != "sim":
            raise ValueError("SPCF domain mismatch (expected sim)")
        return spcf.signature & self.mask

    def cube_weight(self, spcf_fn: int, nid: int, cube: Cube) -> float:
        total = self.count(spcf_fn)
        if total == 0:
            return 0.0
        hit = self.count(spcf_fn & self.cube_condition(nid, cube))
        return hit / total


def eval_words(tt: TruthTable, fanin_words: List[int], mask: int) -> int:
    """Bit-parallel value of a local function over packed fan-in words.

    Bit ``w`` of the result is ``tt`` applied to bit ``w`` of every
    fan-in word, for the bits set in ``mask``.
    """
    if tt.is_const0:
        return 0
    if tt.is_const1:
        return mask
    on_cover, _off = min_sops(tt)
    out = 0
    for cube in on_cover:
        term = mask
        for var, pol in cube.literals():
            w = fanin_words[var]
            term &= w if pol else (w ^ mask)
            if not term:
                break
        out |= term
        if out == mask:
            break
    return out
