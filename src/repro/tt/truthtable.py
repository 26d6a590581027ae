"""Bit-parallel truth tables over a fixed variable count.

A :class:`TruthTable` stores the function table of a Boolean function of
``nvars`` inputs as a Python big-int: bit ``m`` holds ``f(m)`` where the
binary expansion of the minterm index ``m`` assigns variable ``i`` the bit
``(m >> i) & 1``.  Variable 0 is therefore the fastest-toggling column.

Truth tables are the workhorse representation for *local* node functions in
the technology-independent network and for cut functions in the AIG; they
are exact, hashable, and cheap up to ~20 variables.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Sequence, Tuple

MAX_VARS = 24
"""Hard cap on variable count; 2**24-bit ints are still fast enough."""

#: Pre-computed elementary truth-table masks for variable ``i`` in a table of
#: ``2**(i+1)`` bits; widened on demand by :func:`_var_bits`.
_VAR_CACHE: dict = {}


def _mask(nvars: int) -> int:
    """All-ones mask for a table of ``nvars`` variables."""
    return (1 << (1 << nvars)) - 1


def _var_bits(i: int, nvars: int) -> int:
    """Table bits of the projection function ``x_i`` over ``nvars`` variables.

    Built by mask doubling: starting from the minimal ``2**(i+1)``-bit
    block (e.g. ``0b1100`` for i=1), each widening step replicates the
    table into the upper half (``bits |= bits << 2**n``), so the
    construction is O(nvars) big-int ops instead of one per period.  The
    doubling resumes from the widest cached ``(i, m)`` prefix, so widening
    an already-cached variable costs only the missing steps.
    """
    key = (i, nvars)
    cached = _VAR_CACHE.get(key)
    if cached is not None:
        return cached
    base_n = i + 1
    half = 1 << i
    bits = ((1 << half) - 1) << half  # e.g. 0b1100 for i=1
    for m in range(nvars - 1, i, -1):
        prefix = _VAR_CACHE.get((i, m))
        if prefix is not None:
            base_n, bits = m, prefix
            break
    for n in range(base_n, nvars):
        bits |= bits << (1 << n)
    _VAR_CACHE[key] = bits
    return bits


class TruthTable:
    """Immutable truth table of a Boolean function of ``nvars`` inputs."""

    __slots__ = ("bits", "nvars")

    def __init__(self, bits: int, nvars: int):
        if not 0 <= nvars <= MAX_VARS:
            raise ValueError(f"nvars must be in [0, {MAX_VARS}], got {nvars}")
        self.nvars = nvars
        self.bits = bits & _mask(nvars)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: bool, nvars: int) -> "TruthTable":
        """Constant-0 or constant-1 function."""
        return cls(_mask(nvars) if value else 0, nvars)

    @classmethod
    def var(cls, i: int, nvars: int) -> "TruthTable":
        """Projection function ``x_i``."""
        if not 0 <= i < nvars:
            raise ValueError(f"variable {i} out of range for {nvars} vars")
        return cls(_var_bits(i, nvars), nvars)

    @classmethod
    def from_function(cls, fn: Callable[..., bool], nvars: int) -> "TruthTable":
        """Tabulate ``fn`` over all minterms; ``fn`` receives nvars bools."""
        bits = 0
        for m in range(1 << nvars):
            args = [bool((m >> i) & 1) for i in range(nvars)]
            if fn(*args):
                bits |= 1 << m
        return cls(bits, nvars)

    @classmethod
    def from_minterms(cls, minterms: Sequence[int], nvars: int) -> "TruthTable":
        """Function that is 1 exactly on the given minterm indices."""
        bits = 0
        for m in minterms:
            if not 0 <= m < (1 << nvars):
                raise ValueError(f"minterm {m} out of range")
            bits |= 1 << m
        return cls(bits, nvars)

    # -- Boolean algebra ---------------------------------------------------

    def _check(self, other: "TruthTable") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits & other.bits, self.nvars)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits | other.bits, self.nvars)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits ^ other.bits, self.nvars)

    def __invert__(self) -> "TruthTable":
        return TruthTable(~self.bits, self.nvars)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.nvars == other.nvars
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.bits, self.nvars))

    def __repr__(self) -> str:
        width = 1 << self.nvars
        return f"TruthTable({self.bits:0{max(1, width // 4)}x}, nvars={self.nvars})"

    # -- queries -----------------------------------------------------------

    @property
    def is_const0(self) -> bool:
        return self.bits == 0

    @property
    def is_const1(self) -> bool:
        return self.bits == _mask(self.nvars)

    def value(self, minterm: int) -> bool:
        """Evaluate the function on a minterm index."""
        return bool((self.bits >> minterm) & 1)

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Evaluate on a variable assignment (list of nvars bools)."""
        m = 0
        for i, bit in enumerate(assignment):
            if bit:
                m |= 1 << i
        return self.value(m)

    def count_ones(self) -> int:
        """Number of minterms in the on-set."""
        return bin(self.bits).count("1")

    def minterms(self) -> Iterator[int]:
        """Iterate over on-set minterm indices in increasing order."""
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def implies(self, other: "TruthTable") -> bool:
        """True iff ``self <= other`` pointwise."""
        self._check(other)
        return self.bits & ~other.bits == 0

    # -- cofactors and quantification ---------------------------------------

    def cofactor(self, i: int, value: bool) -> "TruthTable":
        """Shannon cofactor with respect to ``x_i = value`` (same nvars)."""
        v = _var_bits(i, self.nvars)
        shift = 1 << i
        if value:
            pos = self.bits & v
            return TruthTable(pos | (pos >> shift), self.nvars)
        neg = self.bits & ~v
        return TruthTable(neg | (neg << shift), self.nvars)

    def exists(self, i: int) -> "TruthTable":
        """Existential quantification of ``x_i``."""
        return self.cofactor(i, False) | self.cofactor(i, True)

    def forall(self, i: int) -> "TruthTable":
        """Universal quantification of ``x_i``."""
        return self.cofactor(i, False) & self.cofactor(i, True)

    def depends_on(self, i: int) -> bool:
        """True iff the function actually depends on ``x_i``."""
        # The x_i=1 half, shifted onto the x_i=0 half, differs from it:
        # the two cofactors compared without building either.
        v = _var_bits(i, self.nvars)
        bits = self.bits
        return ((bits & v) >> (1 << i)) != (bits & ~v)

    def support(self) -> List[int]:
        """Indices of variables the function depends on."""
        return [i for i in range(self.nvars) if self.depends_on(i)]

    # -- structural transforms ----------------------------------------------

    def permute(self, perm: Sequence[int]) -> "TruthTable":
        """Rename variables: new variable ``perm[i]`` takes old ``x_i``'s role.

        ``perm`` must be a permutation of ``range(nvars)``.  The returned
        table ``g`` satisfies ``g(y) = f(x)`` with ``y[perm[i]] = x[i]``.
        """
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("perm must be a permutation of range(nvars)")
        if list(perm) == list(range(self.nvars)):
            return self
        bits = 0
        for m in self.minterms():
            new_m = 0
            for i in range(self.nvars):
                if (m >> i) & 1:
                    new_m |= 1 << perm[i]
            bits |= 1 << new_m
        return TruthTable(bits, self.nvars)

    def flip(self, i: int) -> "TruthTable":
        """Negate input ``x_i`` (swap its two cofactors)."""
        v = _var_bits(i, self.nvars)
        shift = 1 << i
        pos = self.bits & v
        neg = self.bits & ~v
        return TruthTable((pos >> shift) | (neg << shift), self.nvars)

    def extend(self, nvars: int) -> "TruthTable":
        """Re-express over a larger variable set (new variables are dummies)."""
        if nvars < self.nvars:
            raise ValueError("extend target smaller than current nvars")
        bits = self.bits
        for n in range(self.nvars, nvars):
            bits |= bits << (1 << n)
        return TruthTable(bits, nvars)

    def shrink(self) -> Tuple["TruthTable", List[int]]:
        """Project onto the true support.

        Returns ``(g, support)`` where ``g`` is over ``len(support)``
        variables and ``g(x[support])  == f(x)``.
        """
        sup = self.support()
        if len(sup) == self.nvars:
            return self, sup
        g_bits = 0
        for m in range(1 << len(sup)):
            full = 0
            for j, i in enumerate(sup):
                if (m >> j) & 1:
                    full |= 1 << i
            if self.value(full):
                g_bits |= 1 << m
        return TruthTable(g_bits, len(sup)), sup

    def compose(self, tables: Sequence["TruthTable"]) -> "TruthTable":
        """Substitute ``tables[i]`` for ``x_i``; all inputs share an nvars."""
        if len(tables) != self.nvars:
            raise ValueError("need one table per variable")
        if self.nvars == 0:
            target = 0
        else:
            target = tables[0].nvars
            for t in tables:
                if t.nvars != target:
                    raise ValueError("composed tables must share nvars")
        result = TruthTable.const(False, target)
        # Shannon expansion over self's minterms: OR of minterm conditions.
        for m in self.minterms():
            term = TruthTable.const(True, target)
            for i in range(self.nvars):
                lit = tables[i] if (m >> i) & 1 else ~tables[i]
                term &= lit
                if term.is_const0:
                    break
            result |= term
        return result


def cube_tt(mask: int, value: int, nvars: int) -> TruthTable:
    """Truth table of a cube: AND of literals.

    ``mask`` selects the variables present in the cube; ``value`` gives the
    required polarity bit for each selected variable.
    """
    t = TruthTable.const(True, nvars)
    for i in range(nvars):
        if (mask >> i) & 1:
            v = TruthTable.var(i, nvars)
            t &= v if (value >> i) & 1 else ~v
    return t
