"""Generic numerical-semigroup engine.

A numerical semigroup is an additively closed, co-finite subset of the
nonnegative integers containing 0.  This module computes with arbitrary
generating sets: minimal generators, Apery tables, Frobenius number, genus,
gaps, pseudo-Frobenius numbers, symmetry and the telescopic chain condition.
It serves as the brute-force oracle against which `oracle` cross-checks
the closed forms in `binomial`.

Apery tables come from the round robin of Böcker and Lipták ("A fast and
simple algorithm for the money changing problem", Algorithmica 2007): one
generator is added to a table mod m in O(m), so one pass over the sorted
candidates keeps one table and finds the minimal system on the way.
"""

import sys
from collections import namedtuple
from math import gcd, inf
from operator import index


def _int_text(x: int) -> str:
    """x in decimal for a message, or its bit length when x has more digits
    than the interpreter's int-to-str limit.  A copy of `exactmath._int_text`:
    the engine imports nothing from the package."""
    try:
        return str(x)
    except ValueError:
        return f"{'-' * (x < 0)}<{x.bit_length()}-bit integer>"


class NotANumericalSemigroup(ValueError):
    """The generating set has gcd > 1, so the complement is infinite."""

    def __init__(self, gcd_value: int):
        super().__init__(
            f"generators have gcd {_int_text(gcd_value)}; a numerical semigroup requires gcd 1")
        self.gcd = gcd_value


class AperyTable(namedtuple("AperyTable", "base entries")):
    """Least element of the semigroup in each residue class mod `base`.

    entries[r] is the smallest element congruent to r; entries[0] is 0.
    """
    __slots__ = ()


def _add_generator(table, g):
    """Update `table`, the least element (math.inf if none) in each class mod
    base, for any number of copies of g.  The classes that agree mod
    gcd(base, g) form a cycle under +g; one walk round it from its least
    entry, which cannot improve, settles the rest.  O(base) in all."""
    base = len(table)
    d = gcd(base, g)
    for start in range(d):
        w = min(table[start::d])
        if w == inf:
            continue
        for _ in range(base // d - 1):
            w += g
            r = w % base
            if w < table[r]:
                table[r] = w
            else:
                w = table[r]


def _apery_table(generators, base):
    """Least element of <base, generators> in each class mod base, and the
    generators that did not lie in <base, the earlier ones>."""
    if base > sys.maxsize:  # refused before the table's one entry per class is allocated
        raise ValueError(
            f"Apery table base <{base.bit_length()}-bit integer> has more classes than a list "
            "can index")
    table = [0] + [inf] * (base - 1)
    new = []
    for g in generators:
        if g < table[g % base]:
            new.append(g)
            _add_generator(table, g)
    return table, new


def minimal_generators(raw) -> list[int]:
    """The unique inclusion-minimal subset of `raw` generating the same monoid.
    Each generator is read through `operator.index`, so a float raises
    TypeError."""
    gens = sorted(set(map(index, raw)))
    if not gens:
        raise ValueError("need at least one generator")
    if gens[0] < 1:
        raise ValueError("generators must be positive integers")
    g = gcd(*gens)
    if g != 1:
        raise NotANumericalSemigroup(g)
    return [gens[0], *_apery_table(gens, gens[0])[1]]


class NumericalSemigroup:
    """Numerical semigroup given by any generating set with gcd 1.

    The constructor extracts the minimal system of generators and eagerly
    computes the Apery table at the multiplicity; instances are immutable
    afterwards and safe to share.
    """

    def __init__(self, generators):
        self.generators = tuple(minimal_generators(generators))
        self.multiplicity = self.generators[0]
        self.apery = AperyTable(
            self.multiplicity, tuple(_apery_table(self.generators, self.multiplicity)[0]))

    def __repr__(self):
        return f"NumericalSemigroup([{', '.join(map(_int_text, self.generators))}])"

    def apery_set(self, x: int | None = None) -> AperyTable:
        """Apery table at x, which must be a nonzero element (default:
        multiplicity).  x is read through `operator.index`, so a float
        raises TypeError."""
        x = self.multiplicity if x is None else index(x)
        if x == self.multiplicity:
            return self.apery
        if x < 1 or x not in self:
            raise ValueError(f"{_int_text(x)} is not a nonzero element of {self!r}")
        return AperyTable(x, tuple(_apery_table(self.generators, x)[0]))

    def __contains__(self, m: int) -> bool:
        """m is read through `operator.index`, so a float raises TypeError."""
        m = index(m)
        if m < 0:
            return False
        return m >= self.apery.entries[m % self.multiplicity]

    def frobenius(self) -> int:
        """Largest integer not in the semigroup; -1 when there are no gaps."""
        return max(self.apery.entries) - self.multiplicity

    def genus(self) -> int:
        """Number of gaps, from the Apery table: sum(entries)/x - (x-1)/2."""
        x = self.multiplicity
        # exact: each entry r is finite (gcd 1) and r + x*q_r, so the entries
        # sum to x(x-1)/2 + x*sum(q_r)
        return (2 * sum(self.apery.entries) - x * (x - 1)) // (2 * x)

    def gaps(self) -> list[int]:
        """All nonnegative integers outside the semigroup, ascending."""
        x = self.multiplicity
        out = []
        for r, w in enumerate(self.apery.entries):
            out.extend(range(r, w, x))
        out.sort()
        return out

    def pseudo_frobenius(self) -> list[int]:
        """Integers v not in S with v + s in S for every nonzero s in S.

        Computed as {w - multiplicity : w maximal in the Apery set}.  The Apery
        set is closed under taking summands, so w is maximal iff w + g is not
        in it for any minimal generator g other than the multiplicity: O(m*e).
        """
        ents, m = self.apery.entries, self.multiplicity
        out = [w - m for w in ents
               if all(ents[(w + g) % m] != w + g for g in self.generators[1:])]
        out.sort()
        return out

    def is_symmetric(self) -> bool:
        """True iff the genus is exactly (frobenius + 1)/2."""
        return 2 * self.genus() == self.frobenius() + 1

    def is_telescopic(self) -> bool:
        """Chain condition on the sorted generators n_1 < ... < n_e.

        With d_1 = n_1 and d_i = gcd(d_{i-1}, n_i), every n_i/d_i must lie in
        the semigroup generated by n_1/d_{i-1}, ..., n_{i-1}/d_{i-1}.  The
        scaled prefix always has gcd 1, so one Apery table pass over it, at
        its least member, decides membership: x is in it iff x is at least
        the table's entry in x's class.  No prefix semigroup is built.  ⟨1⟩
        is telescopic by convention.
        """
        gens = self.generators
        d = gens[0]
        for i in range(1, len(gens)):
            d_next = gcd(d, gens[i])
            table = _apery_table([g // d for g in gens[:i]], gens[0] // d)[0]
            x = gens[i] // d_next
            if x < table[x % len(table)]:
                return False
            d = d_next
        return True
