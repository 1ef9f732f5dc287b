"""Numerical sets, associated partitions, hook sets and admissible pairs.

A numerical set is a co-finite subset of the nonnegative integers containing
0, with no closure requirement.  Each one has an associated partition (one
part per gap, counting the smaller members), whose hook-length set is the
complement of the stabilizer set A(S) = {x : x + s in S for all s in S}.
Hooks are read from A(S), which one kernel computes from the set's bitmap.
The triple-core machinery asks whether s, s+1 and s+p all lie in A(S) with
s + p below the Frobenius number.
"""

from functools import reduce
from itertools import accumulate, compress, pairwise
from operator import index, lt, or_

from .exactmath import _int_text

SET_BOUND = 10**6    # largest Frobenius number a NumericalSet will materialize
ENUM_BOUND = 10**4   # largest Frobenius number enumerate_admissible will sweep
PAIR_BOUND = 5 * 10**6  # most admissible pairs enumerate_admissible will list: ~0.5 GB of
                        # tuples, and above the (F-2)(F-3)/2 pairs any set with F <= 3000 can have


def _all_members(frobenius: int) -> bytearray:
    """The bitmap of every integer from 0 to frobenius, each a member: the
    start of a set with that Frobenius number, refused above SET_BOUND
    before it is allocated."""
    if frobenius > SET_BOUND:
        raise ValueError(f"Frobenius number {_int_text(frobenius)} exceeds the bound {SET_BOUND}")
    return bytearray(b"\x01" * (frobenius + 1))


class NumericalSet:
    """Co-finite subset of N containing 0, stored as a bitmap up to its
    Frobenius number, which may not exceed SET_BOUND.  The gaps are read
    through `operator.index`, so a float raises TypeError."""

    def __init__(self, gaps=()):
        gaps = list(map(index, gaps))
        if gaps and min(gaps) < 1:
            raise ValueError("gaps must be positive (0 always belongs to the set)")
        self.frobenius = max(gaps, default=-1)
        self._member = _all_members(self.frobenius)
        for g in gaps:
            self._member[g] = 0

    @classmethod
    def from_semigroup(cls, semigroup) -> "NumericalSet":
        """The semigroup as a set: the gaps of the class r mod m are r, r + m,
        ..., below its Apery element w, so one slice clears (w - r) / m bytes."""
        frobenius = semigroup.frobenius()
        member = _all_members(frobenius)
        m, entries = semigroup.apery
        zeros = memoryview(bytes(frobenius // m + 1))
        for r, w in enumerate(entries):
            member[r:w:m] = zeros[:(w - r) // m]
        return cls._from_bitmap(member)

    @classmethod
    def _from_bitmap(cls, member) -> "NumericalSet":
        """The set whose bitmap is `member`, one byte per integer up to its
        Frobenius number F (0 at F); unchecked, as each caller builds it
        within SET_BOUND."""
        S = cls.__new__(cls)
        S.frobenius, S._member = len(member) - 1, member
        return S

    def __contains__(self, m: int) -> bool:
        """m is read through `operator.index`, so a float raises TypeError."""
        m = index(m)
        if m < 0:
            return False
        if m > self.frobenius:
            return True
        return bool(self._member[m])

    def gaps(self) -> list[int]:
        return list(compress(range(self.frobenius + 1), self._member.translate(_GAP_FLAGS)))

    def members_below_frobenius(self) -> list[int]:
        return list(compress(range(self.frobenius + 1), self._member))

    def __eq__(self, other):
        if not isinstance(other, NumericalSet):
            return NotImplemented
        return self.frobenius == other.frobenius and self._member == other._member

    def __hash__(self):
        return hash((self.frobenius, bytes(self._member)))

    def __repr__(self):
        shown = self.members_below_frobenius()[:8]
        return f"NumericalSet(members {shown}..., F={self.frobenius})"


class Partition(tuple):
    """Integer partition as a weakly decreasing tuple of positive parts; it
    equals, and hashes as, the plain tuple of its parts.  The parts are read
    through `operator.index`, so a float raises TypeError."""
    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(map(index, parts))
        if min(parts, default=1) < 1:
            raise ValueError("partition parts must be positive")
        if any(map(lt, parts, parts[1:])):
            raise ValueError("partition parts must be weakly decreasing")
        return super().__new__(cls, parts)

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self):
        return f"Partition{self.parts}"


_GAP_FLAGS = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # NumericalSet._member -> 1 at each gap
_GAP_DIGITS = bytes.maketrans(b"\x00\x01", b"10")     # NumericalSet._member -> "1" at each gap
_MEMBER_FLAGS = bytes.maketrans(b"01", b"\x01\x00")   # "1" at each gap -> 1 at each member


def _a_set_bitmap(member) -> bytearray:
    """Bitmap of A(S) (as `NumericalSet._member`) from the bitmap of S.

    x is missing from A(S) iff x = g - s for a gap g and a member s, so the
    gaps of A(S) are the OR of gaps >> s over the members; with fewer gaps
    than members, both masks are mirrored in F, x = (F - s) - (F - g), to
    shift once per gap instead.  Masks go in and out as binary strings,
    linear in F.
    """
    gaps = member.translate(_GAP_DIGITS)  # read as an int: bit F - g per gap g
    if 2 * gaps.count(b"1") < len(gaps):
        # mirrored: bit F - s per member s (the gap bits flipped), shifted by each F - g
        mask, shifts = int(gaps, 2) ^ ((1 << len(gaps)) - 1), member.translate(_GAP_FLAGS)[::-1]
    else:  # bit g per gap g, shifted by each member s; the leading 0 reads b"" as 0
        mask, shifts = int(b"0" + gaps[::-1], 2), member
    bad = reduce(or_, (mask >> s for s in compress(range(len(shifts)), shifts)), 0)
    # F = F - 0 is missing from A(S), so bad has F + 1 binary digits; the
    # empty bitmap (F = -1) keeps none of the one digit of bin(0)
    return bytearray(bin(bad)[:1:-1][:len(member)], "ascii").translate(_MEMBER_FLAGS)


def a_set(S: NumericalSet) -> NumericalSet:
    """A(S) = {x >= 0 : x + s in S for all s in S}; a subset of S, equal to S
    when S is additively closed.

    A(S) has the Frobenius number of S: it lies inside S (take s = 0), F + 0
    is not in S, and x + s > F for every x > F and s >= 0.
    """
    return NumericalSet._from_bitmap(_a_set_bitmap(S._member))


def partition_of(S: NumericalSet) -> Partition:
    """Associated partition: one part per gap g_i (i from 0), the g_i - i
    members below it, read off the running member count at each gap."""
    parts = list(compress(accumulate(S._member), S._member.translate(_GAP_FLAGS)))
    return Partition(parts[::-1])


def hook_set(partition: Partition) -> list[int]:
    """Distinct hook lengths over the cells of the Young diagram, ascending.

    They are the positive integers missing from A(S), where S is the
    NumericalSet (so F <= SET_BOUND) whose gaps are p_i + i for the parts
    p_0 <= p_1 <= ... (Keith and Nath, "Partitions with prescribed
    hooksets", 2011).  The argument is read as a `Partition`, so parts that
    are not positive and weakly decreasing raise its ValueError.
    """
    return a_set(NumericalSet(p + i for i, p in enumerate(reversed(Partition(partition))))).gaps()


def is_s_core(partition: Partition, s: int) -> bool:
    """True iff no hook length of the partition is divisible by s, read as an
    integer (`operator.index`), so a float raises TypeError."""
    s = index(s)
    if s < 1:
        raise ValueError(f"need s >= 1, got {_int_text(s)}")
    return all(h % s for h in hook_set(partition))


def is_triple_core(S: NumericalSet, s: int, p: int) -> bool:
    """True iff s, s+1 and s+p all lie in A(S).

    Equivalently the associated partition has no hook divisible by any of
    s, s+1, s+p.  s and p are read as integers (`operator.index`), so a
    float raises TypeError.
    """
    s, p = index(s), index(p)
    if s < 1 or p < 2:
        raise ValueError(f"need s >= 1 and p >= 2, got s={_int_text(s)}, p={_int_text(p)}")
    A = a_set(S)
    return s in A and s + 1 in A and s + p in A


def is_admissible(S: NumericalSet, s: int, p: int) -> bool:
    """Triple-core condition plus the strict bound s + p < F(S); s and p are
    read as integers, as there."""
    s, p = index(s), index(p)
    return is_triple_core(S, s, p) and s + p < S.frobenius


def enumerate_admissible(S: NumericalSet) -> list[tuple[int, int]]:
    """All admissible pairs (s, p), sorted by s then p, by finite brute force
    over F(S) <= ENUM_BOUND.  The pairs are counted first, and more than
    PAIR_BOUND of them raise ValueError before any is listed."""
    f = S.frobenius
    if f > ENUM_BOUND:
        raise ValueError(f"Frobenius number {f} exceeds the enumeration bound {ENUM_BOUND}")
    # F(A(S)) = F(S), so A's members below its own Frobenius number are those below F
    members = a_set(S).members_below_frobenius()
    # each s with s, s+1 in A pairs with every member q >= s + 2 below F, the
    # members after s + 1
    starts = [(s, i + 2) for i, (s, t) in enumerate(pairwise(members)) if s >= 1 and t == s + 1]
    count = sum(len(members) - i for _, i in starts)
    if count > PAIR_BOUND:
        raise ValueError(f"{count} admissible pairs exceed the pair bound {PAIR_BOUND}")
    return [(s, q - s) for s, i in starts for q in members[i:]]
