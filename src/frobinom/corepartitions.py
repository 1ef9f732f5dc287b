"""Numerical sets, associated partitions, hook sets and admissible pairs.

A numerical set is a co-finite subset of the nonnegative integers containing
0, with no closure requirement.  Each one has an associated partition (one
part per gap, counting the smaller members), whose hook-length set is the
complement of the stabilizer set A(S) = {x : x + s in S for all s in S}.
Hooks are read from A(S), which one kernel computes from the set's bitmap.
The triple-core machinery asks whether s, s+1 and s+p all lie in A(S) with
s + p below the Frobenius number; the closed-form Apery lookups from
`binomial` let those questions be answered for the binomial-coefficient
semigroups at sizes where the gap set itself is astronomically large.
"""

from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate, compress
from operator import lt, mul

from .binomial import _coordinates, _proper_box, bn_spec

SET_BOUND = 10**6    # largest Frobenius number a NumericalSet will materialize
ENUM_BOUND = 10**4   # largest Frobenius number enumerate_admissible will sweep
PAIR_BOUND = 5 * 10**6  # most admissible pairs enumerate_admissible will list: ~0.5 GB of
                        # tuples, and above the (F-2)(F-3)/2 pairs any set with F <= 3000 can have


class NumericalSet:
    """Co-finite subset of N containing 0, stored as a bitmap up to its
    Frobenius number, which may not exceed SET_BOUND."""

    def __init__(self, gaps=()):
        gaps = list(gaps)
        if gaps and min(gaps) < 1:
            raise ValueError("gaps must be positive (0 always belongs to the set)")
        frobenius = max(gaps, default=-1)
        if frobenius > SET_BOUND:
            raise ValueError(f"Frobenius number {frobenius} exceeds the bound {SET_BOUND}")
        self.frobenius = frobenius
        self._member = bytearray(b"\x01" * (frobenius + 1))
        for g in gaps:
            self._member[g] = 0

    @classmethod
    def from_semigroup(cls, semigroup) -> "NumericalSet":
        """The semigroup as a set: the gaps of the class r mod m are r, r + m,
        ..., below its Apery element w, so one slice clears (w - r) / m bytes."""
        frobenius = semigroup.frobenius()
        if frobenius > SET_BOUND:
            raise ValueError(f"Frobenius number {frobenius} exceeds the bound {SET_BOUND}")
        m, entries = semigroup.apery
        member = bytearray(b"\x01" * (frobenius + 1))
        zeros = memoryview(bytes(frobenius // m + 1))
        for r, w in enumerate(entries):
            member[r:w:m] = zeros[:(w - r) // m]
        S = cls.__new__(cls)
        S.frobenius, S._member = frobenius, member
        return S

    def contains(self, m: int) -> bool:
        if m < 0:
            return False
        if m > self.frobenius:
            return True
        return bool(self._member[m])

    __contains__ = contains

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


class Partition:
    """Integer partition as a weakly decreasing tuple of positive parts."""

    def __init__(self, parts=()):
        parts = tuple(parts)
        if min(parts, default=1) < 1:
            raise ValueError("partition parts must be positive")
        if any(map(lt, parts, parts[1:])):
            raise ValueError("partition parts must be weakly decreasing")
        self.parts = parts

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


_GAP_FLAGS = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # NumericalSet._member -> 1 at each gap
_GAP_DIGITS = bytes.maketrans(b"\x00\x01", b"10")     # NumericalSet._member -> "1" at each gap
_MEMBER_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # NumericalSet._member -> "1" at each member


def _a_set_gaps(member) -> list[int]:
    """Gaps of A(S), ascending, from the bitmap of S (`NumericalSet._member`).

    x is missing from A(S) iff x = g - s for a gap g and a member s, so the
    result is the OR of gaps >> s over the members; with fewer gaps than
    members, both masks are mirrored in F, x = (F - s) - (F - g), to shift
    once per gap instead.  Masks go in and out as binary strings, linear in F.
    """
    gaps, members = member.translate(_GAP_DIGITS), member.translate(_MEMBER_DIGITS)
    mask, shifts = gaps[::-1], members  # bit g per gap g, shifted by each member s
    if 2 * gaps.count(b"1") < len(gaps):
        mask, shifts = members, gaps[::-1]  # mirrored: bit F - s, shifted by each F - g
    mask = int(b"0" + mask, 2)  # the leading 0 reads the empty bitmap as 0
    bad = 0
    for s, digit in enumerate(shifts):
        if digit == ord("1"):
            bad |= mask >> s
    return [x for x, digit in enumerate(bin(bad)[:1:-1]) if digit == "1"]


def a_set(S: NumericalSet) -> NumericalSet:
    """A(S) = {x >= 0 : x + s in S for all s in S}; a subset of S, equal to S
    when S is additively closed."""
    return NumericalSet(_a_set_gaps(S._member))


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
    hooksets", 2011).
    """
    S = NumericalSet(p + i for i, p in enumerate(reversed(partition.parts)))
    return _a_set_gaps(S._member)


def is_s_core(partition: Partition, s: int) -> bool:
    """True iff no hook length of the partition is divisible by s."""
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    return all(h % s for h in hook_set(partition))


def is_triple_core(S: NumericalSet, s: int, p: int) -> bool:
    """True iff s, s+1 and s+p all lie in A(S).

    Equivalently the associated partition has no hook divisible by any of
    s, s+1, s+p.
    """
    if s < 1 or p < 2:
        raise ValueError(f"need s >= 1 and p >= 2, got s={s}, p={p}")
    A = a_set(S)
    return s in A and s + 1 in A and s + p in A


def is_admissible(S: NumericalSet, s: int, p: int) -> bool:
    """Triple-core condition plus the strict bound s + p < F(S)."""
    return is_triple_core(S, s, p) and s + p < S.frobenius


def enumerate_admissible(S: NumericalSet) -> list[tuple[int, int]]:
    """All admissible pairs (s, p), sorted by s then p, by finite brute force
    over F(S) <= ENUM_BOUND.  The pairs are counted first, and more than
    PAIR_BOUND of them raise ValueError before any is listed."""
    f = S.frobenius
    if f > ENUM_BOUND:
        raise ValueError(f"Frobenius number {f} exceeds the enumeration bound {ENUM_BOUND}")
    A = a_set(S)
    members = [x for x in range(f) if x in A]
    # each s with s, s+1 in A pairs with every member q >= s + 2 below F
    starts = [(s, bisect_left(members, s + 2)) for s in members if s >= 1 and s + 1 in A]
    count = sum(len(members) - i for _, i in starts)
    if count > PAIR_BOUND:
        raise ValueError(f"{count} admissible pairs exceed the pair bound {PAIR_BOUND}")
    return [(s, q - s) for s, i in starts for q in members[i:]]


class AdmissiblePairResult(namedtuple("AdmissiblePairResult", "triple count")):
    """Output of the triple-completion algorithm: the triple (s, s+1, s+p) and
    its associated count."""
    __slots__ = ()


def _triple(box, s: int, p: int):
    """The box coordinates of the Apery representatives of the classes of
    s, s+1, s+p; the value of the largest of them; and the completion of
    that largest into a triple (t, t+1, t+p) in those classes.  For p >= 2;
    the classes collide for every s when p is 0 or 1 mod base.

    t is the largest representative raised by 0 when it is the class of s,
    by base - 1 when it is the class of s+1, and by the least multiple of
    the base that is >= p, minus p, when it is the class of s+p; that last
    shift keeps t above its own representative when p > base.  When the box
    is ordered the largest representative is the one whose coordinates,
    read from the largest generator down, are largest, so only its value is
    summed; otherwise all three are.
    """
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    base = box.base
    if p % base in (0, 1):
        raise ValueError(
            f"residues of (s, s+1, s+{p}) collide mod {base} for every s")
    coords = [_coordinates(box, s + d) for d in (0, 1, p)]
    if box.ordered:
        keys = [c[::-1] for c in coords]
        at = keys.index(max(keys))
        top = sum(map(mul, coords[at], box.values))
    else:
        reps = [sum(map(mul, c, box.values)) for c in coords]
        top = max(reps)
        at = reps.index(top)
    t = top + (0, base - 1, -(-p // base) * base - p)[at]
    return coords, top, (t, t + 1, t + p)


def algorithm1(n: int, s_seed: int, p: int, force_base: bool = False) -> AdmissiblePairResult:
    """Triple completion over the closed-form Apery set of the binomial semigroup.

    The three target residues s_seed, s_seed+1, s_seed+p (mod the Apery base)
    each select one Apery element; the largest of the three is completed into
    a triple congruent to (s, s+1, s+p) by index-specific shifts.  Completion
    is skipped, and the class representatives come back as they are, when
    the largest is >= F.  When the last entry t2 is >= F, the triple is then
    lowered by (floor((F - t2) / base) + 1) * base: by one base when t2 = F,
    not at all when F < t2 <= F + base, and when t2 > F + base that shift is
    negative and moves the triple up by whole bases (n = 6, s = 3, p = 11
    completes to (45, 46, 56) and returns (51, 52, 62)).  The returned count
    is F - triple[2], plus one when the difference is not a multiple of the
    base.  So the count is <= 0 exactly when triple[2] >= F, which signals
    that the run did not land on an admissible triple.

    p must be at least 2 and not 0 or 1 mod the base, else ValueError: the
    domain that `exists_admissible_bn` shares.

    Prime powers use base p^(m-1) instead of n and require force_base=True,
    as that substitution goes beyond the construction the count is defined
    for; they are rejected from the factorization, before any binomial.
    """
    spec = bn_spec(n)
    if spec.scale > 1 and spec.factorization[0][1] > 1 and not force_base:
        raise ValueError(
            f"n = {n} is a prime power; its Apery base is {spec.factorization[0][0]}"
            f"**{spec.factorization[0][1] - 1}, not n. Pass force_base=True (--force-base) "
            "to run against that base")
    box = _proper_box(n)
    f, base = box.frobenius, box.base
    coords, top, triple = _triple(box, s_seed, p)
    if top >= f:
        triple = tuple(sum(map(mul, c, box.values)) for c in coords)
    diff = f - triple[2]
    if diff <= 0:
        # floor division, so diff in [-base, 0) yields a zero shift
        shift = (diff // base + 1) * base
        triple = tuple(x - shift for x in triple)
        diff = f - triple[2]
    # triple[2] is in the class of s + p, so diff mod base is read off residues
    count = diff if (box.frobenius_residue - s_seed - p) % base == 0 else diff + 1
    return AdmissiblePairResult(triple, count)


def exists_admissible_bn(n: int, p: int) -> int:
    """A verified s making (s, p) admissible for the binomial semigroup of n.

    Seeds every residue class in turn, completes the class maxima into a
    candidate triple (shifting below the Frobenius number when necessary) and
    returns the first s whose triple passes the membership and bound checks.

    Raises after exhausting every seed class.  That is a real outcome, not
    only a bug guard: elements in the class of max(Ap) all exceed the
    Frobenius number, so when the Apery base is 3 a residue-distinct triple
    (which covers all classes) can never be admissible - S(B_9) has no
    admissible pair for any p == 2 (mod 3).
    """
    box = _proper_box(n)
    f, base = box.frobenius, box.base
    for seed in range(base):
        coords, top, triple = _triple(box, seed, p)
        if triple[2] >= f:
            k = (triple[2] - f) // base + 1
            triple = tuple(x - k * base for x in triple)
        # each entry lies in the class of its representative, so it is in
        # the semigroup iff it is at least that representative; all are when
        # the smallest entry is at least top, the largest representative
        if triple[0] >= 1 and triple[2] < f and (triple[0] >= top or all(
                x >= sum(map(mul, c, box.values)) for x, c in zip(triple, coords))):
            return triple[0]
    raise RuntimeError(
        f"exhausted all {base} seed classes without an admissible s for n={n}, p={p}")
