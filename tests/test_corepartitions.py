"""Numerical sets, partitions, hook sets, cores and admissible pairs."""

import copy
import pickle
import random
import time
from functools import cache
from itertools import combinations
from math import comb, gcd
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

import frobinom.corepartitions
from frobinom.corepartitions import (
    ENUM_BOUND,
    NumericalSet,
    Partition,
    a_set,
    enumerate_admissible,
    hook_set,
    is_admissible,
    is_s_core,
    is_triple_core,
    partition_of,
)
from frobinom.semigroup import NumericalSemigroup

from shared import semigroup_set


# elements of the well-tempered harmonic semigroup up to 48
WELL_TEMPERED_HEAD = [0, 12, 19, 24, 28, 31, 34, 36, 38, 40, 42, 43, 45, 46, 47, 48]


def well_tempered():
    members = set(WELL_TEMPERED_HEAD)
    return NumericalSet([x for x in range(1, 45) if x not in members])


def conjugate(parts):
    """Oracle: the column lengths of the Young diagram with these rows."""
    cols = [0] * (parts[0] if parts else 0)
    for p in parts:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def cell_hooks(partition):
    """Oracle: distinct hook lengths, arm + leg + 1, cell by cell."""
    parts = partition.parts
    conj = conjugate(parts)
    return sorted({parts[i] + conj[j] - i - j - 1
                   for i in range(len(parts)) for j in range(parts[i])})


def definition_a_set_gaps(S):
    """Oracle: the positive integers missing from A(S), straight from its definition."""
    members = S.members_below_frobenius()
    return [x for x in range(1, S.frobenius + 1)
            if any(x + s not in S for s in members)]


def set_of(partition):
    """The numerical set of a partition: its ascending parts p_i give the gaps p_i + i."""
    return NumericalSet([p + i for i, p in enumerate(reversed(partition.parts))])


partitions = st.lists(st.integers(1, 60), max_size=30).map(
    lambda xs: Partition(sorted(xs, reverse=True)))


def set_with_density(f, density, rng):
    """F = f (the whole numbers for f = 0), each x in [1, f) a gap with
    probability density."""
    return NumericalSet([g for g in range(1, f) if rng.random() < density] + [f] if f else [])


sets_of_any_density = st.builds(
    set_with_density, st.integers(0, 400), st.floats(0, 1), st.randoms(use_true_random=False))
small_semigroup_sets = st.lists(st.integers(1, 40), min_size=1, max_size=4).filter(
    lambda gens: gcd(*gens) == 1).map(
    lambda gens: NumericalSet.from_semigroup(NumericalSemigroup(gens)))


class TestNumericalSet:
    def test_from_gaps_example(self):
        S = NumericalSet([2, 5, 6, 8])
        assert S.frobenius == 8
        assert S.members_below_frobenius() == [0, 1, 3, 4, 7]
        assert all(x in S for x in (9, 10, 11, 100))
        assert -1 not in S
        assert S.gaps() == [2, 5, 6, 8]

    def test_whole_numbers(self):
        S = NumericalSet([])
        assert S.frobenius == -1
        assert 0 in S and 7 in S

    def test_semigroup_gaps_roundtrip(self):
        S = semigroup_set(5, 7, 9)
        assert S.gaps() == [1, 2, 3, 4, 6, 8, 11, 13]
        assert S.frobenius == 13

    def test_unsorted_repeated_and_generated_gaps(self):
        S = NumericalSet([2, 5, 6, 8])
        assert NumericalSet([8, 2, 6, 5, 2]) == S
        assert NumericalSet(g for g in (6, 8, 2, 5)) == S
        assert hash(NumericalSet([8, 2, 6, 5, 2])) == hash(S)
        assert len({S, NumericalSet([5, 8, 6, 2])}) == 1
        # not a NumericalSet: equality is left to the other side, and fails
        assert S.__eq__((0, 1, 3, 4, 7)) is NotImplemented
        assert not S == (0, 1, 3, 4, 7) and S != [2, 5, 6, 8]

    @given(st.lists(st.integers(1, 300), max_size=120))
    def test_listings_match_membership(self, gaps):
        S = NumericalSet(gaps)
        assert S.gaps() == sorted(set(gaps))
        assert S.members_below_frobenius() == [x for x in range(S.frobenius + 1) if x in S]

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=5))
    @example([1])
    @example([999, 1001])
    @settings(deadline=None)
    def test_from_semigroup_is_the_set_of_its_gaps(self, gens):
        # built from the Apery table, one slice per class
        try:
            S = NumericalSemigroup(gens)
        except ValueError:
            return  # gcd > 1
        T = NumericalSet.from_semigroup(S)
        assert T == NumericalSet(S.gaps())
        assert T.gaps() == S.gaps()


class TestASet:
    def test_worked_example(self):
        A = a_set(NumericalSet([2, 5, 6, 8]))
        assert A.gaps() == [1, 2, 3, 4, 5, 6, 7, 8]  # A = {0, 9, 10, ...}
        assert 0 in A and 9 in A and 8 not in A

    def test_whole_numbers_fixed(self):
        assert a_set(NumericalSet([])) == NumericalSet([])

    def test_semigroup_is_fixed_point(self):
        S = semigroup_set(5, 7, 9)
        assert a_set(S) == S
        T = semigroup_set(6, 15, 20)
        assert a_set(T) == T

    def test_subset_of_s_and_contains_zero(self):
        for gaps in ([1], [3, 5], [1, 2, 9], [4, 6, 7, 11]):
            S = NumericalSet(gaps)
            A = a_set(S)
            assert 0 in A
            assert all(x in S for x in A.members_below_frobenius())

    @given(st.one_of(sets_of_any_density, small_semigroup_sets))
    @example(NumericalSet())               # the whole numbers, F = -1
    @example(NumericalSet(range(1, 401)))  # every integer up to F a gap
    @settings(deadline=None)
    def test_same_frobenius_and_inside_s(self, S):
        A = a_set(S)
        assert A.frobenius == S.frobenius
        assert all(x in S for x in A.members_below_frobenius())

    @pytest.mark.parametrize("f", [1, 2, 3, 8, 9, 30, 31, 200, 201])
    def test_both_sides_of_the_mirror_switch(self, f):
        # the kernel mirrors its masks when 2 * |gaps| < F + 1: sets with
        # 2 * |gaps| equal to F, F + 1 or F + 2 pin both branches and the
        # switch (the empty set is test_whole_numbers_fixed)
        rng = random.Random(f)
        for twice in (f, f + 1, f + 2):
            if twice % 2:
                continue
            for _ in range(10):
                S = NumericalSet(rng.sample(range(1, f), twice // 2 - 1) + [f])
                missing = definition_a_set_gaps(S)
                assert a_set(S).gaps() == missing
                assert hook_set(partition_of(S)) == missing


class TestPartitionType:
    def test_validation(self):
        assert len(Partition(())) == 0
        assert Partition(iter((4, 4, 1))).parts == (4, 4, 1)

    def test_is_the_tuple_of_its_parts(self):
        lam = Partition((4, 4, 1))
        assert isinstance(lam, tuple) and not hasattr(lam, "__dict__")
        assert lam == (4, 4, 1) and (4, 4, 1) == lam and lam != (4, 1)
        assert hash(lam) == hash((4, 4, 1)) and {lam: 1}[(4, 4, 1)] == 1
        assert type(lam.parts) is tuple and lam.parts == (4, 4, 1)
        assert repr(lam) == "Partition(4, 4, 1)" and repr(Partition((2,))) == "Partition(2,)"
        assert list(lam) == [4, 4, 1] and lam[0] == 4 and sum(lam) == 9

    def test_pickle_and_copy_round_trip(self):
        for lam in (Partition(()), Partition((1,)), Partition((6, 5, 3, 2, 1, 1, 1, 1))):
            for twin in (pickle.loads(pickle.dumps(lam)), copy.copy(lam), copy.deepcopy(lam)):
                assert type(twin) is Partition and twin == lam and twin.parts == lam.parts

    def test_conjugate(self):
        # the oracle behind cell_hooks
        assert conjugate((5, 4, 4, 2)) == (4, 4, 3, 3, 1)
        assert conjugate((4, 4, 3, 3, 1)) == (5, 4, 4, 2)
        assert conjugate((1, 1, 1)) == (3,)
        assert conjugate(()) == ()


class TestAssociatedPartition:
    def test_worked_examples(self):
        assert partition_of(NumericalSet([2, 5, 6, 8])) == Partition((5, 4, 4, 2))
        assert partition_of(semigroup_set(5, 7, 9)) == Partition((6, 5, 3, 2, 1, 1, 1, 1))
        assert partition_of(NumericalSet([])) == Partition(())

    def test_well_tempered_partition(self):
        expected = (12, 10, 9, 8, 7, 6, 6, 5, 5, 4, 4, 4, 3, 3, 3, 3,
                    2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
        assert partition_of(well_tempered()) == Partition(expected)

    def test_shape_invariants(self):
        for gaps in ([2, 5, 6, 8], [1], [1, 2, 3, 9], [4, 7, 13]):
            S = NumericalSet(gaps)
            lam = partition_of(S)
            assert len(lam) == len(S.gaps())
            members_below_f = [x for x in range(S.frobenius) if x in S]
            assert lam.parts[0] == len(members_below_f)

    @given(partitions)
    def test_roundtrip_through_numerical_set(self, lam):
        assert partition_of(set_of(lam)) == lam

    @given(st.lists(st.integers(1, 300), max_size=120))
    def test_one_part_per_gap(self, gaps):
        # part g_i - i for the i-th gap g_i, largest first
        S = NumericalSet(gaps)
        assert partition_of(S).parts == tuple([g - i for i, g in enumerate(S.gaps())][::-1])


class TestHookSet:
    def test_worked_examples(self):
        assert hook_set(Partition((5, 4, 4, 2))) == [1, 2, 3, 4, 5, 6, 7, 8]
        assert hook_set(Partition((6, 5, 3, 2, 1, 1, 1, 1))) == [1, 2, 3, 4, 6, 8, 11, 13]
        assert hook_set(Partition((1,))) == [1]
        assert hook_set(Partition(())) == []

    def test_plain_parts_are_validated(self):
        # a tuple or list of parts is read as a Partition, so parts that are
        # not one raise its error, not a hook set of some other shape
        for parts, message in (((1, 2), "partition parts must be weakly decreasing"),
                               ([3, 1, 2], "partition parts must be weakly decreasing"),
                               ((0,), "partition parts must be positive")):
            for call in (lambda: hook_set(parts), lambda: is_s_core(parts, 3)):
                with pytest.raises(ValueError) as caught:
                    call()
                assert str(caught.value) == message, parts
        assert hook_set((2, 1)) == hook_set(Partition((2, 1))) == [1, 3]
        assert not is_s_core((2, 1), 3)

    def test_well_tempered_hooks(self):
        expected = sorted(set(range(1, 12)) | set(range(13, 19)) | set(range(20, 24))
                          | {25, 26, 27, 29, 30, 32, 33, 35, 37, 39, 41, 44})
        assert hook_set(partition_of(well_tempered())) == expected

    def test_theorem_exhaustive_up_to_f_12(self):
        # every numerical set with Frobenius number <= 12: hook lengths of the
        # associated partition, cell by cell = positive integers missing from
        # A(S) by definition; the library reads both off one gap mask
        checked = 0
        for f in range(1, 13):
            for r in range(f):
                for extra in combinations(range(1, f), r):
                    S = NumericalSet(list(extra) + [f])
                    missing = definition_a_set_gaps(S)
                    assert a_set(S).gaps() == missing
                    lam = partition_of(S)
                    assert hook_set(lam) == cell_hooks(lam) == missing
                    checked += 1
        assert checked == 2**12 - 1

    @given(partitions)
    @settings(max_examples=200)
    def test_against_cell_by_cell(self, lam):
        assert hook_set(lam) == cell_hooks(lam)

    def test_thin_shapes(self):
        # one row, one column and a hook: few gaps or few members
        for lam in (Partition((3000,)), Partition((1,) * 3000), Partition((900,) + (1,) * 700)):
            assert hook_set(lam) == cell_hooks(lam)

    def test_set_bound_applies(self):
        # the hooks are read off a NumericalSet, so its Frobenius number, the
        # largest part plus the length minus one, is held to SET_BOUND
        assert hook_set(Partition((10**6,))) == list(range(1, 10**6 + 1))
        with pytest.raises(ValueError, match="exceeds the bound"):
            hook_set(Partition((10**6, 1)))
        with pytest.raises(ValueError, match="exceeds the bound"):
            is_s_core(Partition((10**6, 1)), 2)

    def test_large_semigroup(self):
        # F = 18977; the hooks of a semigroup's partition are its gaps
        S = semigroup_set(301, 307, 311)
        assert S.frobenius == 18977
        assert a_set(S) == S
        assert hook_set(partition_of(S)) == S.gaps()


class TestSCore:
    def test_worked_examples(self):
        lam = Partition((5, 4, 4, 2))
        assert is_s_core(lam, 9)
        for s in range(1, 9):
            assert not is_s_core(lam, s)
        assert is_s_core(Partition(()), 4)


def core_gap_sets(steps):
    """Gap sets of the numerical sets closed under adding each step: the
    down-sets, under subtracting a step, of the gaps of <steps>."""
    gaps = NumericalSemigroup(list(steps)).gaps()
    found = []

    def grow(i, chosen):
        if i == len(gaps):
            found.append(sorted(chosen))
            return
        grow(i + 1, chosen)
        g = gaps[i]
        if all(g - t <= 0 or g - t in chosen for t in steps):
            chosen.add(g)
            grow(i + 1, chosen)
            chosen.remove(g)

    grow(0, set())
    return found


COPRIME_PAIRS = [(s, t) for t in range(3, 13) for s in range(2, t) if gcd(s, t) == 1]


@cache
def two_cores(s, t):
    """The (s, t)-cores as gap tuples: (11, 12) has 58786 of them."""
    return tuple(map(tuple, core_gap_sets((s, t))))


def seeded_sample(cores, s, t, k):
    return random.Random(f"{s},{t}").sample(cores, min(k, len(cores)))


class TestSimultaneousCores:
    # a numerical set's partition is a t-core iff t lies in A(S), i.e. iff the
    # set is closed under +t; counts and sizes are classical theorems

    @pytest.mark.parametrize("s, t", COPRIME_PAIRS)
    def test_count_largest_and_mean_size(self, s, t):
        cores = two_cores(s, t)
        # is_s_core checks every core up to t = 9, and a seeded sample above
        checked = set(cores if t <= 9 else seeded_sample(cores, s, t, 200))
        sizes = []
        for gaps in cores:
            lam = partition_of(NumericalSet(gaps))
            if gaps in checked:
                assert is_s_core(lam, s) and is_s_core(lam, t), gaps
            sizes.append(sum(lam.parts))
        assert len(sizes) == comb(s + t, s) // (s + t)               # Anderson 2002
        assert max(sizes) == (s * s - 1) * (t * t - 1) // 24          # Olsson-Stanton 2007
        assert 24 * sum(sizes) == len(sizes) * (s + t + 1) * (s - 1) * (t - 1)  # Johnson 2018

    @pytest.mark.parametrize("s, t", COPRIME_PAIRS)
    def test_one_more_gap_is_a_core_exactly_where_it_keeps_closure(self, s, t):
        # adding the gap g to a set closed under +u keeps it closed unless
        # g - u is a member (0 included): then g - u + u = g is not
        for core in seeded_sample(two_cores(s, t), s, t, 8):
            for g in set(range(1, s * t)).difference(core):
                lam = partition_of(NumericalSet(core + (g,)))
                for u in (s, t):
                    assert is_s_core(lam, u) == (g < u or g - u in core), (core, g, u)

    def test_cores_are_exactly_the_closed_sets(self):
        # every gap subset of <4, 7>: a (4, 7)-core iff closed under +4 and +7
        gaps = NumericalSemigroup([4, 7]).gaps()
        closed = {tuple(g) for g in core_gap_sets((4, 7))}
        for r in range(len(gaps) + 1):
            for subset in combinations(gaps, r):
                lam = partition_of(NumericalSet(subset))
                assert (is_s_core(lam, 4) and is_s_core(lam, 7)) == (subset in closed)

    @pytest.mark.parametrize("s", range(1, 8))
    def test_consecutive_triple_cores_are_motzkin(self, s):
        # (s, s+1, s+2)-cores: Amdeberhan-Leven 2015, Yang-Zhong-Zhou 2015
        motzkin = [1, 1, 2, 4, 9, 21, 51, 127]
        cores = core_gap_sets((s, s + 1, s + 2))
        for gaps in cores:
            lam = partition_of(NumericalSet(gaps))
            assert all(is_s_core(lam, t) for t in (s, s + 1, s + 2)), gaps
        assert len(cores) == motzkin[s]


def abacus_gaps(s, h):
    """Gaps of the set closed under +s whose least member in the class r
    mod s is r + s * h[r]."""
    return [r + s * k for r in range(s) for k in range(h[r])]


def random_triple_core_thresholds(rng, s, p):
    """Abacus thresholds h of a random (s, s+1, s+p)-core, p < s: the largest
    h below random caps with h[0] = 0 that meets the difference constraints
    h[r+1] <= h[r] + 1 (closure under +(s+1)) and
    h[(r+p) % s] <= h[r] + 1 + (r+p) // s (closure under +(s+p))."""
    q = rng.random()  # the share of caps drawn below the largest, r
    h = [0] + [rng.randint(0, r) if rng.random() < q else r for r in range(1, s)]
    changed = True
    while changed:
        changed = False
        for r in range(s):
            for j, c in ((r + 1, 1), ((r + p) % s, 1 + (r + p) // s)):
                if j < s and h[j] > h[r] + c:
                    h[j], changed = h[r] + c, True
    return h


class TestRandomTripleCores:
    # sets at s ~ 30 built from abacus thresholds, with F in the hundreds (up
    # to about s^2 / 2): far beyond what core_gap_sets enumerates, so the A(S)
    # kernel is checked on cores known from the difference constraints alone

    @pytest.mark.parametrize("s, p", [(28, 2), (30, 3), (30, 7), (31, 13), (29, 28), (30, 29)])
    def test_accepted_and_one_raised_threshold_rejected(self, s, p):
        rng = random.Random(s * 100 + p)
        for _ in range(8):
            h = random_triple_core_thresholds(rng, s, p)
            S = NumericalSet(abacus_gaps(s, h))
            assert is_triple_core(S, s, p), h
            assert all(x % t for x in hook_set(partition_of(S)) for t in (s, s + 1, s + p)), h
            # with h[r+1] = h[r] + 2, the member r + s * h[r] plus s + 1 is a gap
            r = rng.randrange(s - 1)
            raised = h[:r + 1] + [h[r] + 2] + h[r + 2:]
            assert not is_triple_core(NumericalSet(abacus_gaps(s, raised)), s, p), (h, r)


def meets_triple_core_constraints(s, p, h):
    """The abacus thresholds h (h[0] = 0, all >= 0) describe an
    (s, s+1, s+p)-core, p < s: closure under +(s+1) is h[r+1] <= h[r] + 1
    for r + 1 < s, and closure under +(s+p) is
    h[(r+p) % s] <= h[r] + 1 + (r+p) // s."""
    return (h[0] == 0 and min(h) >= 0
            and all(h[r + 1] <= h[r] + 1 for r in range(s - 1))
            and all(h[(r + p) % s] <= h[r] + 1 + (r + p) // s for r in range(s)))


class TripleCoreCounter:
    """Transfer-matrix count of the (s, s+1, s+p)-cores, p < s, over their
    abacus thresholds h[0..s-1], assigned in order of r.  Choosing h[r]
    reads h[r-1] (the +(s+1) step from r - 1), h[r-p] (the +(s+p) step
    from r - p) and, for r >= s - p, h[r+p-s] (the +(s+p) step from r,
    which wraps to a class already assigned).  So the state before r is the
    values at the indices that some later r still reads."""

    def __init__(self, s, p):
        self.s, self.p = s, p
        # live[r]: the indices below r that the choice at some r' >= r reads
        self.live = [tuple(i for i in range(r)
                           if i + 1 >= r or r <= i + p < s or (i < p and i + s - p >= r))
                     for r in range(s + 1)]
        self.completions = cache(self._completions)

    def choices(self, r, h):
        """The values h[r] may take given the earlier values h (a dict)."""
        s, p = self.s, self.p
        if r == 0:
            return range(1)
        top = h[r - 1] + 1
        if r >= p:
            top = min(top, h[r - p] + 1)
        least = max(0, h[r + p - s] - 2) if r >= s - p else 0
        return range(least, top + 1)

    def step(self, r, state, v):
        h = dict(zip(self.live[r], state))
        h[r] = v
        return tuple(h[i] for i in self.live[r + 1])

    def _completions(self, r, state):
        """Number of ways to choose h[r..s-1] after the live values `state`."""
        if r == self.s:
            return 1
        h = dict(zip(self.live[r], state))
        return sum(self.completions(r + 1, self.step(r, state, v)) for v in self.choices(r, h))

    def count(self):
        return self.completions(0, ())

    def sizes(self):
        """(count, total size, largest size) of the cores, in one pass over r.

        A core's size is sum(gaps) - C(G, 2), with G gaps, and the class r
        adds r*h[r] + s*C(h[r], 2) to sum(gaps), so the size needs G as well
        as the live thresholds.  For the total, each state keeps the moments
        count, sum G, sum G^2 and sum of sum(gaps) over its cores.  For the
        largest, it keeps points (G, V), V = sum(gaps) - C(G, 2) so far: x
        more gaps take G*x + C(x, 2) from V, so only the upper hull of the
        points, where V - G*x is largest for some x >= 0, can lead to it.
        """
        s = self.s
        layer = {(): ((1, 0, 0, 0), [(0, 0)])}
        for r in range(s):
            after = {}
            for state, ((c, g1, g2, w), hull) in layer.items():
                for v in self.choices(r, dict(zip(self.live[r], state))):
                    gained = r * v + s * comb(v, 2)
                    moved = (c, g1 + v * c, g2 + 2 * v * g1 + v * v * c, w + gained * c)
                    entry = after.setdefault(self.step(r, state, v), [(0, 0, 0, 0), []])
                    entry[0] = tuple(map(add, entry[0], moved))
                    entry[1] += [(g + v, x + gained - comb(v, 2) - g * v) for g, x in hull]
            layer = {key: (moments, _upper_hull(points)) for key, (moments, points) in after.items()}
        c, g1, g2, w = map(sum, zip(*(moments for moments, _ in layer.values())))
        return c, w - (g2 - g1) // 2, max(x for _, hull in layer.values() for _, x in hull)

    def sample(self, rng):
        """Thresholds of a uniformly random core: each h[r] is drawn with
        weight the number of cores that complete it."""
        h, state = [], ()
        for r in range(self.s):
            options = self.choices(r, dict(zip(self.live[r], state)))
            weights = [self.completions(r + 1, self.step(r, state, v)) for v in options]
            v = rng.choices(options, weights)[0]
            h.append(v)
            state = self.step(r, state, v)
        return h


def _upper_hull(points):
    """The points (G, V) at which V - G*x is largest for some x >= 0: the
    upper convex hull of those with V above every V at a smaller G."""
    hull = []
    for g, x in sorted(points):
        if hull and hull[-1][0] == g:
            hull.pop()  # the same G with a smaller V
        if hull and x <= hull[-1][1]:
            continue
        while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (g - hull[-2][0])
                                 <= (x - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append((g, x))
    return hull


def motzkin(count):
    """M_0 .. M_{count-1}: M_{k+1} = M_k + sum_{i < k} M_i M_{k-1-i}."""
    m = [1, 1]
    while len(m) < count:
        k = len(m) - 1
        m.append(m[k] + sum(m[i] * m[k - 1 - i] for i in range(k)))
    return m[:count]


class TestTripleCoreCounts:
    # (s, s+1, s+p)-cores counted by a transfer matrix over the abacus
    # constraints, far beyond what core_gap_sets enumerates

    @pytest.mark.parametrize("s, p", [(s, p) for s in range(3, 8) for p in range(2, s)])
    def test_matches_brute_force(self, s, p):
        cores = core_gap_sets((s, s + 1, s + p))
        assert TripleCoreCounter(s, p).count() == len(cores)
        # and the brute-force cores are exactly the thresholds meeting the constraints
        for gaps in cores:
            h = [sum(1 for g in gaps if g % s == r) for r in range(s)]
            assert sorted(gaps) == sorted(abacus_gaps(s, h))
            assert meets_triple_core_constraints(s, p, h), gaps

    def test_consecutive_triples_are_motzkin_up_to_40(self):
        # Amdeberhan-Leven 2015, proved by Yang-Zhong-Zhou 2015
        expected = motzkin(41)
        assert expected[:8] == [1, 1, 2, 4, 9, 21, 51, 127]
        for s in range(3, 41):
            assert TripleCoreCounter(s, 2).count() == expected[s], s

    @pytest.mark.parametrize("s, p", [(s, p) for s in range(3, 8) for p in range(2, s)])
    def test_sizes_match_brute_force(self, s, p):
        sizes = [sum(partition_of(NumericalSet(gaps))) for gaps in core_gap_sets((s, s + 1, s + p))]
        assert TripleCoreCounter(s, p).sizes() == (len(sizes), sum(sizes), max(sizes))

    def test_consecutive_triple_core_sizes_up_to_10(self):
        # the largest and the total size of the (s, s+1, s+2)-cores, s = 1..10
        largest = [0, 1, 2, 7, 12, 26, 40, 70, 100, 155]
        totals = [0, 1, 5, 25, 105, 420, 1596, 5880, 21120, 74415]
        for s in range(1, 11):
            sizes = []
            for gaps in core_gap_sets((s, s + 1, s + 2)):
                lam = partition_of(NumericalSet(gaps))
                assert all(is_s_core(lam, t) for t in (s, s + 1, s + 2)), gaps
                sizes.append(sum(lam))
            assert (max(sizes), sum(sizes)) == (largest[s - 1], totals[s - 1]), s
            if s >= 3:
                assert TripleCoreCounter(s, 2).sizes() == (len(sizes), totals[s - 1], largest[s - 1])

    @pytest.mark.parametrize("s", range(3, 41))
    def test_largest_consecutive_triple_core_up_to_40(self, s):
        # Amdeberhan's conjecture, proved by Yang-Zhong-Zhou 2015: the largest
        # (s, s+1, s+2)-core has size m*C(m+1, 3) for s = 2m - 1 and
        # (m+1)*C(m+1, 3) + C(m+2, 3) for s = 2m
        m = (s + 1) // 2
        largest = m * comb(m + 1, 3) if s % 2 else (m + 1) * comb(m + 1, 3) + comb(m + 2, 3)
        assert TripleCoreCounter(s, 2).sizes()[2] == largest

    def test_samples_are_uniform_at_s_5(self):
        counter = TripleCoreCounter(5, 2)
        rng = random.Random(5)
        seen = {}
        for _ in range(2100):
            h = tuple(counter.sample(rng))
            seen[h] = seen.get(h, 0) + 1
        # M_5 = 21 cores, 100 expected draws each
        assert len(seen) == 21
        assert 60 < min(seen.values()) and max(seen.values()) < 140, seen

    @pytest.mark.parametrize("s, p", [(30, 2), (29, 3), (31, 4), (30, 28), (30, 29)])
    def test_uniform_cores_accepted_and_perturbations_judged(self, s, p):
        counter = TripleCoreCounter(s, p)
        rng = random.Random(1000 * s + p)
        for _ in range(4):
            h = counter.sample(rng)
            assert meets_triple_core_constraints(s, p, h), h
            assert is_triple_core(NumericalSet(abacus_gaps(s, h)), s, p), h
            # one threshold moved by one: still closed under +s, so it is a
            # triple core exactly when it meets the constraints
            for r in range(1, s):
                for d in (-1, 1):
                    moved = h[:r] + [h[r] + d] + h[r + 1:]
                    if moved[r] < 0:
                        continue
                    S = NumericalSet(abacus_gaps(s, moved))
                    assert is_triple_core(S, s, p) == meets_triple_core_constraints(s, p, moved), (h, r, d)


class TestTripleCore:
    def test_worked_example(self):
        assert is_triple_core(semigroup_set(5, 7, 9), 9, 3)

    def test_above_frobenius_always_core(self):
        S = NumericalSet([2, 5, 6, 8])
        for p in (2, 3, 7):
            assert is_triple_core(S, 9, p)
            assert is_triple_core(S, 25, p)

    def test_well_tempered_42_3(self):
        # (42, 43, 45) works as a triple but 45 > F = 44, so not admissible
        S = well_tempered()
        assert is_triple_core(S, 42, 3)
        assert not is_admissible(S, 42, 3)


class TestAdmissible:
    def test_worked_example(self):
        assert is_admissible(semigroup_set(5, 7, 9), 9, 3)

    def test_enumerate_5_7_9(self):
        assert enumerate_admissible(semigroup_set(5, 7, 9)) == [(9, 3)]

    def test_half_open_interval_family(self):
        # S = {0} union [m, infinity): any s-core needs s >= m > F = m - 1
        for m in (2, 5, 9):
            S = semigroup_set(*range(m, 2 * m))
            assert S.gaps() == list(range(1, m))
            assert enumerate_admissible(S) == []

    def test_two_generator_even_family(self):
        # <2, m> for odd m: consecutive s, s+1 in S forces s >= m - 1 > F
        for m in (5, 7, 11):
            S = semigroup_set(2, m)
            assert enumerate_admissible(S) == []

    def test_well_tempered_has_none(self):
        assert enumerate_admissible(well_tempered()) == []

    def test_tiny_sets_have_none(self):
        for gaps in ([1], [1, 2], [1, 3]):
            assert enumerate_admissible(NumericalSet(gaps)) == []

    def test_largest_benchmark_set_still_lists(self):
        # <55, 56> (F = 2969): the largest pair list a benchmark set makes
        assert len(enumerate_admissible(semigroup_set(55, 56))) == 1047969

    def test_enumeration_bound_is_inclusive(self):
        assert enumerate_admissible(NumericalSet(range(1, ENUM_BOUND + 1))) == []

    def test_pair_bound_is_inclusive(self, monkeypatch):
        # the one admissible pair of this set is (8, 2)
        S = NumericalSet([1, 2, 3, 5, 7, 11])
        monkeypatch.setattr(frobinom.corepartitions, "PAIR_BOUND", 1)
        assert enumerate_admissible(S) == [(8, 2)]
        monkeypatch.setattr(frobinom.corepartitions, "PAIR_BOUND", 0)
        with pytest.raises(ValueError, match="1 admissible pairs exceed the pair bound 0"):
            enumerate_admissible(S)

    def test_pair_budget_refuses_before_listing(self):
        # <100, 101> (F = 9899 <= ENUM_BOUND) has 11,920,524 pairs, ~1.4 GB as
        # tuples: counted and refused without building one
        S = semigroup_set(100, 101)
        start = time.perf_counter()
        with pytest.raises(ValueError):
            enumerate_admissible(S)
        assert time.perf_counter() - start < 1.0

    def test_brute_force_cross_check_on_small_semigroup(self):
        # definition-level double loop vs the enumerator
        S = semigroup_set(4, 9, 11)
        expected = [(s, p)
                    for s in range(1, S.frobenius)
                    for p in range(2, S.frobenius - s)
                    if is_admissible(S, s, p)]
        assert enumerate_admissible(S) == expected
