"""Numerical sets, partitions, hook sets, admissible pairs, triple completion."""

import random
import time
from functools import cache
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import frobinom.binomial
import frobinom.corepartitions
from frobinom.binomial import (
    _box, _coordinates, _proper_box, bn_apery_closed, bn_report, bn_spec, decompose)
from frobinom.corepartitions import (
    PAIR_BOUND,
    NumericalSet,
    Partition,
    a_set,
    algorithm1,
    enumerate_admissible,
    exists_admissible_bn,
    hook_set,
    is_admissible,
    is_s_core,
    is_triple_core,
    partition_of,
)
from frobinom.exactmath import binomial, factorize, is_prime
from frobinom.semigroup import NumericalSemigroup


def semigroup_set(*gens):
    return NumericalSet(NumericalSemigroup(list(gens)).gaps())


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
            if any(not S.contains(x + s) for s in members)]


def set_of(partition):
    """The numerical set of a partition: its ascending parts p_i give the gaps p_i + i."""
    return NumericalSet([p + i for i, p in enumerate(reversed(partition.parts))])


partitions = st.lists(st.integers(1, 60), max_size=30).map(
    lambda xs: Partition(sorted(xs, reverse=True)))


def apery_element(n, r):
    """The Apery element in the class r, by the record's lookup."""
    box = _proper_box(n)
    return sum(c * v for c, v in zip(_coordinates(box, r), box.values))


def complete(reps, base, p):
    """The completion by definition: the largest class representative,
    raised by 0, base - 1 or (the least multiple of the base >= p) - p as
    it is the class of s, s+1 or s+p, gives (t, t+1, t+p)."""
    top = max(reps)
    t = top + (0, base - 1, -(-p // base) * base - p)[reps.index(top)]
    return t, t + 1, t + p


def bn_member(n, x):
    """Membership in the binomial-coefficient semigroup via its closed Apery table."""
    base, ap = bn_apery_closed(n)
    least = {w % base: w for w in ap}
    return x >= 0 and x >= least[x % base]


class TestNumericalSet:
    def test_from_gaps_example(self):
        S = NumericalSet([2, 5, 6, 8])
        assert S.frobenius == 8
        assert S.members_below_frobenius() == [0, 1, 3, 4, 7]
        assert all(x in S for x in (9, 10, 11, 100))
        assert S.gaps() == [2, 5, 6, 8]

    def test_whole_numbers(self):
        S = NumericalSet([])
        assert S.frobenius == -1
        assert 0 in S and 7 in S

    def test_semigroup_gaps_roundtrip(self):
        S = semigroup_set(5, 7, 9)
        assert S.gaps() == [1, 2, 3, 4, 6, 8, 11, 13]
        assert S.frobenius == 13

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            NumericalSet([0, 3])
        with pytest.raises(ValueError, match="^gaps must be positive"):
            NumericalSet([3, 0])
        # positivity is checked before the bound
        with pytest.raises(ValueError, match="^gaps must be positive"):
            NumericalSet([10**7, 0])

    def test_unsorted_repeated_and_generated_gaps(self):
        S = NumericalSet([2, 5, 6, 8])
        assert NumericalSet([8, 2, 6, 5, 2]) == S
        assert NumericalSet(g for g in (6, 8, 2, 5)) == S

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            NumericalSet([10**7])

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

    def test_from_semigroup_bound_enforced(self):
        with pytest.raises(ValueError, match="exceeds the bound"):
            NumericalSet.from_semigroup(NumericalSemigroup([1001, 1002]))


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
        with pytest.raises(ValueError, match="weakly decreasing"):
            Partition((3, 4))
        with pytest.raises(ValueError, match="positive"):
            Partition((2, 0))
        # positivity is checked first
        with pytest.raises(ValueError, match="positive"):
            Partition((0, 3))
        with pytest.raises(ValueError, match="positive"):
            Partition((3, -1, 2))
        assert len(Partition(())) == 0
        assert Partition(iter((4, 4, 1))).parts == (4, 4, 1)

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

    def test_validation(self):
        with pytest.raises(ValueError):
            is_s_core(Partition((2, 1)), 0)


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

    def test_validation(self):
        S = NumericalSet([1])
        with pytest.raises(ValueError):
            is_triple_core(S, 0, 2)
        with pytest.raises(ValueError):
            is_triple_core(S, 3, 1)


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

    def test_bound_enforced(self):
        S = NumericalSet([10**5])
        with pytest.raises(ValueError):
            enumerate_admissible(S)

    def test_largest_benchmark_set_still_lists(self):
        # <55, 56> (F = 2969): the largest pair list a benchmark set makes
        assert len(enumerate_admissible(semigroup_set(55, 56))) == 1047969

    def test_pair_budget_refuses_before_listing(self):
        # <100, 101> (F = 9899 <= ENUM_BOUND) has 11,920,524 pairs, ~1.4 GB as
        # tuples: counted and refused without building one
        S = semigroup_set(100, 101)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"11920524 admissible pairs exceed the pair "
                                             f"bound {PAIR_BOUND}"):
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


class TestAlgorithm1:
    def test_golden_run_n50(self):
        out = algorithm1(50, 65, 6)
        assert out.triple == (379231827789565, 379231827789566, 379231827789571)
        assert out.count == 126410606437653

    def test_golden_run_n70(self):
        out = algorithm1(70, 12, 11)
        assert out.triple == (4831407922, 4831407923, 4831407933)
        assert out.count == 2409654789

    def test_golden_triples_are_admissible(self):
        for n, (s, s1, sp) in ((50, algorithm1(50, 65, 6).triple),
                               (70, algorithm1(70, 12, 11).triple)):
            assert s1 == s + 1
            assert all(bn_member(n, x) for x in (s, s1, sp))
            assert sp < bn_report(n).frobenius

    def test_small_run_n6(self):
        # residue class of s holds the largest Apery element 55 >= F = 49, so
        # the completion step is skipped and the raw class representatives
        # come back: all members, third entry below F
        out = algorithm1(6, 1, 2)
        assert out.triple == (55, 20, 15)
        assert out.count == 35
        assert all(bn_member(6, x) for x in out.triple)
        assert out.triple[2] < 49

    def test_residue_collision_rejected(self):
        with pytest.raises(ValueError):
            algorithm1(6, 1, 6)
        with pytest.raises(ValueError):
            algorithm1(6, 1, 7)

    @pytest.mark.parametrize("p", [-5, 0, 1])
    def test_p_below_two_rejected(self, p):
        # the triple's domain, ahead of the residue-collision rule
        with pytest.raises(ValueError, match="need p >= 2"):
            algorithm1(10, 1, p)

    def test_prime_power_needs_force_base(self):
        with pytest.raises(ValueError):
            algorithm1(8, 1, 2)
        out = algorithm1(8, 1, 2, force_base=True)  # base 4 instead of n
        assert all(bn_member(8, x) for x in out.triple)

    def test_shift_lifts_a_triple_past_f_plus_base(self):
        # at n = 6 (F = 49, base 6) the completion (45, 46, 56) has t2 above
        # F + base, so the shift (floor((49 - 56) / 6) + 1) * 6 = -6 lifts it
        reps = tuple(apery_element(6, 3 + d) for d in (0, 1, 11))
        assert max(reps) < 49
        assert complete(reps, 6, 11) == (45, 46, 56)
        assert algorithm1(6, 3, 11) == ((51, 52, 62), -12)

    def test_count_is_nonpositive_exactly_when_past_f(self):
        # composite n < 80, 2 <= p < 24, 0 <= s < min(base, 24), wherever
        # completion ran; 25 of those runs complete above F + base
        lifted = 0
        for n in range(4, 80):
            if is_prime(n):
                continue
            f, base = bn_report(n).frobenius, _box(n).base
            force = len(factorize(n)) == 1
            for p in range(2, 24):
                if p % base in (0, 1):
                    continue
                for s in range(min(base, 24)):
                    reps = tuple(apery_element(n, s + d) for d in (0, 1, p))
                    if max(reps) >= f:
                        continue
                    lifted += complete(reps, base, p)[2] > f + base
                    out = algorithm1(n, s, p, force_base=force)
                    assert (out.count <= 0) == (out.triple[2] >= f), (n, s, p)
        assert lifted == 25

    def test_membership_invariant_sweep(self):
        # all composite n <= 12, 2 <= p < 30 (so also p > base), seeds
        # across two periods
        for n in range(4, 13):
            if is_prime(n):
                continue
            force = len(factorize(n)) == 1
            base, _ = bn_apery_closed(n)
            for p in range(2, 30):
                for seed in range(2 * base):
                    residues = {seed % base, (seed + 1) % base, (seed + p) % base}
                    if len(residues) != 3:
                        continue
                    out = algorithm1(n, seed, p, force_base=force)
                    assert all(bn_member(n, x) for x in out.triple), (n, seed, p)
                    if out.count > 0:
                        assert out.triple[2] < bn_report(n).frobenius, (n, seed, p)


class TestExistsAdmissible:
    def test_verified_for_n50_p6(self):
        s = exists_admissible_bn(50, 6)
        assert all(bn_member(50, x) for x in (s, s + 1, s + 6))
        assert s + 6 < bn_report(50).frobenius
        # the golden triple's s works too
        t = 379231827789565
        assert all(bn_member(50, x) for x in (t, t + 1, t + 6))
        assert t + 6 < bn_report(50).frobenius

    def test_verified_for_n70_p11(self):
        s = exists_admissible_bn(70, 11)
        assert all(bn_member(70, x) for x in (s, s + 1, s + 11))
        assert s + 11 < bn_report(70).frobenius

    def test_small_case_against_enumeration(self):
        s = exists_admissible_bn(6, 2)
        pairs = enumerate_admissible(semigroup_set(6, 15, 20))
        assert (s, 2) in pairs

    def test_sweep_composite_up_to_20(self):
        # Apery base 3 (n = 9) genuinely has no admissible pair for p == 2
        # (mod 3): such a triple covers all three residue classes, and every
        # element in the class of max(Ap) is >= F + base > F.  Those two grid
        # points raise; everywhere else a verified s comes back.
        for n in range(4, 21):
            if is_prime(n):
                continue
            base, _ = bn_apery_closed(n)
            f = bn_report(n).frobenius
            for p in range(2, 8):
                if p % base == 0 or (p - 1) % base == 0:
                    with pytest.raises(ValueError):
                        exists_admissible_bn(n, p)
                    continue
                if (n, p) in ((9, 2), (9, 5)):
                    with pytest.raises(RuntimeError):
                        exists_admissible_bn(n, p)
                    continue
                s = exists_admissible_bn(n, p)
                assert s >= 1
                assert all(bn_member(n, x) for x in (s, s + 1, s + p)), (n, p)
                assert s + p < f, (n, p)

    def test_no_pair_exists_at_base_three(self):
        # exhaustive ground truth for the two raising cases above: every
        # admissible p for <3, 28> is 0 or 1 mod 3
        pairs = enumerate_admissible(semigroup_set(3, 28))
        assert pairs
        assert all(p % 3 != 2 for _, p in pairs)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            exists_admissible_bn(6, 1)

    def test_matches_fresh_lookups_up_to_300(self):
        # same s, or the same error, as deciding membership of every entry
        # with its own Apery lookup
        for n in range(4, 301):
            if is_prime(n):
                continue
            base = _box(n).base
            for p in range(2, min(base, 40)):
                assert _outcome(exists_admissible_bn, n, p) == \
                    _outcome(_exists_with_fresh_lookups, n, p), (n, p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _exists_with_fresh_lookups(n, p):
    """exists_admissible_bn with one Apery lookup per entry of each candidate."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    f = bn_report(n).frobenius
    base = _box(n).base
    if p % base == 0 or (p - 1) % base == 0:
        raise ValueError(
            f"residues of (s, s+1, s+{p}) collide mod {base} for every s")
    for seed in range(base):
        triple = complete(tuple(apery_element(n, seed + d) for d in (0, 1, p)), base, p)
        if triple[2] >= f:
            k = (triple[2] - f) // base + 1
            triple = tuple(x - k * base for x in triple)
        if triple[0] >= 1 and triple[2] < f and all(
                x >= 0 and x >= apery_element(n, x) for x in triple):
            return triple[0]
    raise RuntimeError(
        f"exhausted all {base} seed classes without an admissible s for n={n}, p={p}")


def listed_classes(n):
    """Base, the least element of each class (from the listed Apery set) and F."""
    base, ap = bn_apery_closed(n)
    return base, {w % base: w for w in ap}, ap[-1] - base


def reference_algorithm1(n, s, p):
    """algorithm1 by its definition, over the listed Apery set."""
    base, least, f = listed_classes(n)
    if p < 2 or p % base in (0, 1):
        raise ValueError(p)
    reps = tuple(least[(s + d) % base] for d in (0, 1, p))
    triple = reps if max(reps) >= f else complete(reps, base, p)
    diff = f - triple[2]
    if diff <= 0:
        shift = (diff // base + 1) * base
        triple = tuple(x - shift for x in triple)
        diff = f - triple[2]
    return triple, diff if diff % base == 0 else diff + 1


def reference_exists(n, p):
    """exists_admissible_bn by its definition, over the listed Apery set."""
    base, least, f = listed_classes(n)
    if p < 2 or p % base in (0, 1):
        raise ValueError(p)
    for seed in range(base):
        triple = complete(tuple(least[(seed + d) % base] for d in (0, 1, p)), base, p)
        if triple[2] >= f:
            k = (triple[2] - f) // base + 1
            triple = tuple(x - k * base for x in triple)
        if triple[0] >= 1 and triple[2] < f and all(x >= least[x % base] for x in triple):
            return triple[0]
    raise RuntimeError(p)


def _result_or_error_type(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


class TestPointQueriesAgainstTheListing:
    """The coordinate-order pick of the largest class and the membership
    checks against the definitions, read off the listed Apery set."""

    @given(st.integers(4, 3000).filter(lambda n: not is_prime(n)),
           st.integers(0, 10**6), st.integers(0, 10**6))
    @example(12, 5, 7)
    @example(12, 1, 30)   # p = 32, above the base
    @settings(max_examples=150, deadline=None)
    def test_equal_to_the_definitions(self, n, s, k):
        base = listed_classes(n)[0]
        p = 2 + k % (3 * base)  # below and above the base
        assert _result_or_error_type(algorithm1, n, s, p, force_base=True) == \
            _result_or_error_type(reference_algorithm1, n, s, p), (n, s, p)
        assert _result_or_error_type(exists_admissible_bn, n, p) == \
            _result_or_error_type(reference_exists, n, p), (n, p)

    def test_every_small_case_at_12(self):
        # n = 12 is the one box found whose value order is not the
        # coordinate order, so the largest class is picked by value there
        assert not _box(12).ordered
        for p in range(40):
            assert _result_or_error_type(exists_admissible_bn, 12, p) == \
                _result_or_error_type(reference_exists, 12, p), p
            for s in range(-3, 30):
                assert _result_or_error_type(algorithm1, 12, s, p) == \
                    _result_or_error_type(reference_algorithm1, 12, s, p), (s, p)


def test_algorithm1_factorizes_once_per_n(monkeypatch):
    # the spec and box stages of the record of n are each cached
    real, calls = frobinom.binomial.factorize, []

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(frobinom.binomial, "factorize", counted)
    bn_spec.cache_clear()
    _box.cache_clear()
    for s in range(100):
        algorithm1(30030, s, 7)
    assert len(calls) <= 1


def test_prime_power_rejected_before_any_binomial(monkeypatch):
    # the rejection reads only the spec stage of the record
    def binomial_forbidden(n, k):
        raise AssertionError(f"C({n}, {k}) computed for a rejected prime power")

    monkeypatch.setattr(frobinom.binomial, "binomial", binomial_forbidden)
    _box.cache_clear()
    with pytest.raises(ValueError, match=r"Apery base is 2\*\*18"):
        algorithm1(2**19, 1, 2)


def test_algorithm1_count_does_not_match_enumeration_at_n6():
    # the returned count is the literal diff / diff+1 of the run; at n = 6 it
    # is 35, while the semigroup has 87 admissible pairs in total (6 with
    # p = 2, none with s == 1 mod 6), so no per-seed or global reading lines
    # up at this size.  The n = 50 / n = 70 runs above are the anchor cases.
    assert algorithm1(6, 1, 2).count == 35
    pairs = enumerate_admissible(semigroup_set(6, 15, 20))
    assert len(pairs) == 87
    assert len([1 for s, p in pairs if p == 2]) == 6
    assert len([1 for s, p in pairs if s % 6 == 1]) == 0


def test_point_queries_at_max_n_list_no_apery_set(monkeypatch):
    # n = 10^6 = 2^6 * 5^6 is the CLI bound; its Apery set has 10^6 elements
    # of about 35000 digits, so the point queries must look residues up
    def listing_forbidden(n):
        raise AssertionError(f"bn_apery_closed({n}) called by a point query")

    monkeypatch.setattr(frobinom.binomial, "bn_apery_closed", listing_forbidden)
    monkeypatch.setattr(frobinom.corepartitions, "bn_apery_closed", listing_forbidden,
                        raising=False)
    n = 10**6
    f = bn_report(n).frobenius

    def member(x):
        return x >= 0 and x >= apery_element(n, x)

    rep = decompose(n, 7)
    assert all(c >= 0 for c in rep.coefficients)
    assert sum(c * b for c, b in zip(rep.coefficients, rep.basis)) == binomial(n, 7)

    out = algorithm1(n, 1, 2)
    assert all(member(x) for x in out.triple)
    assert out.triple[1] == out.triple[0] + 1 and out.triple[2] == out.triple[0] + 2
    assert out.triple[2] < f

    s = exists_admissible_bn(n, 7)
    assert s >= 1 and s + 7 < f
    assert all(member(x) for x in (s, s + 1, s + 7))


def lucas_residue(n, k, q):
    """C(n, k) mod the prime q, digit by digit in base q (Lucas's theorem)."""
    out = 1
    while n or k:
        out = out * comb(n % q, k % q) % q
        n, k = n // q, k // q
    return out


def test_costliest_decompose_at_max_n():
    # C(10^6, 5 * 10^5), about 10^6 bits, is the largest C(n, m) the CLI accepts
    n, m = 10**6, 5 * 10**5
    rep = decompose(n, m)
    assert all(c >= 0 for c in rep.coefficients)
    assert sum(c * b for c, b in zip(rep.coefficients, rep.basis)) == rep.value
    full = rep.value * bn_spec(n).scale
    assert 999_980 < full.bit_length() <= 10**6
    for q in (3, 7, 11, 13, 999_983):
        assert full % q == lucas_residue(n, m, q), q
