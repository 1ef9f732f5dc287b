"""Generic engine vs a naive dynamic-programming oracle.

The oracle enumerates actual semigroup membership over an interval by DP,
with no shortest-path machinery, so the two routes share nothing.
"""

from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from frobinom.exactmath import binomial
from frobinom.semigroup import (
    AperyTable,
    NotANumericalSemigroup,
    NumericalSemigroup,
    minimal_generators,
)


def dp_members(gens, limit):
    """Oracle: membership table for [0, limit] by plain DP."""
    member = [False] * (limit + 1)
    member[0] = True
    for x in range(1, limit + 1):
        member[x] = any(g <= x and member[x - g] for g in gens)
    return member


def dp_apery(gens, base, limit):
    """Oracle: least member in each class mod base, scanning the DP table."""
    member = dp_members(gens, limit)
    table = [None] * base
    for x in range(limit + 1):
        if member[x] and table[x % base] is None:
            table[x % base] = x
    assert all(w is not None for w in table)
    return table


def chain_telescopic(raw):
    """Oracle: the telescopic chain condition read off its definition.  The
    minimal generators n_1 < ... < n_e are the members of `raw` that the
    smaller ones do not reach; d_i = gcd(n_1, ..., n_i), and each n_i/d_i
    must be reachable from n_1/d_{i-1}, ..., n_{i-1}/d_{i-1}."""
    gens = sorted(set(raw))
    gens = [g for g in gens if not dp_members([h for h in gens if h < g], g)[g]]
    for i in range(1, len(gens)):
        prefix = [g // gcd(*gens[:i]) for g in gens[:i]]
        target = gens[i] // gcd(*gens[:i + 1])
        if not dp_members(prefix, target)[target]:
            return False
    return True


# generator sets with small multiplicity; gcd filtered to 1
gen_sets = st.lists(st.integers(2, 120), min_size=1, max_size=6).map(
    lambda xs: sorted(set(xs))).filter(lambda xs: xs[0] <= 40)


class TestMinimalGenerators:
    def test_examples(self):
        assert minimal_generators([5, 7, 9, 12]) == [5, 7, 9]
        assert minimal_generators([1, 13, 77]) == [1]
        assert minimal_generators([6, 15, 20, 15, 6]) == [6, 15, 20]

    def test_full_binomial_family_of_12(self):
        family = [binomial(12, k) for k in range(1, 12)]
        assert minimal_generators(family) == [12, 66, 220, 495]

    def test_gcd_error_carries_gcd(self):
        with pytest.raises(NotANumericalSemigroup) as err:
            minimal_generators([4, 6])
        assert err.value.gcd == 2

    def test_gcd_above_the_digit_limit(self):
        # the attribute keeps a gcd over str()'s digit limit whole; the message,
        # a row of REFUSALS in test_layering.py, names it by its bit length
        with pytest.raises(NotANumericalSemigroup) as err:
            NumericalSemigroup([10**5000, 2 * 10**5000])
        assert err.value.gcd == 10**5000

    @given(gen_sets)
    def test_idempotent_and_order_independent(self, gens):
        try:
            mins = minimal_generators(gens)
        except NotANumericalSemigroup:
            return
        assert minimal_generators(mins) == mins
        assert minimal_generators(list(reversed(gens))) == mins

    @given(gen_sets)
    def test_agrees_with_dp_redundancy(self, gens):
        try:
            mins = minimal_generators(gens)
        except NotANumericalSemigroup:
            return
        kept = set(mins)
        for g in gens:
            others = [h for h in gens if h != g]
            redundant = others and dp_members(others, g)[g]
            assert (g not in kept) == bool(redundant), (gens, g)


class TestAperySet:
    def test_by_hand_6_15_20(self):
        S = NumericalSemigroup([6, 15, 20])
        assert list(S.apery.entries) == [0, 55, 20, 15, 40, 35]

    def test_whole_numbers(self):
        S = NumericalSemigroup([1])
        assert list(S.apery.entries) == [0]

    def test_5_7_9_against_dp(self):
        S = NumericalSemigroup([5, 7, 9])
        oracle = dp_apery([5, 7, 9], 5, 60)
        assert list(S.apery.entries) == oracle == [0, 16, 7, 18, 9]

    def test_explicit_base(self):
        # a generator, and members that are not generators
        S = NumericalSemigroup([6, 15, 20])
        for x in (15, 12, 35):
            table = S.apery_set(x)
            assert table.base == x
            assert table.entries == tuple(dp_apery([6, 15, 20], x, 300)), x

    def test_table_is_an_immutable_value(self):
        table = NumericalSemigroup([6, 15, 20]).apery
        assert table == AperyTable(6, (0, 55, 20, 15, 40, 35))
        assert hash(table) == hash(AperyTable(6, (0, 55, 20, 15, 40, 35)))
        assert table != AperyTable(6, (0, 55, 20, 15, 40, 36))
        assert (table.entries[7 % table.base], max(table.entries)) == (55, 55)
        assert repr(table) == "AperyTable(base=6, entries=(0, 55, 20, 15, 40, 35))"
        for attempt in (lambda: setattr(table, "base", 5),
                        lambda: setattr(table, "other", 1),
                        lambda: delattr(table, "entries")):
            with pytest.raises(AttributeError):
                attempt()

    @given(gen_sets, st.integers(0, 3))
    @settings(max_examples=60)
    def test_member_bases_against_dp(self, gens, k):
        try:
            S = NumericalSemigroup(gens)
        except NotANumericalSemigroup:
            return
        x = S.generators[-1] + k * S.multiplicity
        limit = max(S.frobenius(), 0) + 2 * x + 1
        assert S.apery_set(x).entries == tuple(dp_apery(S.generators, x, limit))

    @given(gen_sets)
    @settings(max_examples=60)
    def test_structural_invariants(self, gens):
        try:
            S = NumericalSemigroup(gens)
        except NotANumericalSemigroup:
            return
        table = S.apery
        assert len(table.entries) == table.base == S.multiplicity
        assert table.entries[0] == 0
        for r, w in enumerate(table.entries):
            assert w % table.base == r
            assert w in S
            assert (w - table.base) not in S


class TestDerivedQuantities:
    def test_frobenius_examples(self):
        assert NumericalSemigroup([6, 15, 20]).frobenius() == 49
        assert NumericalSemigroup([2, 3]).frobenius() == 1  # Sylvester: 2*3-2-3
        assert NumericalSemigroup([1]).frobenius() == -1

    def test_genus_examples(self):
        assert NumericalSemigroup([6, 15, 20]).genus() == 25
        assert NumericalSemigroup([1]).genus() == 0
        # Apery sum (0+16+7+18+9)/5 - 2 = 8, matching the 8 gaps below
        assert NumericalSemigroup([5, 7, 9]).genus() == 8

    def test_gaps_examples(self):
        assert NumericalSemigroup([5, 7, 9]).gaps() == [1, 2, 3, 4, 6, 8, 11, 13]
        assert NumericalSemigroup([1]).gaps() == []
        assert NumericalSemigroup([2, 3]).gaps() == [1]

    def test_contains_examples(self):
        S = NumericalSemigroup([5, 7, 9])
        assert 13 not in S
        assert 0 in S
        assert 14 in S
        assert -3 not in S

    @given(gen_sets)
    @settings(max_examples=60)
    def test_against_dp_oracle(self, gens):
        try:
            S = NumericalSemigroup(gens)
        except NotANumericalSemigroup:
            return
        limit = max(S.frobenius(), 0) + 2 * S.multiplicity + 1
        member = dp_members(S.generators, limit)
        gaps = [x for x in range(limit + 1) if not member[x]]
        assert S.gaps() == gaps
        assert S.genus() == len(gaps)
        assert S.frobenius() == (max(gaps) if gaps else -1)
        for m in range(limit + 1):
            assert (m in S) == member[m], (gens, m)


def brute_pseudo_frobenius(S):
    """Oracle: definition-level scan for x not in S with x + s in S, nonzero s."""
    f = S.frobenius()
    if f < 0:
        return [-1]
    nonzero = [s for s in range(1, f + S.multiplicity + 1) if s in S]
    out = []
    for x in range(-1, f + 1):
        if x in S:
            continue
        if all((x + s) in S for s in nonzero):
            out.append(x)
    return out


class TestPseudoFrobenius:
    def test_examples(self):
        assert NumericalSemigroup([6, 15, 20]).pseudo_frobenius() == [49]
        assert NumericalSemigroup([2, 3]).pseudo_frobenius() == [1]
        assert NumericalSemigroup([1]).pseudo_frobenius() == [-1]

    def test_5_7_9_against_definition(self):
        S = NumericalSemigroup([5, 7, 9])
        assert S.pseudo_frobenius() == brute_pseudo_frobenius(S) == [11, 13]
        assert len(S.pseudo_frobenius()) == 2

    def test_type_examples(self):
        assert len(NumericalSemigroup([6, 15, 20]).pseudo_frobenius()) == 1
        assert len(NumericalSemigroup([2, 3]).pseudo_frobenius()) == 1

    @given(gen_sets)
    @settings(max_examples=40)
    def test_against_definition(self, gens):
        try:
            S = NumericalSemigroup(gens)
        except NotANumericalSemigroup:
            return
        if S.frobenius() > 500:
            return
        assert S.pseudo_frobenius() == brute_pseudo_frobenius(S)


class TestLargeSizes:
    def test_interval_m_to_2m_at_997(self):
        # <m, m+1, ..., 2m-1> is {0} together with [m, infinity): every
        # candidate is minimal and every gap is pseudo-Frobenius
        m = 997
        S = NumericalSemigroup(range(m, 2 * m))
        assert S.generators == tuple(range(m, 2 * m))
        assert S.frobenius() == S.genus() == len(S.pseudo_frobenius()) == m - 1
        assert S.pseudo_frobenius() == list(range(1, m))

    @given(st.integers(2, 3000), st.integers(1, 40), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_roberts_arithmetic_sequences(self, a, k, d):
        # Roberts (1956): F(a, a+d, ..., a+kd) = (floor((a-2)/k) + 1) a + (d-1)(a-1) - 1
        assume(gcd(a, d) == 1)
        S = NumericalSemigroup([a + i * d for i in range(k + 1)])
        assert S.frobenius() == ((a - 2) // k + 1) * a + (d - 1) * (a - 1) - 1


class TestSymmetryAndTelescopic:
    def test_symmetric_examples(self):
        assert NumericalSemigroup([6, 15, 20]).is_symmetric()
        assert NumericalSemigroup([1]).is_symmetric()
        assert not NumericalSemigroup([3, 5, 7]).is_symmetric()

    @given(gen_sets)
    @settings(max_examples=60)
    def test_symmetric_implies_odd_frobenius(self, gens):
        try:
            S = NumericalSemigroup(gens)
        except NotANumericalSemigroup:
            return
        if S.is_symmetric() and S.frobenius() >= 0:
            assert S.frobenius() % 2 == 1

    def test_telescopic_examples(self):
        assert NumericalSemigroup([6, 15, 20]).is_telescopic()
        assert NumericalSemigroup([2, 3]).is_telescopic()
        assert NumericalSemigroup([1]).is_telescopic()
        # d-chain: d_2 = 1 already, and 9 is not in <5, 7>
        assert not NumericalSemigroup([5, 7, 9]).is_telescopic()

    @given(gen_sets)
    @settings(max_examples=40)
    def test_telescopic_implies_symmetric(self, gens):
        try:
            S = NumericalSemigroup(gens)
        except NotANumericalSemigroup:
            return
        if S.is_telescopic():
            assert S.is_symmetric()

    @given(gen_sets)
    @example([6, 15, 20]).via("telescopic")
    @example([8, 12, 18, 27]).via("telescopic, four generators")
    @example([5, 7, 9]).via("not telescopic")
    @example([4, 5, 6]).via("not telescopic: 6 is not in <4, 5>")
    @settings(max_examples=150)
    def test_telescopic_against_the_chain_definition(self, gens):
        assume(gcd(*gens) == 1)
        assert NumericalSemigroup(gens).is_telescopic() == chain_telescopic(gens)
