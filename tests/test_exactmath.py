"""Exact-arithmetic primitives, cross-checked against independent oracles.

The binomial oracle is math.comb, at the sizes where binomial may take the
prime product tree.  Pascal's rule up to n = 60, the three valuation routes,
the residue lemma on its provable domain and the family gcd are rows of
`verify` (`oracle._arithmetic_checks`), and the FAULTS table in
tests/test_layering.py shows that each of those rows can fail.
"""

import operator
import tracemalloc
from array import array
from bisect import bisect_right
from functools import cache
from itertools import compress
from math import comb, isqrt, prod
from sys import getsizeof

import pytest

import frobinom.exactmath
from frobinom.cli import MAX_N
from frobinom.exactmath import (
    PRIME_BLOCK,
    PRIME_CACHE_CAP,
    TREE_K2_PER_N,
    TREE_MIN_K,
    binom_residue_lemma,
    binomial,
    binomial_valuation_kummer,
    factorize,
    is_prime,
    p_adic_valuation,
    sun_congruence_holds,
)

from shared import cases


@cache
def trial_division_primes(limit):
    """Primes <= limit, each k tried against the primes up to isqrt(k)."""
    primes = []
    for k in range(2, limit + 1):
        if all(k % q for q in primes[:bisect_right(primes, isqrt(k))]):
            primes.append(k)
    return primes


SIEVE_PRIMES = trial_division_primes(2**16)


def fresh_sieve():
    """An empty prime cache, as at import."""
    return frobinom.exactmath._Sieve(1, array("I"), [])


def deep_bytes(obj):
    """sys.getsizeof of obj, and of every item of the lists and tuples in it."""
    if isinstance(obj, (list, tuple)):
        return getsizeof(obj) + sum(map(deep_bytes, obj))
    return getsizeof(obj)


class TestBinomial:
    def test_known_values(self):
        assert binomial(50, 25) == 126410606437752
        assert binomial(6, 3) == 20
        assert binomial(123, 0) == 1


def dispatch_thresholds(n):
    """The least j = min(k, n-k) allowed on the tree path by each of the two rules."""
    return TREE_MIN_K, isqrt(TREE_K2_PER_N * n - 1) + 1


def near_thresholds(n):
    """k at, one below and one above each threshold, and their mirrors n - k."""
    ks = set()
    for t in dispatch_thresholds(n):
        for j in (t - 1, t, t + 1):
            if 0 <= j <= n // 2:
                ks.update((j, n - j))
    return sorted(ks)


LARGE_N = range(2 * TREE_MIN_K, 2 * 10**5 + 1)


def block_edge_range(rng):
    """(n, j) with j <= n/2 whose range (n - j, n] holds the primes of index
    lo .. hi - 1: lo and hi on a block edge, one off it or inside a block,
    from zero to six blocks apart, so the range may be shorter than a block.
    Redrawn until lo <= hi and 1 <= j <= n/2."""
    primes, block = SIEVE_PRIMES, PRIME_BLOCK

    def offset():
        return rng.choice([-1, 0, 1]) if rng.random() < 0.5 else rng.randint(2, block - 2)

    while True:
        top = rng.randint(16, len(primes) // block - 1)
        hi = block * top + offset()
        lo = block * (top - rng.randint(0, 6)) + offset()
        if lo > hi:
            continue
        # exactly hi primes are <= n and exactly lo are <= n - j
        n = primes[hi - 1] + rng.randint(0, primes[hi] - primes[hi - 1] - 1)
        m = primes[lo - 1] + rng.randint(0, primes[lo] - primes[lo - 1] - 1)
        if 1 <= n - m <= n // 2:
            return n, n - m


# the lower end of block_edge_range: top block 16, lo = hi one below its
# edge, and j = 1, so the range (n - 1, n] holds no prime
LEAST_BLOCK_EDGE_RANGE = SIEVE_PRIMES[16 * PRIME_BLOCK - 2] + 1, 1


def growth_limit(rng):
    """An n from just below the last prime before a block edge to the first
    prime after it; n <= 2^15 keeps every doubled limit within the
    reference's 2^16."""
    b = rng.randint(1, bisect_right(SIEVE_PRIMES, 2**15) // PRIME_BLOCK - 1)
    return rng.randint(SIEVE_PRIMES[PRIME_BLOCK * b - 1] - 1, SIEVE_PRIMES[PRIME_BLOCK * b])


def growth_limits(rng):
    """1 to 6 growth limits, in the order the cache is asked for them."""
    return [growth_limit(rng) for _ in range(rng.randint(1, 6))]


class TestBinomialDispatch:
    """binomial against math.comb on both sides of the switch to the product tree."""

    def test_tree_taken_exactly_from_the_thresholds(self, monkeypatch):
        calls = []
        tree = frobinom.exactmath._binomial_from_primes

        def recording_tree(n, j):
            calls.append((n, j))
            return tree(n, j)

        monkeypatch.setattr(frobinom.exactmath, "_binomial_from_primes", recording_tree)
        # the square rule binds at 2 * 10^4 (j**2 = 32 n exactly at j = 800) and
        # at 10^5 (j >= 1789); TREE_MIN_K = 400 binds at 1000
        for n, least in ((2 * 10**4, 800), (10**5, 1789), (1000, TREE_MIN_K)):
            assert max(dispatch_thresholds(n)) == least
            for k in (least - 1, n - least + 1):
                calls.clear()
                assert binomial(n, k) == comb(n, k) and not calls
            for k in (least, n - least, n // 2):
                calls.clear()
                assert binomial(n, k) == comb(n, k) and calls == [(n, min(k, n - k))]

    def test_tree_itself_matches_comb_below_the_thresholds(self):
        # binomial never sends these to the tree; checked so the thresholds
        # can move without leaving small cases untested
        for n in range(2, 201):
            for j in range(1, n // 2 + 1):
                assert frobinom.exactmath._binomial_from_primes(n, j) == comb(n, j), (n, j)

    def test_tree_matches_comb_on_and_off_block_edges(self):
        for n, j in cases(201, 150, block_edge_range, LEAST_BLOCK_EDGE_RANGE):
            assert frobinom.exactmath._binomial_from_primes(n, j) == comb(n, j), (n, j)

    def test_matches_comb_at_each_threshold(self):
        for n in cases(202, 60, lambda rng: rng.choice(LARGE_N), LARGE_N[0]):
            for k in near_thresholds(n):
                assert binomial(n, k) == comb(n, k), (n, k)

    def test_matches_comb_and_is_symmetric(self):
        draw = lambda rng: (rng.choice(LARGE_N), rng.randint(0, 2 * 10**4), rng.random() < 0.5)
        for n, j, mirror in cases(203, 60, draw, (LARGE_N[0], 0, False), (LARGE_N[0], 0, True)):
            j = min(j, n // 2)
            k = n - j if mirror else j
            expected = comb(n, k)
            assert binomial(n, k) == expected, (n, k)
            assert binomial(n, n - k) == expected, (n, k)

    def test_matches_comb_for_every_k(self):
        def draw(rng):
            n = rng.randint(0, 2 * 10**4)
            return n, rng.randint(0, n)

        for n, k in cases(204, 40, draw, (0, 0)):
            assert binomial(n, k) == comb(n, k), (n, k)

    def test_edges(self):
        # n = 0 first: verify's Pascal row starts at n = 1
        for n in cases(205, 100, lambda rng: rng.randint(0, 2 * 10**5), 0):
            for k in {0, 1, n - 1, n}:
                if 0 <= k <= n:
                    assert binomial(n, k) == (1 if k in (0, n) else n), (n, k)

    def test_above_cache_cap_uses_comb_and_sieves_nothing(self):
        # both thresholds admit this j, so only the cap keeps it off the tree
        draw = lambda rng: (rng.randint(PRIME_CACHE_CAP + 1, PRIME_CACHE_CAP + 10**5),
                            rng.randint(0, 50))
        for n, extra in cases(206, 10, draw, (PRIME_CACHE_CAP + 1, 0)):
            j = max(dispatch_thresholds(n)) + extra
            assert binomial(n, j) == comb(n, j), (n, j)
            assert frobinom.exactmath._sieve[0] <= PRIME_CACHE_CAP, (n, j)

    def test_tree_matches_comb_past_the_cli_bound(self, monkeypatch):
        # n in (10^6, 2^24], j at or just above the square rule's threshold,
        # where the tree takes over from math.comb; a growing cache shows the
        # tree ran.  A fresh cache, so the process keeps no 2^24 sieve
        monkeypatch.setattr(frobinom.exactmath, "_sieve", fresh_sieve())
        draw = lambda rng: (rng.randint(MAX_N + 1, PRIME_CACHE_CAP), rng.randint(0, 50))
        for n, extra in cases(209, 6, draw, (MAX_N + 1, 0), (PRIME_CACHE_CAP, 0)):
            j = max(dispatch_thresholds(n)) + extra
            assert binomial(n, j) == comb(n, j), (n, j)
            assert frobinom.exactmath._sieve.limit >= n, (n, j)

    def test_prime_cache_doubles_and_stops_at_the_cap(self, monkeypatch):
        primes_up_to = frobinom.exactmath._primes_up_to
        monkeypatch.setattr(frobinom.exactmath, "_sieve", fresh_sieve())
        assert primes_up_to(1000).primes.tolist() == [p for p in range(1001) if is_prime(p)]
        assert primes_up_to(1001).primes.tolist() == [p for p in range(2001) if is_prime(p)]
        primes_up_to(PRIME_CACHE_CAP // 2 + 1)
        primes_up_to(PRIME_CACHE_CAP // 2 + 2)
        assert frobinom.exactmath._sieve[0] == PRIME_CACHE_CAP
        # 1,077,871 primes as machine words and their block products: 8.85 MB
        assert deep_bytes(frobinom.exactmath._sieve) < 9 * 2**20

    @pytest.mark.parametrize("limit", [2, 3, 4, 5, 9, 24, 25, 48, 49, 120, 121, 1000, 1001])
    def test_odd_sieve_against_trial_division(self, monkeypatch, limit):
        # a fresh sieve to exactly this limit: 2, 3, even, odd, squares of primes
        monkeypatch.setattr(frobinom.exactmath, "_sieve", fresh_sieve())
        assert frobinom.exactmath._primes_up_to(limit).primes.tolist() == trial_division_primes(limit)
        assert frobinom.exactmath._sieve[0] == limit

    def test_odd_sieve_at_each_growth_step(self, monkeypatch):
        # each step just past the cached limit doubles it: 2, 4, 8, ..., 2^15;
        # each growth completes the last partial block and appends the new
        # whole ones, which must equal the products over the grown prime list
        monkeypatch.setattr(frobinom.exactmath, "_sieve", fresh_sieve())
        reference = trial_division_primes(2**15)
        while frobinom.exactmath._sieve[0] < 2**15:
            limit, primes, blocks = frobinom.exactmath._primes_up_to(frobinom.exactmath._sieve[0] + 1)
            expected = reference[:bisect_right(reference, limit)]
            assert primes.tolist() == expected, limit
            assert blocks == [prod(expected[i:i + PRIME_BLOCK])
                              for i in range(0, len(expected) - PRIME_BLOCK + 1, PRIME_BLOCK)], limit

    @pytest.mark.parametrize("old_limit, limit", [(1, 10**6), (1000, 5000)])
    def test_a_growth_reads_only_above_the_old_limit(self, monkeypatch, old_limit, limit):
        # a growth clears its flags from scratch, with no nested growth to its
        # square root, but reads them once and only above the old limit, and
        # keeps the old block products
        primes_up_to = frobinom.exactmath._primes_up_to
        monkeypatch.setattr(frobinom.exactmath, "_sieve", fresh_sieve())
        old = primes_up_to(old_limit)
        read, nested = [], []

        def recording(data, selectors):
            read.append(data)
            return compress(data, selectors)

        def recording_growth(n):
            nested.append(n)
            return primes_up_to(n)

        monkeypatch.setattr(frobinom.exactmath, "compress", recording)
        monkeypatch.setattr(frobinom.exactmath, "_primes_up_to", recording_growth)
        grown = primes_up_to(limit)
        assert grown.limit == limit and read == [range(old_limit + 1 | 1, limit + 1, 2)]
        assert nested == []
        assert all(map(operator.is_, grown.blocks, old.blocks))
        assert len(grown.blocks) > len(old.blocks)

    def test_growths_across_block_edges(self, monkeypatch):
        # each n from just below the last prime of a block to the first of the
        # next, so a growth ends, or starts, inside a block or on its edge; the
        # least such n, alone, first
        least = [SIEVE_PRIMES[PRIME_BLOCK - 1] - 1]
        for limits in cases(207, 40, growth_limits, least):
            monkeypatch.setattr(frobinom.exactmath, "_sieve", fresh_sieve())
            for n in limits:
                limit, primes, blocks = frobinom.exactmath._primes_up_to(n)
                expected = SIEVE_PRIMES[:bisect_right(SIEVE_PRIMES, limit)]
                assert primes.tolist() == expected, (limits, limit)
                whole = range(0, len(expected) - PRIME_BLOCK + 1, PRIME_BLOCK)
                assert blocks == [prod(expected[i:i + PRIME_BLOCK]) for i in whole], (limits, limit)

    def test_prime_cache_at_the_cli_bound_is_under_one_megabyte(self, monkeypatch):
        # the primes to 10^6 as machine words plus their block products: 0.57 MB;
        # as a list of ints they take 2.70 MB
        monkeypatch.setattr(frobinom.exactmath, "_sieve", fresh_sieve())
        frobinom.exactmath._primes_up_to(MAX_N)
        assert deep_bytes(frobinom.exactmath._sieve) < 2**20

    def test_cache_cap_covers_the_cli_bound(self):
        # no n the CLI takes is past the prime cache, where every binomial
        # takes math.comb's quadratic route
        assert MAX_N <= PRIME_CACHE_CAP

    def test_kummer_valuation_of_tree_results(self):
        for n, extra in cases(208, 30, lambda rng: (rng.choice(LARGE_N), rng.randint(0, 2000)),
                              (LARGE_N[0], 0)):
            k = min(max(dispatch_thresholds(n)) + extra, n // 2)
            b = binomial(n, k)
            for p in (2, 3, 5, 7, 11, 13):
                assert binomial_valuation_kummer(p, n, k) == p_adic_valuation(p, b), (p, n, k)


class TestFactorize:
    def test_examples(self):
        assert factorize(50) == [(2, 1), (5, 2)]
        assert factorize(70) == [(2, 1), (5, 1), (7, 1)]
        assert factorize(27) == [(3, 3)]
        assert factorize(2) == [(2, 1)]

    def test_reconstructs_and_primes_ascend(self):
        for n in cases(209, 100, lambda rng: rng.randint(2, 10**6), 2):
            fac = factorize(n)
            product = 1
            for p, k in fac:
                assert is_prime(p), (n, p)
                product *= p**k
            assert product == n, n
            assert [p for p, _ in fac] == sorted({p for p, _ in fac}), n


class TestValuations:
    def test_divide_out_examples(self):
        assert p_adic_valuation(2, 40) == 3
        assert p_adic_valuation(3, 81) == 4
        assert p_adic_valuation(5, 126410606437752) == 0

    def test_kummer_examples(self):
        assert binomial_valuation_kummer(2, 4, 2) == 1
        assert binomial_valuation_kummer(3, 9, 3) == 1
        for p in (2, 3, 5, 7):
            for n in (0, 1, 9, 30):
                assert binomial_valuation_kummer(p, n, 0) == 0


class TestSunCongruence:
    def test_examples(self):
        assert sun_congruence_holds(2, 1, 3, 1)   # 15/3 = 5 = 1 + 2*1*2
        assert sun_congruence_holds(5, 1, 2, 1)   # 252/2 = 126 == 1 mod 25

    def test_non_rational_quotient_is_fine(self):
        # C(8,4)/C(4,2) = 70/6 is only a 2-adic integer; the congruence holds
        assert sun_congruence_holds(2, 1, 4, 2)

    def test_grid_holds_where_provable(self):
        # the a = 0 slice for p = 2 is genuinely false whenever n2 >= 1 and
        # m - n2 is odd (quotient 1, right side 1 + 2*n2*(m-n2) != 1 mod 4)
        for p in (2, 3, 5, 7):
            for a in range(3):
                for m in range(13):
                    for n2 in range(m + 1):
                        expected = not (p == 2 and a == 0 and n2 >= 1 and (m - n2) % 2)
                        assert sun_congruence_holds(p, a, m, n2) == expected, (p, a, m, n2)

    def test_counterexample_at_a_zero(self):
        assert not sun_congruence_holds(2, 0, 2, 1)


class TestResidueLemma:
    def test_examples(self):
        assert binom_residue_lemma(50, 5, 1) == (10, 10)
        assert binom_residue_lemma(50, 5, 2) == (2, 2)
        assert binom_residue_lemma(6, 2, 1) == (3, 3)

    def test_known_counterexamples_beyond_that_domain(self):
        # C(8,4) = 70 == 6 (mod 8), not 8/4 = 2: the p = 2 correction factor
        # 2*(n/2^k) - 1 does not vanish for k >= 2
        assert binom_residue_lemma(8, 2, 2) == (6, 2)
        assert binom_residue_lemma(24, 2, 2) == (18, 6)
        # and for odd p the modulus argument only reaches k <= 2
        lhs, rhs = binom_residue_lemma(54, 3, 3)
        assert lhs != rhs

    def test_an_exponent_past_the_bit_length_is_refused_before_p_k_is_built(self):
        # 2^k > n once k exceeds n's bit length, so 2^(10^7), a 1.25 MB int,
        # is never built
        assert binom_residue_lemma(8, 2, 3) == (1, 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^2\^10000000 does not divide 6$"):
                binom_residue_lemma(6, 2, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def test_package_exports_no_modules():
    # frobinom.binomial is the closed-form submodule; the binomial function
    # lives in frobinom.exactmath
    import inspect

    import frobinom

    for name in frobinom.__all__:
        assert not inspect.ismodule(getattr(frobinom, name)), name
    assert inspect.ismodule(frobinom.binomial)
    assert frobinom.exactmath.binomial(10, 3) == 120

