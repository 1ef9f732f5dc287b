"""Closed forms for the binomial-coefficient semigroups and the triple
completion over them, against the generic engine and the listed Apery set."""

import random
from collections import namedtuple
from itertools import count
from math import comb, gcd, lgamma, log
from operator import lt

import pytest
from hypothesis import example, given, settings, strategies as st

import frobinom.exactmath
from frobinom.binomial import (
    RECORD_CACHE,
    DegenerateSemigroupError,
    _box,
    _coordinates,
    algorithm1,
    bn_apery_closed,
    bn_report,
    bn_spec,
    decompose,
    exists_admissible_bn,
    identity_pm_check,
    identity_pq_check,
)
from frobinom.cli import main
from frobinom.corepartitions import ENUM_BOUND, NumericalSet, enumerate_admissible
from frobinom.exactmath import binomial, factorize, is_prime
from frobinom.oracle import _arithmetic_checks, bn_family, verify_closed_vs_oracle
from frobinom.semigroup import NumericalSemigroup, minimal_generators

from shared import semigroup_set

COMPOSITES_30 = [n for n in range(4, 31) if not is_prime(n)]
COMPOSITES_100 = [n for n in range(4, 101) if not is_prime(n)]


class TestSpec:
    def test_examples(self):
        spec = bn_spec(50)
        assert spec._fields == ("n", "factorization", "scale")
        assert spec.scale == 1
        assert spec.factorization == ((2, 1), (5, 2))
        assert bn_spec(8).scale == 2
        assert bn_spec(9).scale == 3

    def test_scale_equals_family_gcd_up_to_200(self):
        for n in range(2, 201):
            raw = [binomial(n, k) for k in range(1, n)]
            assert bn_spec(n).scale == gcd(*raw), n

    def test_family_is_scaled(self):
        assert bn_family(9) == [3, 12, 28, 42, 42, 28, 12, 3]
        assert bn_family(6) == [6, 15, 20, 15, 6]
        for n in range(2, 201):
            row = [comb(n, k) for k in range(1, n)]
            g = gcd(*row)
            assert bn_family(n) == [v // g for v in row], n

    def test_mirrored_half_row_equals_the_full_pascal_row(self):
        # the family builds k <= n/2 and mirrors it; the whole row by
        # Pascal's rule, then its gcd, gives the same list
        for n in range(3, 400):
            row = [n]
            for k in range(1, n - 1):
                row.append(row[-1] * (n - k) // (k + 1))
            g = gcd(*row)
            family = bn_family(n)
            assert family == [v // g for v in row], n
            # C(n, k) and C(n, n - k) are one int object
            assert all(family[k - 1] is family[n - k - 1] for k in range(1, n // 2)), n


class TestMinimalSystem:
    def test_examples(self):
        assert bn_report(12).minimal_generators == (12, 66, 220, 495)
        assert bn_report(9).minimal_generators == (3, 28)
        assert bn_report(6).minimal_generators == (6, 15, 20)

    def test_embedding_dimension_examples(self):
        assert bn_report(12).embedding_dimension == 4
        assert bn_report(70).embedding_dimension == 4
        assert bn_report(9).embedding_dimension == 2

    def test_dimension_matches_system_size_up_to_100(self):
        for n in COMPOSITES_100:
            report = bn_report(n)
            assert report.embedding_dimension == len(report.minimal_generators), n

    def test_matches_engine_up_to_30(self):
        for n in COMPOSITES_30:
            assert list(bn_report(n).minimal_generators) == minimal_generators(bn_family(n)), n

    def test_built_ascending_up_to_6000(self):
        # the base, then the box values: strictly ascending with no sort
        for n in range(4, 6001):
            if not is_prime(n):
                report = bn_report(n)
                gens = report.minimal_generators
                assert gens == (report.apery_base, *(v for v, _ in report.apery_box[1])), n
                assert all(map(lt, gens, gens[1:])), n


class TestAperyClosed:
    def test_examples(self):
        assert bn_apery_closed(6) == (6, (0, 15, 20, 35, 40, 55))
        assert bn_apery_closed(9) == (3, (0, 28, 56))
        assert bn_apery_closed(4) == (2, (0, 3))

    def test_structure_up_to_100(self):
        for n in COMPOSITES_100:
            base, ap = bn_apery_closed(n)
            assert len(ap) == base
            assert len({w % base for w in ap}) == base
            assert ap[0] == 0
            assert max(ap) - base == bn_report(n).frobenius


def value_of(box, coords):
    return sum(c * v for c, v in zip(coords, box.values))


def apery_lookup(n, r):
    """The Apery element in the class r and its box coordinates, by the
    record's word-size solve and one value sum."""
    box = _box(n)
    coords = _coordinates(box, r)
    return value_of(box, coords), tuple(coords)


class Classes(namedtuple("Classes", "base least frobenius")):
    """S(B_n) by its base, the least element least(r) of each class r mod the
    base, and F: x is a member iff it is at least the least of its class."""
    __slots__ = ()

    def __contains__(self, x):
        return x >= 0 and x >= self.least(x % self.base)


def listed_classes(n):
    """S(B_n) read off its listed Apery set, with no lookup in the record."""
    base, ap = bn_apery_closed(n)
    return Classes(base, {w % base: w for w in ap}.__getitem__, ap[-1] - base)


class TestAperyLookup:
    def test_every_residue_up_to_200(self):
        for n in range(4, 201):
            if is_prime(n):
                continue
            base, least, _ = listed_classes(n)
            assert [apery_lookup(n, r)[0] for r in range(base)] == \
                [least(r) for r in range(base)], n

    @given(st.integers(4, 3000).filter(lambda n: not is_prime(n)), st.integers(0, 10**12))
    @settings(max_examples=150, deadline=None)
    def test_matches_listing_and_rebuilds(self, n, r):
        base, least, _ = listed_classes(n)
        gens = _box(n).gens
        w, coords = apery_lookup(n, r)
        assert w == least(r % base)
        assert len(coords) == len(gens)
        assert all(0 <= c < p for c, (_, p, _) in zip(coords, gens))
        assert sum(c * value for c, (value, _, _) in zip(coords, gens)) == w

    @given(st.integers(4, 40).filter(lambda n: not is_prime(n)), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_matches_engine_up_to_40(self, n, r):
        base = _box(n).base
        engine = NumericalSemigroup(bn_family(n)).apery_set(base)
        assert apery_lookup(n, r)[0] == engine.entries[r % base]

    @given(st.sampled_from([59049, 100000, 510510, 10**6]), st.integers(0, 10**12))
    @settings(max_examples=200, deadline=None)
    def test_cached_steps_match_the_per_call_solve(self, n, r):
        assert apery_lookup(n, r) == _per_call_digit_solve(n, r)


def _per_call_digit_solve(n, r):
    """The lookup without the record's steps: p^e, the inverse and the
    reductions are recomputed from the full generators on every call."""
    box = _box(n)
    base, gens = box.base, box.gens
    x = r % base
    coords = [0] * len(gens)
    for i in sorted(range(len(gens)), key=lambda i: gens[i][2]):
        value, p, e = gens[i]
        pe = p**e
        coords[i] = x // pe * pow(value % (pe * p) // pe, -1, p) % p
        x = (x - coords[i] * value) % base
    assert x == 0, (n, r)
    return sum(c * g[0] for c, g in zip(coords, gens)), tuple(coords)


def margins(box):
    """margins[i] = values[i] minus the largest sum of the generators below
    it, sum over k < i of (p_k - 1) * values[k]: where two coordinate
    vectors, read from the largest generator down, first differ at i, the
    one with the larger coordinate there has the larger value, by at least
    margins[i]."""
    out, below = [], 0
    for value, (_, p, _) in zip(box.values, box.gens):
        out.append(value - below)
        below += (p - 1) * value
    return out


class TestBoxOrder:
    """The record's ordered flag, and the order of Apery elements by their
    coordinates read from the largest generator down, through the margins."""

    def test_flag_is_exactly_coordinate_order_up_to_3000(self):
        unordered = []
        for n in range(4, 3000):
            if is_prime(n):
                continue
            box = _box(n)
            assert box.ordered == all(m > 0 for m in margins(box)), n
            # the box listed in coordinate order, the last (largest)
            # generator's coordinate most significant
            listing = [0]
            for value, p, _ in box.gens:
                listing = [w + c * value for c in range(p) for w in listing]
            ap = list(bn_apery_closed(n)[1])  # ascending by value
            assert (listing == ap) == box.ordered, n
            if not box.ordered:
                unordered.append(n)
                assert sorted(listing) == ap, n
        assert unordered == [12]

    @given(st.sampled_from([6, 12, 30, 64, 81, 2310, 4096, 15625, 30030]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_margin_bounds_the_value_gap(self, n, data):
        # where a and b, read from the top, first differ at i with a[i] > b[i],
        # val(a) - val(b) >= margins[i]
        box = _box(n)
        vectors = st.tuples(*(st.integers(0, p - 1) for _, p, _ in box.gens))
        a, b = list(data.draw(vectors)), list(data.draw(vectors))
        if a == b:
            return
        i = max(k for k in range(len(a)) if a[k] != b[k])
        if a[i] < b[i]:
            a, b = b, a
        assert value_of(box, a) - value_of(box, b) >= margins(box)[i]

    def test_margin_bound_is_tight(self):
        # one unit of generator i against every lower coordinate at its bound
        for n in (6, 12, 30, 64, 2310, 4096):
            box = _box(n)
            for i, margin in enumerate(margins(box)):
                a = [int(k == i) for k in range(len(box.gens))]
                b = [p - 1 if k < i else 0 for k, (_, p, _) in enumerate(box.gens)]
                assert value_of(box, a) - value_of(box, b) == margin, (n, i)

    @pytest.mark.parametrize("n", [2**19, 786432, 10**6])
    def test_big_ints_are_the_generator_values(self, n):
        # a cached record holds no big int of its own beyond F: every other
        # one is a generator value, the same object, not a copy
        box = _box(n)
        values = {id(v) for v in box.values}
        stack, big = list(box), []
        while stack:
            item = stack.pop()
            if isinstance(item, tuple):
                stack.extend(item)
            elif isinstance(item, int) and item.bit_length() > 64:
                big.append(item)
        big.remove(box.frobenius)
        assert big and all(id(v) in values for v in big)


class TestRecordCache:
    def test_seventeen_n_are_built_once(self):
        # a pool of 17 n queried twice builds 17 records in each stage
        pool = (2310, 30030, 60060, 90090, 120120, 4000, 10000, 20000, 50000, 100000,
                1024, 2187, 15625, 16807, 59049, 510510, 10**6)
        bn_spec.cache_clear()
        _box.cache_clear()
        for _ in range(2):
            for n in pool:
                decompose(n, 7)
                algorithm1(n, 1, 5, force_base=True)
                exists_admissible_bn(n, 5)
        assert _box.cache_info().misses == len(pool)
        assert bn_spec.cache_info().misses == len(pool)
        assert _box.cache_info().maxsize == bn_spec.cache_info().maxsize == RECORD_CACHE

    def test_prime_n_caches_no_box(self):
        # the base is 1: the box stage raises, and keeps no record
        _box.cache_clear()
        for p in (2, 13, 999983):
            with pytest.raises(DegenerateSemigroupError, match=f"n = {p} is prime"):
                _box(p)
        assert _box.cache_info().currsize == 0


class TestClosedQuantities:
    def test_frobenius_golden_values(self):
        assert bn_report(50).frobenius == 505642434227223
        assert bn_report(70).frobenius == 7241062721
        assert bn_report(4).frobenius == 1

    def test_genus_examples(self):
        assert bn_report(6).genus == 25
        assert bn_report(50).genus == 252821217113612
        assert bn_report(4).genus == 1

    def test_symmetry_identity_up_to_100(self):
        for n in COMPOSITES_100:
            assert 2 * bn_report(n).genus == bn_report(n).frobenius + 1, n

    def test_pseudo_frobenius_examples(self):
        assert bn_report(6).pseudo_frobenius == (49,)
        assert bn_report(9).pseudo_frobenius == (53,)  # Sylvester on <3,28>: 3*28-3-28
        assert bn_report(70).pseudo_frobenius == (7241062721,)

    def test_report_fields(self):
        rep = bn_report(6)
        assert rep.minimal_generators == (6, 15, 20)
        assert (rep.frobenius, rep.genus, rep.embedding_dimension) == (49, 25, 3)
        assert rep.pseudo_frobenius == (49,)
        assert rep.type == 1 and rep.symmetric and rep.telescopic
        assert bn_report(50).frobenius == 505642434227223
        assert bn_report(9).minimal_generators == (3, 28)
        assert bn_report(9).frobenius == 53

    def test_report_carries_the_box(self):
        assert bn_report(6).apery_box == (6, ((15, 2), (20, 3)))
        assert bn_report(9).apery_box == (3, ((28, 3),))
        assert bn_report(12).apery_box == (12, ((66, 2), (220, 3), (495, 2)))

    def test_records_are_immutable(self):
        for record, field in ((bn_report(6), "frobenius"), (bn_spec(6), "scale"),
                              (decompose(6, 3), "value"),
                              (verify_closed_vs_oracle(6), "fields")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)


class TestDecompose:
    def test_canonical_examples(self):
        rep = decompose(10, 3)
        assert rep.basis == (10, 45, 252)
        assert rep.coefficients == (12, 0, 0)  # Apery class of 120 is 0 mod 10
        assert rep.value == 120 and not rep.scaled

        rep = decompose(6, 3)
        assert rep.coefficients == (0, 0, 1)  # the target is the generator 20
        assert rep.value == 20

        rep = decompose(50, 7)
        assert sum(c * b for c, b in zip(rep.coefficients, rep.basis)) == binomial(50, 7)

    def test_scaled_prime_power(self):
        rep = decompose(9, 2)
        assert rep.scaled and rep.basis == (3, 28)
        assert rep.value == binomial(9, 2) // 3
        assert sum(c * b for c, b in zip(rep.coefficients, rep.basis)) == rep.value

    def test_soundness_sweep_up_to_40(self):
        for n in range(4, 41):
            if is_prime(n):
                continue
            scale = bn_spec(n).scale
            for m in range(1, n):
                rep = decompose(n, m)
                assert all(c >= 0 for c in rep.coefficients), (n, m)
                total = sum(c * b for c, b in zip(rep.coefficients, rep.basis))
                assert total == rep.value == binomial(n, m) // scale, (n, m)

    def test_box_coefficients_stay_in_bounds(self):
        # non-multiplicity coefficients never reach their prime's bound
        for n in (12, 30, 36):
            bounds = _bounds_by_value(n)
            for m in range(1, n):
                rep = decompose(n, m)
                assert len(rep.coefficients) == len(bounds) + 1
                for c, p in zip(rep.coefficients[1:], bounds):
                    assert 0 <= c < p, (n, m)


# the n of the benchmark's point-query pool, plus two near the CLI's bound
SCALE_NS = [2310, 30030, 60060, 90090, 120120, 4000, 10000, 20000, 50000, 100000,
            1024, 2187, 15625, 16807, 59049, 510510, 10**6]
DECOMPOSE_BANDS = 8
DIGIT_CAP = 10**5


def _band_ms(n):
    """The low end and the middle of each of DECOMPOSE_BANDS equal slices of
    [1, n/2], each mirrored to n - m, while C(n, m) stays below DIGIT_CAP
    decimal digits."""
    half, ms = n // 2, set()
    for band in range(DECOMPOSE_BANDS):
        lo = 1 + (half - 1) * band // DECOMPOSE_BANDS
        hi = max(lo, (half - 1) * (band + 1) // DECOMPOSE_BANDS)
        for m in (lo, (lo + hi) // 2):
            if lgamma(n + 1) - lgamma(m + 1) - lgamma(n - m + 1) < DIGIT_CAP * log(10):
                ms |= {m, n - m}
    return sorted(ms)


@pytest.mark.parametrize("n", SCALE_NS)
def test_decompose_reconstructs_at_scale(n):
    """decompose keeps one runtime check, membership; this is the
    reconstruction it no longer makes, at the point-query sizes."""
    report, scale = bn_report(n), bn_spec(n).scale
    bounds = [p for _, p in report.apery_box[1]]
    ms = _band_ms(n)
    assert len(ms) >= 4, n
    for m in ms:
        rep = decompose(n, m)
        assert rep.basis == report.minimal_generators, (n, m)
        assert min(rep.coefficients) >= 0, (n, m)
        assert all(map(lt, rep.coefficients[1:], bounds)), (n, m)
        total = sum(c * b for c, b in zip(rep.coefficients, rep.basis))
        assert total == rep.value == binomial(n, m) // scale, (n, m)


def _bounds_by_value(n):
    spec = bn_spec(n)
    pairs = sorted((binomial(n, p**j), p)
                   for p, k in spec.factorization for j in range(1, k + 1))
    return [p for _, p in pairs]


class TestIdentityPQ:
    def test_example_3_5_2(self):
        lead = identity_pq_check(3, 5, 2)
        assert lead == -1085 and type(lead) is int
        assert lead * 15 + 3 * binomial(15, 3) + 5 * binomial(15, 5) == binomial(15, 2)

    def test_r_one(self):
        lead = identity_pq_check(2, 5, 1)
        assert lead * 10 + 2 * binomial(10, 2) + 5 * binomial(10, 5) == 10

    def test_example_3_5_7(self):
        lead = identity_pq_check(3, 5, 7)
        assert lead * 15 + 3 * binomial(15, 3) + 5 * binomial(15, 5) == binomial(15, 7)

    def test_exhaustive_prime_pairs_up_to_13(self):
        primes = [2, 3, 5, 7, 11, 13]
        for i, p in enumerate(primes):
            for q in primes[i + 1:]:
                for r in range(p * q + 1):
                    if r % p == 0 or r % q == 0:
                        continue
                    lead = identity_pq_check(p, q, r)
                    assert type(lead) is int, (p, q, r)
                    assert lead * p * q + p * binomial(p * q, p) + q * binomial(p * q, q) \
                        == binomial(p * q, r)


class TestIdentityPM:
    def test_lead_integral_exactly_when_p_divides_m_minus_1(self):
        # the numerator is == -(m-1)*p^(m-1) mod p^m for every r coprime to p,
        # so integrality is an (p, m) property, independent of r
        for p, m in [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)]:
            n = p**m
            for r in range(1, n):
                if r % p == 0:
                    continue
                with pytest.raises(RuntimeError):
                    identity_pm_check(p, m, r)

    def test_failure_above_the_digit_limit(self):
        # at n = 3^9 the subtracted sum has about 5,400 digits, over str()'s
        # default limit; the message names p, m and r, not the sum
        with pytest.raises(RuntimeError, match=r"at p=3, m=9, r=1 \(it is integral"):
            identity_pm_check(3, 9, 1)

    def test_holds_at_p3_m4(self):
        # first odd-prime case with p | m-1: every valid r is integral
        n = 3**4
        for r in range(1, n):
            if r % 3 == 0:
                continue
            lead = identity_pm_check(3, 4, r)
            assert type(lead) is int, r
            fixed = sum(3 ** (i - 2) * binomial(n, 3 ** (i - 1)) for i in range(2, 5))
            assert lead * n + fixed == binomial(n, r), r


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [6, 9, 30, 4096])
    def test_single(self, n):
        cmp = verify_closed_vs_oracle(n)
        assert not cmp.mismatches, cmp.mismatches

    def test_full_sweep_4_to_30(self):
        for n in COMPOSITES_30:
            cmp = verify_closed_vs_oracle(n)
            assert not cmp.mismatches, (n, cmp.mismatches)

    def test_full_sweep_up_to_200(self):
        # bn_report no longer lists the Apery set; the comparison lists it
        for n in range(4, 201):
            if not is_prime(n):
                cmp = verify_closed_vs_oracle(n)
                assert not cmp.mismatches, (n, cmp.mismatches)

    def test_closed_telescopic_claim_matches_engine_up_to_30(self):
        for n in COMPOSITES_30:
            assert NumericalSemigroup(bn_family(n)).is_telescopic(), n


def test_arithmetic_checks_all_pass():
    rows = list(_arithmetic_checks())
    assert rows and all(ok for _, ok in rows), [name for name, ok in rows if not ok]


POINT_NS = [5040, 15625, 30030]


@pytest.fixture(scope="module")
def oracle(request):
    """(n, the generic engine on the full family of n), one engine per n:
    n comes from indirect parametrization."""
    return request.param, NumericalSemigroup(bn_family(request.param))


class TestOracleAtScale:
    """The closed forms and the point queries against the engine's own table,
    at sizes with thousands of generators in the family."""

    @pytest.mark.parametrize("n", [2310, 4096, *POINT_NS])
    def test_closed_forms_match(self, n):
        cmp = verify_closed_vs_oracle(n)
        assert not cmp.mismatches, (n, cmp.mismatches)

    @pytest.mark.parametrize("oracle", POINT_NS, indirect=True)
    def test_decompose_box_part_is_the_engine_apery_element(self, oracle):
        n, engine = oracle
        base = engine.multiplicity
        assert base == _box(n).base
        for m in random.Random(n).sample(range(1, n), 40):
            rep = decompose(n, m)
            box_part = sum(c * b for c, b in zip(rep.coefficients[1:], rep.basis[1:]))
            assert box_part == engine.apery.entries[rep.value % base], (n, m)

    @pytest.mark.parametrize("oracle", POINT_NS, indirect=True)
    def test_algorithm1_triples_lie_in_the_engine(self, oracle):
        n, engine = oracle
        base, f = engine.multiplicity, engine.frobenius()
        rng = random.Random(n)
        for _ in range(40):
            s, p = rng.randrange(10**9), rng.randrange(2, min(base, 500))
            out = algorithm1(n, s, p, force_base=True)
            assert all(x in engine for x in out.triple), (n, s, p, out)
            assert out.count <= 0 or out.triple[2] < f, (n, s, p, out)

    @pytest.mark.parametrize("oracle", POINT_NS, indirect=True)
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_exists_admissible_is_admissible_in_the_engine(self, oracle, p):
        n, engine = oracle
        s = exists_admissible_bn(n, p)
        assert all(x in engine for x in (s, s + 1, s + p)), (n, p, s)
        assert s + p < engine.frobenius(), (n, p, s)


@pytest.fixture
def wrong_tree(monkeypatch):
    """Install a corrupted product tree, given as a function of the true
    C(n, j); the per-n records are cleared before and after, so no record
    built from it outlives the test."""
    real = frobinom.exactmath._binomial_from_primes

    def install(corrupt):
        monkeypatch.setattr(frobinom.exactmath, "_binomial_from_primes",
                            lambda n, j: corrupt(real(n, j)))
    bn_spec.cache_clear()
    _box.cache_clear()
    try:
        yield install
    finally:
        monkeypatch.undo()
        bn_spec.cache_clear()
        _box.cache_clear()


class TestWrongProductTree:
    """At n = 4096 the tree computes C(4096, 2^j) for j >= 9; the oracle's
    family comes from Pascal's rule, so a wrong tree cannot go unseen."""

    def test_tripled_tree_is_a_mismatch(self, wrong_tree):
        wrong_tree(lambda b: 3 * b)
        assert verify_closed_vs_oracle(4096).mismatches == [
            "apery_set", "frobenius", "genus", "minimal_generators", "pseudo_frobenius"]

    def test_tree_off_by_two_is_an_internal_error(self, wrong_tree):
        # C(4096, 2048)/2 + 1 is even, so its unit digit is not invertible mod 2
        wrong_tree(lambda b: b + 2)
        with pytest.raises(RuntimeError, match=r"C\(4096, 2048\) is divisible by 2\*\*1"):
            verify_closed_vs_oracle(4096)

    def test_tree_off_by_two_exits_3(self, wrong_tree, capsys):
        wrong_tree(lambda b: b + 2)
        assert main(["report", "4096"]) == 3
        assert "internal error: RuntimeError: the box generator from C(4096, 2048)" \
            in capsys.readouterr().err


def complete(reps, base, p):
    """The completion by definition: the largest class representative,
    raised by 0, base - 1 or (the least multiple of the base >= p) - p as
    it is the class of s, s+1 or s+p, gives (t, t+1, t+p)."""
    top = max(reps)
    t = top + (0, base - 1, -(-p // base) * base - p)[reps.index(top)]
    return t, t + 1, t + p


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
            S = listed_classes(n)
            assert all(x in S for x in (s, s1, sp))
            assert sp < bn_report(n).frobenius

    def test_small_run_n6(self):
        # residue class of s holds the largest Apery element 55 >= F = 49, so
        # the completion step is skipped and the raw class representatives
        # come back: all members, third entry below F
        out = algorithm1(6, 1, 2)
        assert out.triple == (55, 20, 15)
        assert out.count == 35
        S = listed_classes(6)
        assert all(x in S for x in out.triple)
        assert out.triple[2] < 49

    def test_prime_power_needs_force_base(self):
        out, S = algorithm1(8, 1, 2, force_base=True), listed_classes(8)  # base 4 instead of n
        assert all(x in S for x in out.triple)

    def test_shift_lifts_a_triple_past_f_plus_base(self):
        # at n = 6 (F = 49, base 6) the completion (45, 46, 56) has t2 above
        # F + base, so the shift (floor((49 - 56) / 6) + 1) * 6 = -6 lifts it
        reps = tuple(apery_lookup(6, 3 + d)[0] for d in (0, 1, 11))
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
                    reps = tuple(apery_lookup(n, s + d)[0] for d in (0, 1, p))
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
            S = listed_classes(n)
            base = S.base
            for p in range(2, 30):
                for seed in range(2 * base):
                    residues = {seed % base, (seed + 1) % base, (seed + p) % base}
                    if len(residues) != 3:
                        continue
                    out = algorithm1(n, seed, p, force_base=force)
                    assert all(x in S for x in out.triple), (n, seed, p)
                    if out.count > 0:
                        assert out.triple[2] < bn_report(n).frobenius, (n, seed, p)


# The corrected existence statement (criterion 9 keeps the published one).
# With s0 the least s >= 1 that has s and s + 1 in S, no admissible pair has
# p >= F - s0, since s >= s0 forces s + p >= F; below that tail the
# negatives are one progression, F - s0 - k * base for k = 1..K.


def progression_length(n):
    """K, from the listed Apery set Ap of S(B_n) with base b.

    The least s in the class r with s and s + 1 in S is
    s_r = max(Ap[r], Ap[r + 1] - 1), at least 1 as 1 is not in S, and
    s0 = s_r0 is the least of them.  For p = F - s0 - k * b the class r0
    never works, as s + p is in the class of F.  A class r != r0 works iff
    F - d_r is in S, with d_r = ((s0 - r - 1) mod b) + 1, and
    k >= ceil((s_r + d_r - s0) / b).  K is one less than the least k at
    which a class works, capped by the domain p >= 2.
    """
    S = listed_classes(n)
    base, least, f = S
    starts = [max(least(r), least((r + 1) % base) - 1) for r in range(base)]
    s0 = min(starts)
    k = (f - s0 - 2) // base + 1  # the least k with p = F - s0 - k * b below 2
    for r, s_r in enumerate(starts):
        d = (s0 - r - 1) % base + 1
        if r != s0 % base and f - d in S:
            k = min(k, -(-(s_r + d - s0) // base))
    return max(0, k - 1)


def assert_tail_plus_progression(searched, negative, tail, base, k_max):
    """Every searched p >= tail is negative, and the negatives below the
    tail are exactly tail - k * base for k = 1..k_max."""
    assert all(p in negative for p in searched if p >= tail), tail
    assert sorted(p for p in negative if p < tail) == [
        tail - k * base for k in range(k_max, 0, -1)], tail


class TestExistsAdmissible:
    def test_verified_for_n50_p6(self):
        s, S = exists_admissible_bn(50, 6), listed_classes(50)
        assert all(x in S for x in (s, s + 1, s + 6))
        assert s + 6 < bn_report(50).frobenius
        # the golden triple's s works too
        t = 379231827789565
        assert all(x in S for x in (t, t + 1, t + 6))
        assert t + 6 < bn_report(50).frobenius

    def test_verified_for_n70_p11(self):
        s, S = exists_admissible_bn(70, 11), listed_classes(70)
        assert all(x in S for x in (s, s + 1, s + 11))
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
            S = listed_classes(n)
            base, f = S.base, bn_report(n).frobenius
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
                assert all(x in S for x in (s, s + 1, s + p)), (n, p)
                assert s + p < f, (n, p)

    def test_no_pair_exists_at_base_three(self):
        # exhaustive ground truth for the two raising cases above: every
        # admissible p for <3, 28> is 0 or 1 mod 3
        pairs = enumerate_admissible(semigroup_set(3, 28))
        assert pairs
        assert all(p % 3 != 2 for _, p in pairs)

    def test_negatives_against_enumeration(self):
        # exhaustive ground truth wherever F <= ENUM_BOUND: over every p in
        # the search's domain below F, it raises exactly when the engine's
        # set lists no admissible pair with that p, and a returned s is listed
        ns = [n for n in range(4, 60) if not is_prime(n) and bn_report(n).frobenius <= ENUM_BOUND]
        assert ns == [4, 6, 8, 9, 10, 12, 16]
        searched = negatives = 0
        for n in ns:
            report = bn_report(n)
            base, f = report.apery_base, report.frobenius
            listed = {}
            engine = NumericalSemigroup(bn_family(n))
            for s, p in enumerate_admissible(NumericalSet.from_semigroup(engine)):
                listed.setdefault(p, set()).add(s)
            ps, negative = [], set()
            for p in range(2, f):
                if p % base in (0, 1):
                    continue
                ps.append(p)
                if p in listed:
                    assert exists_admissible_bn(n, p) in listed[p], (n, p)
                    continue
                negative.add(p)
                # p = F - 1 is refused before any walk (n = 10, 12, 16)
                with pytest.raises(RuntimeError,
                                   match="exhausted all" if p < f - 1 else "cannot both hold"):
                    exists_admissible_bn(n, p)
            s0 = next(s for s in count(1) if s in engine and s + 1 in engine)
            assert_tail_plus_progression(ps, negative, f - s0, base, progression_length(n))
            searched += len(ps)
            negatives += len(negative)
        assert (searched, negatives) == (7274, 5694)
        # one negative by name: S(B_8) = <4, 14, 35>, F = 45, has no
        # admissible pair with p = 11, and the search says so
        assert bn_report(8).frobenius == 45
        assert 11 not in {p for _, p in enumerate_admissible(
            NumericalSet.from_semigroup(NumericalSemigroup([4, 14, 35])))}
        with pytest.raises(RuntimeError, match="exhausted all 4 seed classes"):
            exists_admissible_bn(8, 11)

    @pytest.mark.parametrize("n, tail_sample, counts", [
        (14, None, (17715, 8830)), (15, None, (11185, 5235)), (25, None, (25499, 8500)),
        (18, 2000, (46574, 1795)), (20, 2000, (48168, 1804))])
    def test_negatives_against_the_member_mask(self, n, tail_sample, counts):
        # ground truth up to F <= 10^5: a semigroup has A(S) = S, so (s, p)
        # is admissible iff bit s of member & member>>1 & member>>p is set on
        # [1, F - p).  Every p for n = 14, 15 and 25; for 18 and 20, every p
        # below the tail F - s0, and tail_sample seeded p and p = F - 1 in it
        engine = NumericalSemigroup(bn_family(n))
        (base, entries), f = engine.apery, engine.frobenius()
        bits = bytearray(f + 1)
        for w in entries:
            bits[w::base] = b"\x01" * len(range(w, f + 1, base))
        member = int(bits.translate(bytes.maketrans(b"\x00\x01", b"01"))[::-1], 2)
        pair_starts = member & member >> 1
        tail = f - next(s for s in count(1) if pair_starts >> s & 1)
        ps = range(2, f)
        if tail_sample:
            ps = {*range(2, tail), *random.Random(n).sample(range(tail, f), tail_sample), f - 1}
        searched, negative = [p for p in sorted(ps) if p % base not in (0, 1)], set()
        for p in searched:
            admissible = pair_starts & member >> p & ((1 << (f - p)) - 2)
            try:
                s = exists_admissible_bn(n, p)
            except RuntimeError:
                assert not admissible, (n, p)
                negative.add(p)
                continue
            assert admissible >> s & 1, (n, p, s)
        assert (len(searched), len(negative)) == counts
        assert_tail_plus_progression(searched, negative, tail, base, progression_length(n))

    @pytest.mark.parametrize("n", [59049, 100000, 2**19])
    def test_refusal_above_the_digit_limit(self, n):
        # F has more digits than str() prints by default: the refusal is
        # still a RuntimeError, and names F and p by their bit lengths
        box = _box(n)
        f = box.frobenius
        p = next(q for q in (f - 1, f, f + 1) if q % box.base not in (0, 1))
        bits = f"<{f.bit_length()}-bit integer>"
        with pytest.raises(RuntimeError, match=f"p={bits}: .* F = {bits} cannot both hold$"):
            exists_admissible_bn(n, p)

    def test_domain_errors_come_before_the_refusal(self):
        # S(B_6) = <6, 15, 20>, F = 49: F - 1 and F collide mod 6
        for p in (48, 49):
            with pytest.raises(ValueError, match="collide mod 6"):
                exists_admissible_bn(6, p)
        with pytest.raises(RuntimeError, match="F = 49 cannot both hold"):
            exists_admissible_bn(6, 50)

    def test_matches_fresh_lookups_up_to_300(self):
        # same s, or the same error and message, as deciding membership of
        # every entry with its own lookup in the listed Apery set
        for n in range(4, 301):
            if is_prime(n):
                continue
            base = _box(n).base
            for p in range(2, min(base, 40)):
                assert _outcome(exists_admissible_bn, n, p) == \
                    _outcome(reference_exists, n, p), (n, p)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def reference_p(base, p):
    """The domain of p that both references share, with the library's messages."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if p % base in (0, 1):
        raise ValueError(f"residues of (s, s+1, s+{p}) collide mod {base} for every s")


def reference_algorithm1(n, s, p):
    """algorithm1 by its definition, over the listed Apery set."""
    base, least, f = listed_classes(n)
    reference_p(base, p)
    reps = tuple(least((s + d) % base) for d in (0, 1, p))
    triple = reps if max(reps) >= f else complete(reps, base, p)
    diff = f - triple[2]
    if diff <= 0:
        shift = (diff // base + 1) * base
        triple = tuple(x - shift for x in triple)
        diff = f - triple[2]
    return triple, diff if diff % base == 0 else diff + 1


def reference_exists(n, p):
    """exists_admissible_bn by its definition, over the listed Apery set, for
    p <= F - 2 (the refusal of larger p has its own tests)."""
    S = listed_classes(n)
    base, least, f = S
    reference_p(base, p)
    for seed in range(base):
        triple = complete(tuple(least((seed + d) % base) for d in (0, 1, p)), base, p)
        if triple[2] >= f:
            k = (triple[2] - f) // base + 1
            triple = tuple(x - k * base for x in triple)
        if triple[0] >= 1 and triple[2] < f and all(x in S for x in triple):
            return triple[0]
    raise RuntimeError(
        f"exhausted all {base} seed classes without an admissible s for n={n}, p={p}")


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
        assert _outcome(algorithm1, n, s, p, force_base=True) == \
            _outcome(reference_algorithm1, n, s, p), (n, s, p)
        assert _outcome(exists_admissible_bn, n, p) == \
            _outcome(reference_exists, n, p), (n, p)

    def test_every_small_case_at_12(self):
        # n = 12 is the one box found whose value order is not the
        # coordinate order, so the largest class is picked by value there
        assert not _box(12).ordered
        for p in range(40):
            assert _outcome(exists_admissible_bn, 12, p) == \
                _outcome(reference_exists, 12, p), p
            for s in range(-3, 30):
                assert _outcome(algorithm1, 12, s, p) == \
                    _outcome(reference_algorithm1, 12, s, p), (s, p)


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


def test_point_queries_at_max_n_list_no_apery_set():
    # n = 10^6 = 2^6 * 5^6 is the CLI bound; its Apery set has 10^6 elements
    # of about 35000 digits, so the point queries look residues up (WORK in
    # tests/test_layering.py pins that they list no Apery set)
    n = 10**6
    f = bn_report(n).frobenius
    S = Classes(_box(n).base, lambda r: apery_lookup(n, r)[0], f)

    rep = decompose(n, 7)
    assert all(c >= 0 for c in rep.coefficients)
    assert sum(c * b for c, b in zip(rep.coefficients, rep.basis)) == binomial(n, 7)

    out = algorithm1(n, 1, 2)
    assert all(x in S for x in out.triple)
    assert out.triple[1] == out.triple[0] + 1 and out.triple[2] == out.triple[0] + 2
    assert out.triple[2] < f

    s = exists_admissible_bn(n, 7)
    assert s >= 1 and s + 7 < f
    assert all(x in S for x in (s, s + 1, s + 7))


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
