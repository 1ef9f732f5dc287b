"""Closed forms for the binomial-coefficient semigroups vs the generic engine."""

import random
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from frobinom.binomial import (
    RECORD_CACHE,
    DegenerateSemigroupError,
    _box,
    _coordinates,
    _proper_box,
    bn_apery_closed,
    bn_family,
    bn_report,
    bn_spec,
    decompose,
    identity_pm_check,
    identity_pq_check,
    verify_closed_vs_oracle,
)
from frobinom.corepartitions import algorithm1, exists_admissible_bn
from frobinom.exactmath import binomial, is_prime
from frobinom.semigroup import NumericalSemigroup, minimal_generators

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

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bn_spec(1)
        for n in (1, 0, -3):
            with pytest.raises(ValueError, match=f"^need n >= 2, got {n}$"):
                bn_family(n)

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


class TestAperyClosed:
    def test_examples(self):
        assert bn_apery_closed(6) == (6, (0, 15, 20, 35, 40, 55))
        assert bn_apery_closed(9) == (3, (0, 28, 56))
        assert bn_apery_closed(4) == (2, (0, 3))

    def test_prime_rejected(self):
        with pytest.raises(DegenerateSemigroupError):
            bn_apery_closed(11)

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
    box = _proper_box(n)
    coords = _coordinates(box, r)
    return value_of(box, coords), tuple(coords)


def _least_by_residue(n):
    base, ap = bn_apery_closed(n)
    return base, {w % base: w for w in ap}


class TestAperyLookup:
    def test_every_residue_up_to_200(self):
        for n in range(4, 201):
            if is_prime(n):
                continue
            base, least = _least_by_residue(n)
            assert [apery_lookup(n, r)[0] for r in range(base)] == \
                [least[r] for r in range(base)], n

    @given(st.integers(4, 3000).filter(lambda n: not is_prime(n)), st.integers(0, 10**12))
    @settings(max_examples=150, deadline=None)
    def test_matches_listing_and_rebuilds(self, n, r):
        base, least = _least_by_residue(n)
        gens = _box(n).gens
        w, coords = apery_lookup(n, r)
        assert w == least[r % base]
        assert len(coords) == len(gens)
        assert all(0 <= c < p for c, (_, p, _) in zip(coords, gens))
        assert sum(c * value for c, (value, _, _) in zip(coords, gens)) == w

    @given(st.integers(4, 40).filter(lambda n: not is_prime(n)), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_matches_engine_up_to_40(self, n, r):
        base = _box(n).base
        engine = NumericalSemigroup(bn_family(n)).apery_set(base)
        assert apery_lookup(n, r)[0] == engine.entries[r % base]

    def test_prime_rejected(self):
        with pytest.raises(DegenerateSemigroupError):
            apery_lookup(13, 4)

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


class TestClosedQuantities:
    def test_frobenius_golden_values(self):
        assert bn_report(50).frobenius == 505642434227223
        assert bn_report(70).frobenius == 7241062721
        assert bn_report(4).frobenius == 1

    def test_frobenius_rejects_primes(self):
        for p in (2, 3, 7, 97):
            with pytest.raises(DegenerateSemigroupError):
                bn_report(p).frobenius

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
        with pytest.raises(DegenerateSemigroupError):
            bn_report(13)

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

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            decompose(10, 0)
        with pytest.raises(ValueError):
            decompose(10, 10)
        with pytest.raises(DegenerateSemigroupError):
            decompose(7, 3)

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

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            identity_pq_check(4, 5, 3)
        with pytest.raises(ValueError):
            identity_pq_check(3, 3, 2)
        with pytest.raises(ValueError):
            identity_pq_check(3, 5, 6)  # multiple of 3


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

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            identity_pm_check(2, 3, 1)
        with pytest.raises(ValueError):
            identity_pm_check(3, 1, 1)
        with pytest.raises(ValueError):
            identity_pm_check(3, 2, 6)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [6, 9, 30])
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
