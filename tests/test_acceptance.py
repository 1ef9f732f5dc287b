"""Acceptance sweep: one check per numbered criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion with its runtime.

Criteria 5 and 9 are asserted exactly as stated and FAIL by design: each
asserts a published congruence/existence claim that is arithmetically false
on part of its stated grid (counterexamples are enumerated in the assertion
messages; the refined true statements are covered by the unit-test modules).
"""

import time
from itertools import combinations

from frobinom.binomial import (
    bn_apery_closed,
    bn_report,
    bn_spec,
    decompose,
    identity_pq_check,
    verify_closed_vs_oracle,
)
from frobinom.corepartitions import (
    NumericalSet,
    Partition,
    a_set,
    algorithm1,
    enumerate_admissible,
    exists_admissible_bn,
    hook_set,
    partition_of,
)
from frobinom.exactmath import (
    binom_residue_lemma,
    binomial,
    factorize,
    is_prime,
    sun_congruence_holds,
)
from frobinom.semigroup import NumericalSemigroup


def report(number, label, failures, elapsed, limit):
    ok = not failures and elapsed < limit
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} "
          f"in {elapsed:.2f}s (limit {limit}s)")
    assert elapsed < limit, f"criterion {number} exceeded {limit}s: {elapsed:.2f}s"
    assert not failures, f"criterion {number}: {len(failures)} failures: {failures[:6]}"


def test_criterion_1_golden_frobenius_values():
    t0 = time.perf_counter()
    f50 = bn_report(50).frobenius
    t50 = time.perf_counter() - t0
    t0 = time.perf_counter()
    f70 = bn_report(70).frobenius
    t70 = time.perf_counter() - t0
    failures = []
    if f50 != 505642434227223:
        failures.append(("F(50)", f50))
    if f70 != 7241062721:
        failures.append(("F(70)", f70))
    report(1, "golden Frobenius values", failures, max(t50, t70), 1.0)


def test_criterion_2_algorithm1_golden_runs():
    t0 = time.perf_counter()
    run50 = algorithm1(50, 65, 6)
    run70 = algorithm1(70, 12, 11)
    elapsed = time.perf_counter() - t0
    failures = []
    if run50.triple != (379231827789565, 379231827789566, 379231827789571):
        failures.append(("triple(50)", run50.triple))
    if run50.count != 126410606437653:
        failures.append(("count(50)", run50.count))
    if run70.triple != (4831407922, 4831407923, 4831407933):
        failures.append(("triple(70)", run70.triple))
    if run70.count != 2409654789:
        failures.append(("count(70)", run70.count))
    report(2, "triple-completion golden runs", failures, elapsed, 1.0)


def test_criterion_3_oracle_equivalence_sweep():
    t0 = time.perf_counter()
    failures = []
    for n in range(4, 31):
        if is_prime(n):
            continue
        cmp = verify_closed_vs_oracle(n)
        for field in cmp.mismatches:
            failures.append((n, field, cmp.fields[field]))
    report(3, "closed forms = generic engine, composite n in [4,30]",
           failures, time.perf_counter() - t0, 60.0)


def test_criterion_4_symmetry_identity():
    t0 = time.perf_counter()
    failures = [n for n in range(4, 101)
                if not is_prime(n) and 2 * bn_report(n).genus != bn_report(n).frobenius + 1]
    report(4, "2*genus = frobenius + 1, composite n <= 100",
           failures, time.perf_counter() - t0, 10.0)


def test_criterion_5_congruence_lemmas_as_stated():
    # Asserted exactly as stated; two families of grid points are
    # arithmetically false:
    #   - C(n, p^k) == n/p^k (mod n) fails for p=2 k>=2 and for k>=3
    #     (C(8,4) = 70 == 6 (mod 8), not 2; the p=2 correction factor
    #     2*(n/2^k) - 1 and the modulus p^(2 + k_i - k) only reach the claim
    #     for k <= 2 with p odd, k = 1 with p = 2),
    #   - the quotient congruence at a = 0 fails for p=2 whenever n2 >= 1 and
    #     m - n2 is odd (quotient 1 vs right side 1 + 2*n2*(m-n2) mod 4).
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 301):
        for p, kmax in factorize(n):
            for k in range(1, kmax + 1):
                lhs, rhs = binom_residue_lemma(n, p, k)
                if lhs != rhs:
                    failures.append(("residue", n, p, k, lhs, rhs))
    for p in (2, 3, 5, 7):
        for a in range(3):
            for m in range(13):
                for n2 in range(m + 1):
                    if not sun_congruence_holds(p, a, m, n2):
                        failures.append(("quotient", p, a, m, n2))
    report(5, "congruence lemmas on their full stated grids",
           failures, time.perf_counter() - t0, 30.0)


def test_criterion_6_core_partition_golden_examples():
    t0 = time.perf_counter()
    failures = []

    S1 = NumericalSet([2, 5, 6, 8])
    if partition_of(S1) != Partition((5, 4, 4, 2)):
        failures.append(("partition", S1))
    if hook_set(partition_of(S1)) != list(range(1, 9)):
        failures.append(("hooks", S1))

    S2 = NumericalSet(NumericalSemigroup([5, 7, 9]).gaps())
    if partition_of(S2) != Partition((6, 5, 3, 2, 1, 1, 1, 1)):
        failures.append(("partition", S2))
    if hook_set(partition_of(S2)) != [1, 2, 3, 4, 6, 8, 11, 13]:
        failures.append(("hooks", S2))
    if enumerate_admissible(S2) != [(9, 3)]:
        failures.append(("admissible pairs of <5,7,9>", enumerate_admissible(S2)))

    head = {0, 12, 19, 24, 28, 31, 34, 36, 38, 40, 42, 43, 45, 46, 47, 48}
    well_tempered = NumericalSet(
        [x for x in range(1, 45) if x not in head])
    if well_tempered.frobenius != 44:
        failures.append(("well-tempered frobenius", well_tempered.frobenius))
    if enumerate_admissible(well_tempered) != []:
        failures.append(("well-tempered admissible", enumerate_admissible(well_tempered)))

    report(6, "core-partition golden examples", failures,
           time.perf_counter() - t0, 60.0)


def test_criterion_7_hook_set_theorem_exhaustive():
    t0 = time.perf_counter()
    failures = []
    for f in range(1, 11):
        for r in range(f):
            for extra in combinations(range(1, f), r):
                S = NumericalSet(list(extra) + [f])
                A = a_set(S)
                expected = [x for x in range(1, f + 1) if x not in A]
                if hook_set(partition_of(S)) != expected or 0 not in A:
                    failures.append(S.gaps())
    report(7, "hook lengths = positives missing from A(S), all F <= 10",
           failures, time.perf_counter() - t0, 60.0)


def test_criterion_8_decomposition_soundness():
    t0 = time.perf_counter()
    failures = []
    for n in range(4, 41):
        if is_prime(n):
            continue
        scale = bn_spec(n).scale
        for m in range(1, n):
            rep = decompose(n, m)
            good = (all(c >= 0 for c in rep.coefficients)
                    and sum(c * b for c, b in zip(rep.coefficients, rep.basis))
                    == binomial(n, m) // scale)
            if not good:
                failures.append(("decompose", n, m))
    primes = [2, 3, 5, 7, 11, 13]
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            for r in range(p * q + 1):
                if r % p and r % q:
                    n = p * q
                    lead = identity_pq_check(p, q, r)
                    if (type(lead) is not int or lead * n + p * binomial(n, p)
                            + q * binomial(n, q) != binomial(n, r)):
                        failures.append(("pq identity", p, q, r))
    report(8, "decomposition soundness + two-prime identity",
           failures, time.perf_counter() - t0, 60.0)


def test_criterion_9_existence_theorem_as_stated():
    # Asserted exactly as stated.  (9,2) and (9,5) are genuinely impossible:
    # S(B_9) = <3,28> has Apery base 3, a residue-distinct triple covers all
    # classes mod 3, and every element in the class of max(Ap) = 56 exceeds
    # F = 53, so no admissible pair exists for p == 2 (mod 3) - confirmed by
    # exhaustive enumeration.  All other residue-distinct grid points pass.
    t0 = time.perf_counter()
    failures = []
    for n in range(4, 21):
        if is_prime(n):
            continue
        base, ap = bn_apery_closed(n)
        least = {w % base: w for w in ap}
        f = bn_report(n).frobenius
        for p in range(2, 8):
            if p % base == 0 or (p - 1) % base == 0:
                continue  # residue collision, excluded by the criterion
            try:
                s = exists_admissible_bn(n, p)
            except RuntimeError as exc:
                failures.append((n, p, str(exc)[:60]))
                continue
            verified = (s >= 1 and s + p < f
                        and all(x >= least[x % base] for x in (s, s + 1, s + p)))
            if not verified:
                failures.append((n, p, s))
    report(9, "verified admissible s, composite n <= 20, p in [2,7]",
           failures, time.perf_counter() - t0, 30.0)
