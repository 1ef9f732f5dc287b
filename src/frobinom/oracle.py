"""The cross-check of the closed forms against the generic engine, and every
row `verify` prints.

The engine in `semigroup` runs on the whole generating family of S(B_n),
`bn_family(n)`, built from Pascal's rule, and `verify_closed_vs_oracle`
compares every closed form of `binomial` with the engine's answer.  Below
the CLI, this is the only module that imports both: the closed forms and the
engine share no code, so the engine is what keeps the closed forms honest.
`engine_cost(n)` is the size of that engine run, its multiplicity times its
distinct generators, which the CLI sums against its engine budget before
any run.  `verify_sweep(max_n)` is the n `verify` compares, the composite
n <= max_n, and `verify_rows(max_n)` builds `verify`'s {name, passed,
detail} rows: the comparison of each n of the sweep, then the self-checks
of `exactmath`'s arithmetic against references of this module's own.

The closed forms and the arithmetic are read through their modules
(`bn.bn_report`, `em.binomial`), so a test that patches either reaches the
rows.
"""

from collections import namedtuple
from itertools import filterfalse
from math import comb, gcd, isqrt
from operator import index

from . import binomial as bn
from . import exactmath as em
from .exactmath import _int_text
from .semigroup import NumericalSemigroup


def bn_family(n: int) -> list[int]:
    """The full generating family C(n,1), ..., C(n,n-1), divided by its gcd: the
    engine's input, by Pascal's rule C(n, k+1) = C(n, k) * (n - k) / (k + 1)
    and the row's own gcd, so it shares no arithmetic with the closed forms.
    Only k <= n/2 is built; C(n, n-k) = C(n, k) mirrors the same ints.  n
    is read through `operator.index`, so a float raises TypeError."""
    n = index(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {_int_text(n)}")
    half = [n]
    for k in range(1, n // 2):
        half.append(half[-1] * (n - k) // (k + 1))
    g = gcd(*half)
    if g > 1:
        half = [v // g for v in half]
    return half + half[:(n - 1) // 2][::-1]


def engine_cost(n: int) -> int:
    """Multiplicity times distinct generators of the engine run on
    `bn_family(n)`: n/scale times the n//2 distinct members, read off the
    spec, so n is read as `bn_spec` reads it."""
    spec = bn.bn_spec(n)
    return spec.n // spec.scale * (spec.n // 2)


class OracleComparison(namedtuple("OracleComparison", "n fields")):
    """Field-by-field comparison of the closed forms against the generic engine.

    fields maps each name to (closed form, engine); `mismatches` names the
    fields where the two differ, and is empty when every field agrees.
    """
    __slots__ = ()

    @property
    def mismatches(self) -> list[str]:
        return sorted(name for name, (a, b) in self.fields.items() if a != b)


def verify_closed_vs_oracle(n: int) -> OracleComparison:
    """Diff every closed form against the generic engine run on `bn_family(n)`;
    mismatches are reported, not raised.  The closed Apery listing is
    compared with its base, as `bn_apery_closed` returns them, against the
    engine's multiplicity and its entries in the same sorted order: a wrong
    base from either fails the `apery_set` row, and a wrong base in the
    report fails the `minimal_generators` row.  n is read off the report, so
    as `bn_spec` reads it.  n = 30030 takes about 0.47 s and 61 MB peak RSS."""
    return _compare(*_closed_forms(n))


def _closed_forms(n: int) -> tuple:
    # the report and the Apery listing with its base, each read once per n;
    # kept apart from `_compare`, so `verify_rows` tells their exceptions
    # from the engine's
    report = bn.bn_report(n)
    return report, bn.bn_apery_closed(report.n)


def _compare(report, apery) -> OracleComparison:
    engine = NumericalSemigroup(bn_family(report.n))
    pseudo_frobenius = tuple(engine.pseudo_frobenius())
    fields = {
        "minimal_generators": (report.minimal_generators, engine.generators),
        "embedding_dimension": (report.embedding_dimension, len(engine.generators)),
        "apery_set": (apery, (engine.multiplicity, tuple(sorted(engine.apery.entries)))),
        "frobenius": (report.frobenius, engine.frobenius()),
        "genus": (report.genus, engine.genus()),
        "pseudo_frobenius": (report.pseudo_frobenius, pseudo_frobenius),
        "type": (report.type, len(pseudo_frobenius)),
        "symmetric": (report.symmetric, engine.is_symmetric()),
        "telescopic": (report.telescopic, engine.is_telescopic()),
    }
    return OracleComparison(report.n, fields)


def verify_sweep(max_n: int):
    """The n that `verify` compares, lazily: the composite n from 4 to max_n,
    read through `operator.index`.  The CLI sums their `engine_cost` against
    its budget, so the budget and the rows count the same n."""
    return filterfalse(em.is_prime, range(4, index(max_n) + 1))


def verify_rows(max_n: int) -> list[dict]:
    """`verify`'s checks as {name, passed, detail} rows: each field of the
    comparison of each n of `verify_sweep(max_n)`, a mismatch with both
    values as its detail, then each arithmetic self-check.  A closed form
    that raises at some n is one failed row, `n=<n> closed forms`, with the
    exception as its detail, and the sweep goes on; an exception from
    `bn_family` or the engine propagates."""
    rows = []
    for n in verify_sweep(max_n):
        try:
            forms = _closed_forms(n)
        except Exception as exc:
            rows.append({"name": f"n={n} closed forms", "passed": False,
                         "detail": f"{type(exc).__name__}: {exc}"})
            continue
        for field, (closed, engine) in sorted(_compare(*forms).fields.items()):
            ok = closed == engine
            detail = "" if ok else f"closed={closed!r} oracle={engine!r}"
            rows.append({"name": f"n={n} {field}", "passed": ok, "detail": detail})
    for label, ok in _arithmetic_checks():
        rows.append({"name": label, "passed": ok, "detail": ""})
    return rows


def _legendre(p: int, n: int, k: int) -> int:
    # v_p(C(n, k)) by Legendre's floor sum over the powers q = p^i <= n
    v, q = 0, p
    while q <= n:
        v, q = v + n // q - k // q - (n - k) // q, q * p
    return v


def _arithmetic_checks():
    """Yield (label, passed) of each self-check of `exactmath`: a sweep against an
    independent reference (Pascal's rule, Legendre's floor sum, `math.comb`)
    or a lemma on the domain where it is provable.  The FAULTS table in
    tests/test_layering.py plants a fault that fails each of them."""
    ok = True
    row = [1]
    for n in range(1, 61):
        row = [1] + [row[k - 1] + row[k] for k in range(1, n)] + [1]
        for k in range(n + 1):
            value = em.binomial(n, k)
            if value != row[k] or value != em.binomial(n, n - k):
                ok = False
    yield "pascal recurrence and symmetry, n <= 60", ok

    ok = True
    for n in range(61):
        for k in range(n + 1):
            b = em.binomial(n, k)
            for p in (2, 3, 5, 7, 11, 13):
                v = em.binomial_valuation_kummer(p, n, k)
                if v != _legendre(p, n, k) or v != em.p_adic_valuation(p, b):
                    ok = False
    yield "carry count = divide-out valuation = floor-sum formula, n <= 60", ok

    # The sweeps here stay below TREE_MIN_K, so check the product tree against
    # math.comb at the least j = min(k, n-k) it takes, and one below it: at
    # n = 800 only TREE_MIN_K binds, at 5000 both rules meet, at 10^4 the
    # square rule binds.
    ok = True
    for n in (2 * em.TREE_MIN_K, em.TREE_MIN_K**2 // em.TREE_K2_PER_N, 10**4):
        j = max(em.TREE_MIN_K, isqrt(em.TREE_K2_PER_N * n - 1) + 1)
        for k in (j - 1, j, j + 1, n - j):
            if em.binomial(n, k) != comb(n, k):
                ok = False
    yield "product tree = math.comb at the dispatch thresholds, n <= 10^4", ok

    # The residue congruence C(n, p^k) == n/p^k (mod n) is provable only for
    # k <= 2 with p odd, or k = 1 with p = 2 (the p = 2 correction term breaks
    # it otherwise: C(8,4) = 70 == 6 (mod 8), not 2).  Sweep that domain.
    ok = True
    for n in range(2, 301):
        for p, kmax in em.factorize(n):
            for k in range(1, min(kmax, 1 if p == 2 else 2) + 1):
                lhs, rhs = em.binom_residue_lemma(n, p, k)
                if lhs != rhs:
                    ok = False
    yield "binomial residue congruence on its provable domain, n <= 300", ok

    # At a = 0 the quotient is 1 while the p = 2 right-hand side is not, so
    # the congruence only holds from a >= 1 for p = 2.
    ok = True
    for p in (2, 3, 5, 7):
        for a in range(1 if p == 2 else 0, 3):
            for m in range(13):
                for n2 in range(m + 1):
                    if not em.sun_congruence_holds(p, a, m, n2):
                        ok = False
    yield "prime-power quotient congruence (a >= 1 for p = 2), p in 2..7, m <= 12", ok

    ok = True
    for n in range(2, 201):
        fac = em.factorize(n)
        expected = fac[0][0] if len(fac) == 1 else 1
        g = 0
        for k in range(1, n):
            g = gcd(g, em.binomial(n, k))
            if g == 1:  # no later term can change it; a prime-power row runs to the end
                break
        if g != expected:
            ok = False
    yield "gcd of binomial family: p for prime powers else 1, n <= 200", ok

