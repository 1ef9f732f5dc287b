"""Closed-form structure of the semigroup generated by C(n,1), ..., C(n,n-1).

For n with at least two prime factors the family has gcd 1 and generates a
numerical semigroup directly; for n = p^m the gcd is p and the family is
scaled by 1/p first.  Every closed form here is read off one "box": the
Apery base (n, or p^(m-1) for n = p^m) and the generators C(n, p^j) (divided
by p in the prime-power case), each with coordinate bound p.  The Apery set
at the base is the set of sums of c * C(n, p^j) with 0 <= c < p; the minimal
system, Frobenius number and genus are sums over the box.

`bn_report` carries the box itself, as `apery_box`, so it costs O(box) at
any n.  Only `bn_apery_closed` lists the Apery set, which has one element
per residue class: the CLI's `report` calls it when the base is at most
1000, and `verify_closed_vs_oracle` to compare the set with the engine's.
`decompose` and the triple completion in `corepartitions` look up single
residues in two steps: `_coordinates` solves the box coordinates of the
residue as base-p digits, in word-size integers, and one sum of coordinate
times value forms the element.  Everything can be cross-checked against the
generic engine in `semigroup`.

Per-n data is cached in two stages (the RECORD_CACHE most recent n of
each).  The spec stage, `bn_spec(n)`, is the factorization and the scale
(p for n = p^m, else 1), with no binomial computed, so a check that needs
only the spec (such as `algorithm1`'s prime-power rejection) stays cheap.  The
box stage, `_box(n)`, is built from it: the base, the box generators and
their values, F, the digit-solve steps and an `ordered` flag.  When each
value exceeds the largest sum of the generators below it, Apery elements
order as their coordinate vectors read from the largest generator down, so
the triple completion finds the largest of three classes from word-size
coordinates and sums one element, not three.  The record's only big ints
are the generator values and F.  The closed forms, the point queries and
the CLI read the two stages and neither factor n nor sum the box again.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd
from operator import mul

from .exactmath import binomial, factorize, is_prime
from .semigroup import NumericalSemigroup

RECORD_CACHE = 32    # most recent n whose spec and box stages stay cached; a box record
                     # is a few KB for squarefree n, at most ~0.37 MB for n <= 10^6


class DegenerateSemigroupError(ValueError):
    """For prime n the scaled family contains 1 and the semigroup is all of N."""

    def __init__(self, n: int):
        super().__init__(
            f"n = {n} is prime: the scaled binomial family generates all of N, "
            "so the closed forms do not apply")
        self.n = n


class BinomialSemigroupSpec(namedtuple(
        "BinomialSemigroupSpec", "n factorization scale")):
    """Factorization-level data for the family of binomials with upper index n.

    factorization is ((p, k), ...); scale is the gcd of the family: p when
    n = p^m, else 1.
    """
    __slots__ = ()


class BinomialSemigroupReport(namedtuple("BinomialSemigroupReport", (
        "n minimal_generators embedding_dimension apery_base apery_box frobenius "
        "genus pseudo_frobenius type symmetric telescopic"))):
    """All closed-form quantities for the semigroup of one upper index n.

    apery_box = (base, ((value, bound), ...)) describes the Apery set at the
    base exactly: it is the set of sums of c * value with 0 <= c < bound.
    `bn_apery_closed` lists it.
    """
    __slots__ = ()


class Representation(namedtuple(
        "Representation", "target basis coefficients value scaled")):
    """One binomial written as a nonnegative combination of the minimal system.

    coefficients[i] multiplies basis[i]; the weighted sum equals `value`,
    which is C(n, m) itself, or C(n, m)/p in the scaled prime-power case
    (`scaled` records which).  target is (n, m).
    """
    __slots__ = ()


@lru_cache(maxsize=RECORD_CACHE)
def bn_spec(n: int) -> BinomialSemigroupSpec:
    """The spec stage of the per-n record: factor n and record the family's
    gcd (p for prime powers, else 1), with no binomial computed.  Cached."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    fac = tuple(factorize(n))
    return BinomialSemigroupSpec(n, fac, fac[0][0] if len(fac) == 1 else 1)


def bn_family(n: int) -> list[int]:
    """The full generating family C(n,1), ..., C(n,n-1), divided by its gcd: the
    engine's input, by Pascal's rule C(n, k+1) = C(n, k) * (n - k) / (k + 1)
    and the row's own gcd, so it shares no arithmetic with the closed forms.
    Only k <= n/2 is built; C(n, n-k) = C(n, k) mirrors the same ints."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    half = [n]
    for k in range(1, n // 2):
        half.append(half[-1] * (n - k) // (k + 1))
    g = gcd(*half)
    if g > 1:
        half = [v // g for v in half]
    return half + half[:(n - 1) // 2][::-1]


class _Box(namedtuple(
        "_Box", "base gens values ordered steps frobenius frobenius_residue")):
    """The box stage of the per-n record of S(B_n): everything a point query
    reads besides the spec.

    gens are the box generators (value, p, e), values ascending, and values
    their values alone.  ordered is true when each values[i] exceeds the
    largest sum of the generators below it, sum over k < i of
    (p_k - 1) * values[k], so that Apery elements order exactly as their
    coordinate vectors read from the largest generator down (all composite
    n < 12000 but 12).  steps are the digit solves of `_coordinates` in
    valuation order, one per generator: (index into gens, p^e, p, inverse
    mod p of the generator's unit base-p digit, value mod base), all
    word-size.  frobenius is the sum of (p - 1) * value over the box, minus
    the base, and frobenius_residue is F mod base.
    """
    __slots__ = ()


@lru_cache(maxsize=RECORD_CACHE)
def _box(n: int) -> _Box:
    """The Apery box of S(B_n) and its lookup data, built once per n from
    the spec stage.

    The Apery set at `base` is the set of sums of c * value with 0 <= c < p,
    one coordinate per generator.  The values are C(n, p^j) for the prime
    powers p^j dividing `base`; for n = p^m the family is scaled by 1/p, so
    the base is p^(m-1) and the values are C(n, p^j)/p for j < m.  With p^k
    the p-part of `base`, e = k - j is the p-adic valuation of the value
    (Kummer's theorem).  Prime n gives base 1 and no generators.
    """
    spec = bn_spec(n)
    gens = []
    for p, k in spec.factorization:
        if p == spec.scale:
            k -= 1
        gens.extend((binomial(n, p**j) // spec.scale, p, k - j) for j in range(1, k + 1))
    gens.sort()
    base = n // spec.scale
    steps = []
    for i in sorted(range(len(gens)), key=lambda i: gens[i][2]):
        value, p, e = gens[i]
        pe = p**e
        steps.append((i, pe, p, pow(value % (pe * p) // pe, -1, p), value % base))
    ordered, below = True, 0
    for value, p, _ in gens:
        ordered = ordered and value > below
        below += (p - 1) * value
    frobenius = below - base
    return _Box(base, tuple(gens), tuple(value for value, _, _ in gens), ordered,
                tuple(steps), frobenius, frobenius % base)


def _proper_box(n: int) -> _Box:
    box = _box(n)
    if box.base == 1:
        raise DegenerateSemigroupError(n)
    return box


def _coordinates(box: _Box, r: int) -> list[int]:
    """Box coordinates of the Apery element in the class r mod the base,
    without listing the Apery set; the element is
    sum(map(mul, coords, box.values)).

    Mod the p-part p^k of the base, the generators of other primes vanish
    and those of p have valuations 0..k-1, so each coordinate is one base-p
    digit, solved from the lowest valuation up, from the record's steps.
    """
    base = box.base
    x = r % base
    coords = [0] * len(box.values)
    for i, pe, p, inverse, residue in box.steps:
        c = coords[i] = x // pe * inverse % p
        x = (x - c * residue) % base
    if x:
        raise RuntimeError(
            f"residue {r} mod {base} has no closed-form Apery element; "
            "this contradicts the construction")
    return coords


def bn_apery_closed(n: int) -> tuple[int, tuple[int, ...]]:
    """Apery set at the base, listed by summing the box one generator at a time.

    This is the only function that enumerates the box; single residues come
    from `_coordinates`.
    """
    box = _proper_box(n)
    base = box.base
    sums = [0]
    for value, p, _ in box.gens:
        sums = [s + c * value for c in range(p) for s in sums]
    if len({w % base for w in sums}) != base:
        raise RuntimeError(
            f"closed-form Apery residues collide for n = {n}; this contradicts "
            "the construction")
    return base, tuple(sorted(sums))


def bn_report(n: int) -> BinomialSemigroupReport:
    """All closed-form quantities in one record, read off the box: O(box),
    whatever the size of the Apery set.

    The minimal system is the base plus the box generators, so the embedding
    dimension is 1 + sum of exponents (m for n = p^m).  F = max(Ap) - base,
    the sum of (p - 1) * value over the box minus the base.  The semigroup is
    symmetric, so the genus is (F + 1)/2.  Prime n raises
    DegenerateSemigroupError.
    """
    box = _proper_box(n)
    base, f = box.base, box.frobenius
    genus, odd = divmod(f + 1, 2)
    if odd:
        raise RuntimeError(f"closed-form genus for n = {n} is not an integer")
    return BinomialSemigroupReport(
        n=n,
        minimal_generators=tuple(sorted((base, *(value for value, _, _ in box.gens)))),
        embedding_dimension=1 + len(box.gens),
        apery_base=base,
        apery_box=(base, tuple((value, p) for value, p, _ in box.gens)),
        frobenius=f,
        genus=genus,
        pseudo_frobenius=(f,),
        type=1,
        symmetric=True,
        telescopic=True,
    )


def decompose(n: int, m: int) -> Representation:
    """Write C(n, m) as a nonnegative combination of the minimal system.

    Canonical choice: the non-multiplicity coefficients are the bounded box
    coordinates of the Apery representative of C(n, m)'s residue class, and
    the remainder (necessarily a nonnegative multiple of the multiplicity)
    goes on the multiplicity generator.  In the prime-power case the target
    is C(n, m)/p and the basis is the scaled system.
    """
    if n < 2 or not 1 <= m <= n - 1:
        raise ValueError(f"decompose({n}, {m}) requires n >= 2 and 1 <= m <= n-1")
    box = _proper_box(n)
    base = box.base
    scale = n // base  # p for n = p^m, else 1
    value = binomial(n, m) // scale
    box_coeffs = _coordinates(box, value % base)
    q, r = divmod(value - sum(map(mul, box_coeffs, box.values)), base)
    if r or q < 0:
        raise RuntimeError(
            f"C({n},{m}) has no nonnegative representation over the minimal system; "
            "this contradicts the closed form")
    basis = (base, *box.values)
    coefficients = (q, *box_coeffs)
    if sum(c * b for c, b in zip(coefficients, basis)) != value:
        raise RuntimeError(f"representation of C({n},{m}) failed its reconstruction check")
    return Representation((n, m), basis, coefficients, value, scale > 1)


def identity_pq_check(p: int, q: int, r: int) -> int:
    """The leading coefficient of the two-prime binomial identity at n = pq.

    lead = (C(pq,r) - p*C(pq,p) - q*C(pq,q)) / pq, so that
    C(pq,r) = lead*C(pq,1) + p*C(pq,p) + q*C(pq,q).  The identity's content
    is that lead is an integer (possibly negative) for every r coprime to
    pq; this returns it, and raises RuntimeError if it is not.
    """
    if p == q or not (is_prime(p) and is_prime(q)):
        raise ValueError(f"need two distinct primes, got {p}, {q}")
    if not 0 <= r <= p * q or r % p == 0 or r % q == 0:
        raise ValueError(f"r = {r} must lie in [0, {p * q}] and be coprime to {p * q}")
    n = p * q
    target = binomial(n, r)
    fixed = p * binomial(n, p) + q * binomial(n, q)
    lead, rem = divmod(target - fixed, n)
    if rem:
        raise RuntimeError(
            f"(C({n},{r}) - {fixed})/{n} is not an integer; arithmetic bug")
    return lead


def identity_pm_check(p: int, m: int, r: int) -> int:
    """The leading coefficient of the prime-power binomial identity at n = p^m.

    lead = (C(n,r) - sum_{i=2..m} p^(i-2)*C(n, p^(i-1))) / n, so that
    C(n,r) = lead*n + sum_{i=2..m} p^(i-2)*C(n, p^(i-1)).  The published
    form asserts integrality for every r coprime to p, but the residue lemma
    forces lead to be integral only when p divides m - 1; outside that case
    this raises RuntimeError rather than return a fractional coefficient.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p = {p} must be an odd prime")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    n = p**m
    if not 0 <= r <= n or r % p == 0:
        raise ValueError(f"r = {r} must lie in [0, {n}] and not be a multiple of {p}")
    target = binomial(n, r)
    fixed = sum(p ** (i - 2) * binomial(n, p ** (i - 1)) for i in range(2, m + 1))
    lead, rem = divmod(target - fixed, n)
    if rem:
        raise RuntimeError(
            f"(C({n},{r}) - {fixed})/{n} is not an integer: the identity's leading "
            f"coefficient fails integrality at p={p}, m={m}, r={r} (it is integral "
            "exactly when p divides m - 1)")
    return lead


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
    mismatches are reported, not raised.  n = 30030 takes about 0.6 s."""
    report = bn_report(n)
    base, apery = bn_apery_closed(n)
    engine = NumericalSemigroup(bn_family(n))
    oracle_apery = engine.apery_set(base)
    fields = {
        "minimal_generators": (report.minimal_generators, engine.generators),
        "embedding_dimension": (report.embedding_dimension, len(engine.generators)),
        "apery_set": (apery, tuple(sorted(oracle_apery.entries))),
        "frobenius": (report.frobenius, engine.frobenius()),
        "genus": (report.genus, engine.genus()),
        "pseudo_frobenius": (report.pseudo_frobenius, tuple(engine.pseudo_frobenius())),
        "type": (report.type, engine.type()),
        "symmetric": (report.symmetric, engine.is_symmetric()),
        "telescopic": (report.telescopic, engine.is_telescopic()),
    }
    return OracleComparison(n, fields)
