"""Closed-form structure of the semigroup generated by C(n,1), ..., C(n,n-1).

For n with at least two prime factors the family has gcd 1 and generates a
numerical semigroup directly; for n = p^m the gcd is p and the family is
scaled by 1/p first.  Every closed form here is read off one "box": the
Apery base (n, or p^(m-1) for n = p^m) and the generators C(n, p^j) (divided
by p in the prime-power case), each with coordinate bound p.  The Apery set
at the base is the set of sums of c * C(n, p^j) with 0 <= c < p; the minimal
system, Frobenius number and genus are sums over the box.

The triple completion (`algorithm1`, `exists_admissible_bn`) asks whether
s, s+1 and s+p all lie in the semigroup with s + p below the Frobenius
number; the closed-form Apery lookups answer those questions at sizes where
the gap set itself is astronomically large.

`bn_report` carries the box itself, as `apery_box`, so it costs O(box) at
any n.  Only `bn_apery_closed` lists the Apery set, which has one element
per residue class: the CLI's `report` calls it when the base is at most
1000, and `oracle.verify_closed_vs_oracle` to compare the set with the
engine's.  `decompose` and the triple completion look up single residues
in two steps: `_coordinates` solves the box coordinates of the residue as
base-p digits, in word-size integers, and one sum of coordinate times value
forms the element.  This module imports nothing from the generic engine in
`semigroup`; `oracle` cross-checks every closed form here against it.

Per-n data is cached in two stages (the RECORD_CACHE most recent n of
each).  The spec stage, `bn_spec(n)`, is the factorization and the scale
(p for n = p^m, else 1), with no binomial computed, so a check that needs
only the spec (such as `algorithm1`'s prime-power rejection) stays cheap.  The
box stage, `_box(n)`, is built from it and keyed by its int `n`: every reader
reaches the record through `bn_spec`, which reads n through `operator.index`
(`decompose` also reads it, to check n and m together first), so the box is
a function of the validated spec alone.  The box holds the base, the box
generators and their values, F, the digit-solve steps and an `ordered` flag.
When each value exceeds the largest sum of the generators below it, Apery
elements order as their coordinate vectors read from the largest generator
down, so the triple completion finds the largest of three classes from
word-size coordinates and sums one element, not three.  The record's only
big ints are the generator values and F.  The closed forms, the point
queries and the CLI read the two stages and neither factor n nor sum the
box again.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd
from operator import index, mul

from .exactmath import _int_text, binomial, factorize, is_prime

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


@lru_cache(maxsize=RECORD_CACHE, typed=True)
def bn_spec(n: int) -> BinomialSemigroupSpec:
    """The spec stage of the per-n record: factor n and record the family's
    gcd (p for prime powers, else 1), with no binomial computed.  Cached.

    n is read through `operator.index`, so a float raises TypeError; the
    cache is keyed by type too, so 30.0 never hits the record of 30.  The
    box stage is keyed by the int `n` of the spec this returns.
    """
    n = index(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {_int_text(n)}")
    fac = tuple(factorize(n))
    return BinomialSemigroupSpec(n, fac, fac[0][0] if len(fac) == 1 else 1)


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
    the spec stage.  n is the int `bn_spec(n).n`, which every reader passes,
    so the cache sees ints only.

    The Apery set at `base` is the set of sums of c * value with 0 <= c < p,
    one coordinate per generator.  The values are C(n, p^j) for the prime
    powers p^j dividing `base`; for n = p^m the family is scaled by 1/p, so
    the base is p^(m-1) and the values are C(n, p^j)/p for j < m.  With p^k
    the p-part of `base`, e = k - j is the p-adic valuation of the value
    (Kummer's theorem).  Prime n gives base 1, where the scaled family
    holds 1, and raises DegenerateSemigroupError before any binomial.
    """
    spec = bn_spec(n)
    base = n // spec.scale
    if base == 1:
        raise DegenerateSemigroupError(n)
    gens = []
    for p, k in spec.factorization:
        if p == spec.scale:
            k -= 1
        gens.extend((binomial(n, p**j) // spec.scale, p, k - j) for j in range(1, k + 1))
    gens.sort()
    steps = []
    for i in sorted(range(len(gens)), key=lambda i: gens[i][2]):
        value, p, e = gens[i]
        pe = p**e
        unit = value % (pe * p) // pe
        if not unit:
            # a wrong binomial from exactmath, not a domain error; p**j is the
            # p-part of the base over p**e
            pj = gcd(base, p**base.bit_length()) // pe
            raise RuntimeError(
                f"the box generator from C({n}, {pj}) is divisible by {p}**{e + 1}; "
                "this contradicts Kummer's theorem")
        steps.append((i, pe, p, pow(unit, -1, p), value % base))
    ordered, below = True, 0
    for value, p, _ in gens:
        ordered = ordered and value > below
        below += (p - 1) * value
    frobenius = below - base
    return _Box(base, tuple(gens), tuple(value for value, _, _ in gens), ordered,
                tuple(steps), frobenius, frobenius % base)


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
    n = bn_spec(n).n
    box = _box(n)
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
    dimension is 1 + sum of exponents (m for n = p^m).  It is ascending as
    built: the values ascend, and the base is below the smallest of them, as
    C(N, k) > N for 2 <= k <= N - 2.  F = max(Ap) - base, the sum of
    (p - 1) * value over the box minus the base.  The semigroup is symmetric,
    so the genus is (F + 1)/2.  Prime n raises DegenerateSemigroupError.
    """
    n = bn_spec(n).n
    box = _box(n)
    base, f = box.base, box.frobenius
    genus, odd = divmod(f + 1, 2)
    if odd:
        raise RuntimeError(f"closed-form genus for n = {n} is not an integer")
    return BinomialSemigroupReport(
        n=n,
        minimal_generators=(base, *box.values),
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
    is C(n, m)/p and the basis is the scaled system.  n and m are read
    through `operator.index`, so a float raises TypeError, and checked
    together before n is factored, so an m out of range costs no spec.
    """
    n, m = index(n), index(m)
    if n < 2 or not 1 <= m <= n - 1:
        raise ValueError(
            f"decompose({_int_text(n)}, {_int_text(m)}) requires n >= 2 and 1 <= m <= n-1")
    spec = bn_spec(n)
    box = _box(n)
    base = box.base
    value = binomial(n, m)
    if spec.scale > 1:  # a division by 1 would copy C(n, m) for nothing
        value //= spec.scale
    box_coeffs = _coordinates(box, value % base)
    # the division is exact, as _coordinates puts the box sum in the class of
    # value mod base; q < 0 (value below its Apery element) is non-membership
    q = (value - sum(map(mul, box_coeffs, box.values))) // base
    if q < 0:
        raise RuntimeError(
            f"C({n},{m}) has no nonnegative representation over the minimal system; "
            "this contradicts the closed form")
    return Representation((n, m), (base, *box.values), (q, *box_coeffs), value, spec.scale > 1)


class AdmissiblePairResult(namedtuple("AdmissiblePairResult", "triple count")):
    """Output of the triple-completion algorithm: the triple (s, s+1, s+p) and
    its associated count."""
    __slots__ = ()


def _check_p(base: int, p: int):
    """The domain of p that `algorithm1` and `exists_admissible_bn` share:
    p >= 2, and p not 0 or 1 mod base, where the classes of s, s+1 and s+p
    collide for every s."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {_int_text(p)}")
    if p % base in (0, 1):
        raise ValueError(
            f"residues of (s, s+1, s+{_int_text(p)}) collide mod {base} for every s")


def _triple(box, s: int, p: int):
    """The box coordinates of the Apery representatives of the classes of
    s, s+1, s+p; the value of the largest of them; and the completion of
    that largest into a triple (t, t+1, t+p) in those classes.  For p that
    has passed `_check_p`.

    t is the largest representative raised by 0 when it is the class of s,
    by base - 1 when it is the class of s+1, and by the least multiple of
    the base that is >= p, minus p, when it is the class of s+p; that last
    shift keeps t above its own representative when p > base.  When the box
    is ordered the largest representative is the one whose coordinates,
    read from the largest generator down, are largest, so only its value is
    summed; otherwise all three are.
    """
    base = box.base
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

    s_seed and p are read as integers (`operator.index`), so any other type
    raises TypeError.  p must be at least 2 and not 0 or 1 mod the base, else
    ValueError: the domain that `exists_admissible_bn` shares.

    Prime powers use base p^(m-1) instead of n and require force_base=True,
    as that substitution goes beyond the construction the count is defined
    for; they are rejected from the factorization, before any binomial.
    """
    s_seed, p = index(s_seed), index(p)
    spec = bn_spec(n)
    if spec.scale > 1 and spec.factorization[0][1] > 1 and not force_base:
        raise ValueError(
            f"n = {spec.n} is a prime power; its Apery base is {spec.factorization[0][0]}"
            f"**{spec.factorization[0][1] - 1}, not n. Pass force_base=True (--force-base) "
            "to run against that base")
    box = _box(spec.n)
    f, base = box.frobenius, box.base
    _check_p(base, p)
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

    p is read as an integer, as in `algorithm1`, and p outside its domain
    raises ValueError.  RuntimeError means that no s exists.  For p > F - 2
    that is known at once: s >= 1 and s + p < F cannot both hold.  Otherwise
    it is raised after every seed class has failed.  That is a real outcome,
    not only a bug guard:
    elements in the class of max(Ap) all exceed the Frobenius number, so
    when the Apery base is 3 a residue-distinct triple (which covers all
    classes) can never be admissible - S(B_9) has no admissible pair for
    any p == 2 (mod 3).
    """
    p = index(p)
    n = bn_spec(n).n
    box = _box(n)
    f, base = box.frobenius, box.base
    _check_p(base, p)
    if p > f - 2:
        raise RuntimeError(
            f"no admissible s for n={n}, p={_int_text(p)}: s >= 1 and s + p < "
            f"F = {_int_text(f)} cannot both hold")
    for seed in range(base):
        coords, top, triple = _triple(box, seed, p)
        if triple[2] >= f:
            k = (triple[2] - f) // base + 1
            triple = tuple(x - k * base for x in triple)
        # the lowering leaves triple[2] < F (k * base > triple[2] - F), so
        # s >= 1 and membership are left.  Each entry lies in the class of
        # its representative, so it is in the semigroup iff it is at least
        # that representative; all are when the smallest entry is at least
        # top, the largest representative
        if triple[0] >= 1 and (triple[0] >= top or all(
                x >= sum(map(mul, c, box.values)) for x, c in zip(triple, coords))):
            return triple[0]
    raise RuntimeError(
        f"exhausted all {base} seed classes without an admissible s for n={n}, "
        f"p={_int_text(p)}")


def identity_pq_check(p: int, q: int, r: int) -> int:
    """The leading coefficient of the two-prime binomial identity at n = pq.

    lead = (C(pq,r) - p*C(pq,p) - q*C(pq,q)) / pq, so that
    C(pq,r) = lead*C(pq,1) + p*C(pq,p) + q*C(pq,q).  The identity's content
    is that lead is an integer (possibly negative) for every r coprime to
    pq; this returns it, and raises RuntimeError if it is not.
    """
    p, q, r = index(p), index(q), index(r)
    if p == q or not (is_prime(p) and is_prime(q)):
        raise ValueError(f"need two distinct primes, got {_int_text(p)}, {_int_text(q)}")
    if not 0 <= r <= p * q or r % p == 0 or r % q == 0:
        raise ValueError(f"r = {_int_text(r)} must lie in [0, {p * q}] and be coprime to {p * q}")
    n = p * q
    target = binomial(n, r)
    fixed = p * binomial(n, p) + q * binomial(n, q)
    lead, rem = divmod(target - fixed, n)
    if rem:
        raise RuntimeError(
            f"(C({n},{r}) - {p}*C({n},{p}) - {q}*C({n},{q}))/{n} is not an integer; "
            "arithmetic bug")
    return lead


def identity_pm_check(p: int, m: int, r: int) -> int:
    """The leading coefficient of the prime-power binomial identity at n = p^m.

    lead = (C(n,r) - sum_{i=2..m} p^(i-2)*C(n, p^(i-1))) / n, so that
    C(n,r) = lead*n + sum_{i=2..m} p^(i-2)*C(n, p^(i-1)).  The published
    form asserts integrality for every r coprime to p, but the residue lemma
    forces lead to be integral only when p divides m - 1; outside that case
    this raises RuntimeError rather than return a fractional coefficient.
    """
    p, m, r = index(p), index(m), index(r)
    if not is_prime(p) or p == 2:
        raise ValueError(f"p = {_int_text(p)} must be an odd prime")
    if m < 2:
        raise ValueError(f"need m >= 2, got {_int_text(m)}")
    n = p**m
    if not 0 <= r <= n or r % p == 0:
        raise ValueError(
            f"r = {_int_text(r)} must lie in [0, {_int_text(n)}] and not be a multiple of {p}")
    target = binomial(n, r)
    fixed = sum(p ** (i - 2) * binomial(n, p ** (i - 1)) for i in range(2, m + 1))
    lead, rem = divmod(target - fixed, n)
    if rem:
        raise RuntimeError(
            f"(C({n},{r}) - sum_{{i=2..m}} p^(i-2)*C({n},p^(i-1)))/{n} is not an integer: "
            f"the identity's leading coefficient fails integrality at p={p}, m={m}, r={r} "
            "(it is integral exactly when p divides m - 1)")
    return lead
