"""Exact big-integer combinatorics: binomials, factorization, p-adic valuations.

Everything here is pure integer arithmetic; no floats, no rounding.  Indices
(n, k, primes, exponents) are expected to be machine-scale, while values
(binomial coefficients) may be arbitrarily large.  The public entries read
their arguments through `operator.index`, so a float raises TypeError.

`binomial` has two ways to compute C(n, k), chosen from (n, j) with
j = min(k, n - k):

- `math.comb`.  On Python 3.11 it splits C(n, k) recursively and divides
  big integers at each step; CPython's big-integer division is quadratic,
  so its cost grows as the square of the result's length, about
  j * log2(n / j) bits.  For small j it works on machine words in linear
  time and cannot be beaten.
- A prime product tree (Goetgheluck, "Computing binomial coefficients",
  Amer. Math. Monthly 94, 1987).  The exponent of each prime p <= n in
  C(n, k) comes from Legendre's formula (Kummer's theorem), and the prime
  powers are multiplied in a balanced tree, so no big division happens and
  Karatsuba multiplication sets the cost.  It has to walk the primes up to
  n/2, which costs the most when n is much larger than j.

The tree is used when j >= TREE_MIN_K and j**2 >= TREE_K2_PER_N * n, and
n <= PRIME_CACHE_CAP.  A crossover sweep (Python 3.11.7, 2-vCPU Xeon) put
the break-even j at about 400 for n up to 5000, 1000 at n = 3*10^4, 1800 at
10^5, 4000 at 5*10^5 and 5600 at 10^6: close to j**2 = 32 n throughout.
Far from the crossover the tree is much faster: C(10^6, 5*10^5) takes
0.15-0.22 s against 11 s for `math.comb`.

The primes are sieved on first use, never at import, into one cache that
grows to cover the largest n seen, at least doubling its limit each time,
and never beyond PRIME_CACHE_CAP (the CLI's bound on n); above it
`binomial` always uses `math.comb`.

The cache holds the primes as machine words, an `array('I')` sieved
straight into the array, and beside it the product of each aligned block
of PRIME_BLOCK consecutive primes.  At n = 10^6 it is 0.57 MB (0.30 MB of
words, 0.27 MB of block products), against 2.70 MB as a list of ints; at
510510, 0.30 against 1.47 MB.  A prime read from the array becomes a new
int, so the tree reads primes one by one only up to j, where it must
test each.  A prime p > j divides C(n, j) once exactly when a
multiple q p lies in (n - j, n], so above j the factors are the primes in
the ranges ((n - j)/q, n/q] for q = 1, 2, ... while n/q > j: each range is
found by bisection, its whole blocks are taken from the cache as products
and only its partial blocks at both ends as single primes.  The block
products and the single primes are multiplied as two balanced trees and
then once: a single tree pairs its leaves by count, so it would multiply
600-bit blocks with 20-bit primes and lose its balance by size (2% slower
per call in the median at the benchmark's sizes, measured).
"""

from array import array
from bisect import bisect_right
from collections import namedtuple
from itertools import compress
from math import comb, gcd, isqrt, prod
from operator import index, mul

TREE_MIN_K = 400         # below this j = min(k, n-k), math.comb's word-sized steps win
TREE_K2_PER_N = 32       # below j**2 = 32 n, walking the primes up to n costs more
PRIME_CACHE_CAP = 10**6  # largest n the prime cache grows to; imported by the CLI as MAX_N
PRIME_BLOCK = 32         # primes per cached block product

_Sieve = namedtuple("_Sieve", "limit primes blocks")
# every prime <= limit ascending, and the product of each whole block
# primes[PRIME_BLOCK * b : PRIME_BLOCK * (b + 1)]; replaced whole, so that a
# reader never pairs one sieve's primes with another sieve's limit or blocks
_sieve = _Sieve(1, array("I"), [])


def _int_text(x: int) -> str:
    """x in decimal for a message, or its bit length when x has more digits
    than the interpreter's int-to-str limit, so that building the message
    cannot raise in place of the error it reports."""
    try:
        return str(x)
    except ValueError:
        return f"{'-' * (x < 0)}<{x.bit_length()}-bit integer>"


def binomial(n: int, k: int) -> int:
    """C(n, k), exactly.  Raises for k outside [0, n].

    Uses `math.comb` when j = min(k, n - k) is below TREE_MIN_K, when
    j**2 < TREE_K2_PER_N * n, or when n > PRIME_CACHE_CAP; otherwise
    multiplies the prime powers of C(n, k) in a balanced product tree.  The
    module docstring gives the measured crossover.
    """
    n, k = index(n), index(k)
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"binomial({_int_text(n)}, {_int_text(k)}) requires 0 <= k <= n")
    j = min(k, n - k)
    if j < TREE_MIN_K or j * j < TREE_K2_PER_N * n or n > PRIME_CACHE_CAP:
        return comb(n, k)
    return _binomial_from_primes(n, j)


def _primes_up_to(n: int) -> _Sieve:
    """The cached sieve record, grown to cover at least n <= PRIME_CACHE_CAP."""
    global _sieve
    limit = _sieve.limit
    if n > limit:
        # at least double the limit, so that callers whose n creeps upward
        # sieve O(log n) times rather than once per call
        limit = min(PRIME_CACHE_CAP, max(n, 2 * limit))
        # odd numbers only: flags[i] stands for 2i + 1, so a step of p here is 2p
        size = (limit + 1) // 2
        flags = bytearray([1]) * size
        flags[0] = 0
        for i in range(1, (isqrt(limit) + 1) // 2):
            if flags[i]:
                p = 2 * i + 1
                flags[p * p // 2::p] = bytes(len(range(p * p // 2, size, p)))
        # extended one prime at a time: no list of every prime is ever built
        primes = array("I", [2])
        primes.extend(compress(range(1, limit + 1, 2), flags))
        blocks = [prod(primes[i:i + PRIME_BLOCK])
                  for i in range(0, len(primes) - PRIME_BLOCK + 1, PRIME_BLOCK)]
        _sieve = _Sieve(limit, primes, blocks)
    return _sieve


def _product_tree(factors: list[int]) -> int:
    """Product of the factors, multiplying neighbours pairwise so operands stay balanced."""
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) % 2 else []
        factors = list(map(mul, factors[0::2], factors[1::2])) + odd
    return factors[0] if factors else 1


def _binomial_from_primes(n: int, j: int) -> int:
    """C(n, j) for 1 <= j <= n/2 as the product of its prime powers."""
    _, primes, blocks = _primes_up_to(n)
    small = bisect_right(primes, isqrt(n))
    factors = []
    for p in primes[:small]:
        e = _legendre_valuation(p, n, j)
        if e:
            factors.append(p**e)
    # above sqrt(n) Legendre's sum has the single term n//p - j//p - (n-j)//p,
    # which is 1 exactly when j mod p + (n-j) mod p carries, i.e. n mod p < j mod p
    mid = max(small, bisect_right(primes, j))
    factors += [p for p in primes[small:mid] if n % p < j % p]
    # above j too it is 1 exactly when a multiple q p lies in (n - j, n], and
    # then only one does: so the primes taken are those in ((n - j)/q, n/q]
    # for q = 1, 2, ... while n/q > j, whole blocks from the cache and the
    # partial ones at both ends of each range singly
    whole = []
    q = 1
    while n // q > j:
        lo = max(mid, bisect_right(primes, (n - j) // q))
        hi = bisect_right(primes, n // q)
        first, last = -(-lo // PRIME_BLOCK), hi // PRIME_BLOCK
        if first < last:
            factors += primes[lo:first * PRIME_BLOCK]
            factors += primes[last * PRIME_BLOCK:hi]
            whole += blocks[first:last]
        else:
            factors += primes[lo:hi]
        q += 1
    return _product_tree(factors) * _product_tree(whole)


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for desk-scale inputs."""
    n = index(n)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 2 as [(p, multiplicity), ...], primes ascending."""
    n = index(n)
    if n < 2:
        raise ValueError(f"cannot factor {_int_text(n)}: need n >= 2")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def p_adic_valuation(p: int, x: int) -> int:
    """Largest v with p^v dividing x, for x >= 1."""
    p, x = index(p), index(x)
    if x < 1:
        raise ValueError(f"p-adic valuation of {_int_text(x)} is undefined here")
    if not is_prime(p):
        raise ValueError(f"{_int_text(p)} is not prime")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def binomial_valuation_kummer(p: int, n: int, k: int) -> int:
    """v_p(C(n, k)) counted as the carries when adding k and n-k in base p.

    Independent of any factorization of the binomial coefficient itself,
    which makes it a useful cross-check for p_adic_valuation.
    """
    p, n, k = index(p), index(n), index(k)
    if k < 0 or k > n:
        raise ValueError(f"binomial_valuation_kummer({_int_text(p)}, {_int_text(n)}, "
                         f"{_int_text(k)}) requires 0 <= k <= n")
    if not is_prime(p):
        raise ValueError(f"{_int_text(p)} is not prime")
    a, b = k, n - k
    carry = carries = 0
    while a or b or carry:
        carry = 1 if a % p + b % p + carry >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


def sun_congruence_holds(p: int, a: int, m: int, n2: int) -> bool:
    """Check C(p^a*m, p^a*n2) / C(m, n2) == 1 + [p=2]*p*n2*(m-n2) mod p^(2+v_p(n2)).

    Carry counting gives the numerator and denominator equal p-adic
    valuation, so the quotient is a p-adic integer even when it is not a
    rational one (e.g. C(8,4)/C(4,2) = 70/6); the congruence is therefore
    evaluated p-adically: with A the big binomial, B the small one and R the
    right-hand side, it holds iff v_p(A - R*B) >= 2 + v_p(n2) + v_p(B).
    For n2 = 0 the modulus exponent is taken as 2 and the statement
    degenerates to 1 == 1.
    """
    if not is_prime(p):
        raise ValueError(f"{_int_text(p)} is not prime")
    if not m >= n2 >= 0 or a < 0:
        raise ValueError(f"need m >= n2 >= 0 and a >= 0, got a={_int_text(a)}, "
                         f"m={_int_text(m)}, n2={_int_text(n2)}")
    big = binomial(p**a * m, p**a * n2)
    small = binomial(m, n2)
    if p_adic_valuation(p, big) < p_adic_valuation(p, small):
        raise RuntimeError(
            f"C({p**a * m},{p**a * n2})/C({m},{n2}) is not a {p}-adic integer; "
            "arithmetic bug")
    exponent = 2 + (p_adic_valuation(p, n2) if n2 else 0)
    rhs = 1 + (p * n2 * (m - n2) if p == 2 else 0)
    diff = big - rhs * small
    if diff == 0:
        return True
    return p_adic_valuation(p, abs(diff)) >= exponent + p_adic_valuation(p, small)


def binom_residue_lemma(n: int, p: int, k: int) -> tuple[int, int]:
    """Both sides of C(n, p^k) == n/p^k (mod n), reduced mod n.

    Returns (C(n, p^k) mod n, (n/p^k) mod n) so callers can assert they agree.
    Requires k >= 1 and p^k | n.
    """
    if k < 1:
        raise ValueError("exponent k must be at least 1")
    if not is_prime(p):
        raise ValueError(f"{_int_text(p)} is not prime")
    pk = p**k
    if n % pk:
        raise ValueError(f"{p}^{k} does not divide {_int_text(n)}")
    return binomial(n, pk) % n, (n // pk) % n


def _legendre_valuation(p: int, n: int, k: int) -> int:
    # sum of floor(n/p^i) - floor(k/p^i) - floor((n-k)/p^i)
    total = 0
    q = p
    while q <= n:
        total += n // q - k // q - (n - k) // q
        q *= p
    return total


def invariant_report() -> list[tuple[str, bool]]:
    """Run this module's self-consistency sweeps; returns (label, passed) rows.

    Used by the CLI `verify` command.  The pytest suite runs the same checks
    with independent in-test oracles.
    """
    rows = []

    ok = True
    row = [1]
    for n in range(1, 61):
        row = [1] + [row[k - 1] + row[k] for k in range(1, n)] + [1]
        for k in range(n + 1):
            value = binomial(n, k)
            if value != row[k] or value != binomial(n, n - k):
                ok = False
    rows.append(("pascal recurrence and symmetry, n <= 60", ok))

    ok = True
    for n in range(61):
        for k in range(n + 1):
            b = binomial(n, k)
            for p in (2, 3, 5, 7, 11, 13):
                v = binomial_valuation_kummer(p, n, k)
                if v != _legendre_valuation(p, n, k):
                    ok = False
                if v != p_adic_valuation(p, b):
                    ok = False
    rows.append(("carry count = divide-out valuation = floor-sum formula, n <= 60", ok))

    # The sweeps here stay below TREE_MIN_K, so check the product tree against
    # math.comb at the least j = min(k, n-k) it takes, and one below it: at
    # n = 800 only TREE_MIN_K binds, at 5000 both rules meet, at 10^4 the
    # square rule binds.
    ok = True
    for n in (2 * TREE_MIN_K, TREE_MIN_K**2 // TREE_K2_PER_N, 10**4):
        j = max(TREE_MIN_K, isqrt(TREE_K2_PER_N * n - 1) + 1)
        for k in (j - 1, j, j + 1, n - j):
            if binomial(n, k) != comb(n, k):
                ok = False
    rows.append(("product tree = math.comb at the dispatch thresholds, n <= 10^4", ok))

    # The residue congruence C(n, p^k) == n/p^k (mod n) is provable only for
    # k <= 2 with p odd, or k = 1 with p = 2 (the p = 2 correction term breaks
    # it otherwise: C(8,4) = 70 == 6 (mod 8), not 2).  Sweep that domain.
    ok = True
    for n in range(2, 301):
        for p, kmax in factorize(n):
            for k in range(1, kmax + 1):
                if (p == 2 and k >= 2) or k >= 3:
                    continue
                lhs, rhs = binom_residue_lemma(n, p, k)
                if lhs != rhs:
                    ok = False
    rows.append(("binomial residue congruence on its provable domain, n <= 300", ok))

    # At a = 0 the quotient is 1 while the p = 2 right-hand side is not, so
    # the congruence only holds from a >= 1 for p = 2.
    ok = True
    for p in (2, 3, 5, 7):
        for a in range(3):
            if p == 2 and a == 0:
                continue
            for m in range(13):
                for n2 in range(m + 1):
                    if not sun_congruence_holds(p, a, m, n2):
                        ok = False
    rows.append(("prime-power quotient congruence (a >= 1 for p = 2), p in 2..7, m <= 12", ok))

    ok = True
    for n in range(2, 201):
        fac = factorize(n)
        expected = fac[0][0] if len(fac) == 1 else 1
        g = 0
        for k in range(1, n):
            g = gcd(g, binomial(n, k))
            if g == 1:  # no later term can change it; a prime-power row runs to the end
                break
        if g != expected:
            ok = False
    rows.append(("gcd of binomial family: p for prime powers else 1, n <= 200", ok))

    return rows
