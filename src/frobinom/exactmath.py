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
0.15-0.22 s against 11 s for `math.comb`.  Above 10^6 the same rule keeps
the tree on the faster side: on the same host, at the least j it admits,
with the prime cache warm, the tree took 0.006 s against 0.013 s at
2*10^6 and 0.024 s against 0.095 s at 2^24 - 1.

The primes are sieved on first use, never at import, into one cache that
grows to cover the largest n seen, at least doubling its limit each time,
and never beyond PRIME_CACHE_CAP = 2^24, which bounds its memory; above it
`binomial` always uses `math.comb`, quadratic as it is, so that no call
grows the cache past the cap.  A growth is one odd-only sieve of
Eratosthenes over [3, limit], from scratch, that reads primes off its flags
only above the old limit; it appends them, completes the last partial block
and appends the new block products.  Clearing the flags costs little (0.4
of the 11 ms a growth to 510510 takes, same host), but reading them makes
an int of each odd number read (7.7 ms there), so only the reading is kept
to the new range.  The record is still replaced whole.  The doubling can
leave the limit at up to twice the largest n asked for; that is what keeps
the growths to O(log n).

The cache holds the primes as machine words, an `array('I')` sieved
straight into the array, and beside it the product of each aligned block
of PRIME_BLOCK consecutive primes.  At n = 10^6 it is 0.57 MB (0.30 MB of
words, 0.27 MB of block products), against 2.70 MB as a list of ints; at
510510, 0.30 against 1.47 MB.  At the cap it holds 1,077,871 primes in
8.85 MB (4.48 MB of words, 4.37 MB of block products); sieving there from
an empty cache took 0.38 s (same host) and peaked at 33.6 MB RSS, 20.5 MB
above the bare interpreter, as a growth also holds one flag byte per odd
number up to its new limit.  A prime read from the array becomes a new
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
from math import comb, isqrt, prod
from operator import index, mul

TREE_MIN_K = 400         # below this j = min(k, n-k), math.comb's word-sized steps win
TREE_K2_PER_N = 32       # below j**2 = 32 n, walking the primes up to n costs more
PRIME_CACHE_CAP = 2**24  # largest n the prime cache grows to: 8.85 MB of primes and blocks
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
    if n > _sieve.limit:
        old = _sieve
        # at least double the limit, so that callers whose n creeps upward
        # sieve O(log n) times rather than once per call
        limit = min(PRIME_CACHE_CAP, max(n, 2 * old.limit))
        # one odd-only sieve of [3, limit], from scratch: flags[i] stands for
        # 2i + 1, and each odd prime p <= sqrt(limit) clears its odd multiples
        # from p * p on, which lie p apart in the flags
        flags = bytearray([1]) * ((limit + 1) // 2)
        for i in range(1, (isqrt(limit) + 1) // 2):
            if flags[i]:
                p = 2 * i + 1
                flags[p * p // 2::p] = bytes(len(range(p * p // 2, len(flags), p)))
        # only the primes above the old limit are read off the flags, one at a
        # time: no list of every prime is ever built; 2, the one even prime,
        # starts an empty cache.  Deleting the flags below is no copy for a
        # first growth, where a slice would copy them all (3.8 MB more peak
        # RSS at the cap)
        del flags[:(old.limit + 1) // 2]
        primes = array("I", old.primes or [2])
        primes.extend(compress(range(old.limit + 1 | 1, limit + 1, 2), flags))
        # the last partial block is completed, and the new whole ones appended
        blocks = old.blocks + [prod(primes[i:i + PRIME_BLOCK]) for i in range(
            PRIME_BLOCK * len(old.blocks), len(primes) - PRIME_BLOCK + 1, PRIME_BLOCK)]
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
    # partial ones at both ends of each range singly; a range that holds no
    # whole block has last = first, and all its primes are taken singly
    whole = []
    q = 1
    while n // q > j:
        lo = max(mid, bisect_right(primes, (n - j) // q))
        hi = bisect_right(primes, n // q)
        first = -(-lo // PRIME_BLOCK)
        last = max(first, hi // PRIME_BLOCK)
        factors += primes[lo:min(hi, first * PRIME_BLOCK)]
        factors += primes[last * PRIME_BLOCK:hi]
        whole += blocks[first:last]
        q += 1
    return _product_tree(factors) * _product_tree(whole)


def _least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division by 2, 3 and then
    the numbers 6k - 1 and 6k + 1, among which every larger prime lies."""
    if n % 2 == 0:
        return 2
    if n % 3 == 0:
        return 3
    f = 5
    while f * f <= n:
        if n % f == 0:
            return f
        if n % (f + 2) == 0:
            return f + 2
        f += 6
    return n


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for desk-scale inputs."""
    n = index(n)
    return n >= 2 and _least_factor(n) == n


def _check_prime(p: int):
    """The one refusal of an argument that must be prime."""
    if not is_prime(p):
        raise ValueError(f"{_int_text(p)} is not prime")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 2 as [(p, multiplicity), ...], primes
    ascending: what is left of n is divided by its least factor until 1 is left."""
    n = index(n)
    if n < 2:
        raise ValueError(f"cannot factor {_int_text(n)}: need n >= 2")
    out = []
    while n > 1:
        p, k = _least_factor(n), 0
        while n % p == 0:
            n //= p
            k += 1
        out.append((p, k))
    return out


def p_adic_valuation(p: int, x: int) -> int:
    """Largest v with p^v dividing x, for x >= 1."""
    p, x = index(p), index(x)
    if x < 1:
        raise ValueError(f"p-adic valuation of {_int_text(x)} is undefined here")
    _check_prime(p)
    return _divide_out(p, x)


def _divide_out(p: int, x: int) -> int:
    """Largest v with p^v dividing x >= 1, for a p its caller checked prime."""
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
    _check_prime(p)
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
    p, a, m, n2 = index(p), index(a), index(m), index(n2)
    _check_prime(p)
    if not m >= n2 >= 0 or a < 0:
        raise ValueError(f"need m >= n2 >= 0 and a >= 0, got a={_int_text(a)}, "
                         f"m={_int_text(m)}, n2={_int_text(n2)}")
    big = binomial(p**a * m, p**a * n2)
    small = binomial(m, n2)
    v_small = _divide_out(p, small)
    if _divide_out(p, big) < v_small:
        raise RuntimeError(
            f"C({p**a * m},{p**a * n2})/C({m},{n2}) is not a {p}-adic integer; "
            "arithmetic bug")
    exponent = 2 + (_divide_out(p, n2) if n2 else 0)
    rhs = 1 + (p * n2 * (m - n2) if p == 2 else 0)
    diff = big - rhs * small
    return diff == 0 or _divide_out(p, abs(diff)) >= exponent + v_small


def binom_residue_lemma(n: int, p: int, k: int) -> tuple[int, int]:
    """Both sides of C(n, p^k) == n/p^k (mod n), reduced mod n.

    Returns (C(n, p^k) mod n, (n/p^k) mod n) so callers can assert they agree.
    Requires n >= 1, k >= 1 and p^k | n.
    """
    n, p, k = index(n), index(p), index(k)
    if n < 1:
        raise ValueError(f"need n >= 1, got {_int_text(n)}")
    if k < 1:
        raise ValueError("exponent k must be at least 1")
    _check_prime(p)
    # p^k > n once k exceeds n's bit length, so it is refused before it is built
    if k > n.bit_length() or n % p**k:
        raise ValueError(f"{p}^{_int_text(k)} does not divide {_int_text(n)}")
    pk = p**k
    return binomial(n, pk) % n, (n // pk) % n


def _legendre_valuation(p: int, n: int, k: int) -> int:
    # sum of floor(n/p^i) - floor(k/p^i) - floor((n-k)/p^i)
    total = 0
    q = p
    while q <= n:
        total += n // q - k // q - (n - k) // q
        q *= p
    return total

