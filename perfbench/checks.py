"""Independent oracles and per-operation output checks.

Nothing here imports frobinom: every check recomputes what it needs with
its own code (trial division, math.comb, a round-robin Apery table and a
bitset A(S)), so a wrong answer from the program cannot also fool its check.
Each check returns None when the output is right and a one-line reason
when it is not.
"""

import json
from bisect import bisect_left
from functools import lru_cache
from math import comb, gcd, inf

# Exit codes of the CLI contract in README.md.
EXIT_OK, EXIT_MISMATCH, EXIT_DOMAIN, EXIT_INTERNAL, EXIT_USAGE = 0, 1, 2, 3, 64
MAX_N = 10**6


def factor(n):
    """[(p, k), ...] for n >= 2, primes ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n):
    return n >= 2 and factor(n) == [(n, 1)]


@lru_cache(maxsize=None)
def bn_shape(n):
    """(scale, apery_base, minimal_generators, frobenius) of S(B_n), from the
    closed forms recomputed with math.comb, for composite n."""
    fac = factor(n)
    if len(fac) == 1:
        p, k = fac[0]
        gens = sorted(comb(n, p**i) // p for i in range(k))
        return p, p ** (k - 1), gens, (p - 1) * sum(gens[1:]) - p ** (k - 1)
    boxed = [comb(n, p**j) for p, k in fac for j in range(1, k + 1)]
    f = sum((p - 1) * comb(n, p**j) for p, k in fac for j in range(1, k + 1)) - n
    return 1, n, sorted([n] + boxed), f


def bn_family(n):
    """C(n,1), ..., C(n,n-1) divided by their gcd."""
    vals = [comb(n, k) for k in range(1, n)]
    g = gcd(*vals)
    return [v // g for v in vals]


def apery_table(gens):
    """Least element of <gens> in each class mod min(gens), by the round-robin
    algorithm (Boecker & Liptak 2007); classes out of reach stay inf."""
    gens = sorted(set(gens))
    a = gens[0]
    ap = [0] + [inf] * (a - 1)
    for g in gens[1:]:
        d = gcd(a, g)
        length = a // d
        for start in range(d):
            cycle = [(start + k * g) % a for k in range(length)]
            low = min(range(length), key=lambda k: ap[cycle[k]])
            if ap[cycle[low]] == inf:
                continue
            for k in range(low, low + length):
                here, there = cycle[k % length], cycle[(k + 1) % length]
                if ap[here] + g < ap[there]:
                    ap[there] = ap[here] + g
    return ap


class Semigroup:
    """Frobenius number, genus and pseudo-Frobenius set from an Apery table."""

    def __init__(self, gens):
        self.ap = apery_table(gens)
        self.m = len(self.ap)
        self.frobenius = max(self.ap) - self.m
        self.genus = (sum(self.ap) - self.m * (self.m - 1) // 2) // self.m
        members = set(self.ap)
        # w is maximal in the Apery set iff no w + g is in it (any generators).
        self.pseudo_frobenius = sorted(
            w - self.m for w in self.ap if not any(w + g in members for g in gens))

    def contains(self, x):
        return x >= 0 and x >= self.ap[x % self.m]

    def gaps(self):
        return sorted(x for r, w in enumerate(self.ap) for x in range(r, w, self.m))


def a_set_gaps(gaps):
    """Gaps of A(S) = {x : x + s in S for every s in S}, with Python-int bitsets:
    x is a gap of A(S) iff some member s <= F puts x + s on a gap of S."""
    if not gaps:
        return []
    f = max(gaps)
    gapmask = 0
    for g in gaps:
        gapmask |= 1 << g
    bad = 0
    gapset = set(gaps)
    for s in range(f + 1):
        if s not in gapset:
            bad |= gapmask >> s
    return [x for x in range(1, f + 1) if bad >> x & 1]


def partition_parts(gaps):
    """Associated partition: per gap, the members below it; largest first."""
    gapset, parts, seen = set(gaps), [], 0
    for x in range(max(gaps, default=-1) + 1):
        if x in gapset:
            parts.append(seen)
        else:
            seen += 1
    return parts[::-1]


def admissible_pair_count(gaps, a_gaps):
    """Number of pairs (s, p), p >= 2, with s >= 1 and s, s+1, s+p in A(S)
    and s + p < F(S)."""
    f = max(gaps, default=-1)
    bad = set(a_gaps)
    members = [x for x in range(f) if x not in bad]
    return sum(len(members) - bisect_left(members, s + 2)
               for s in members if s >= 1 and s + 1 not in bad)


# --- in-process operations ---------------------------------------------------

def decomposition_problem(n, m, coefficients, basis):
    if any(c < 0 for c in coefficients):
        return "negative coefficient"
    if sum(c * b for c, b in zip(coefficients, basis)) != comb(n, m) // bn_shape(n)[0]:
        return "sum of coefficient * basis differs from C(n, m) / scale"
    return None


def check_decompose(args, rep):
    return decomposition_problem(*args, rep.coefficients, rep.basis)


@lru_cache(maxsize=None)
def small_bn_oracle(n):
    """Engine oracle on the full family of S(B_n); its multiplicity is the
    Apery base of the closed forms.  Only for small n."""
    return Semigroup(bn_family(n))


SMALL_N = 40  # sizes at which answers are cross-checked against the full family


def check_triple(n, s, p, triple, count):
    """algorithm1's documented outcome for seed s and gap p.

    The three class representatives of s, s+1, s+p (mod the Apery base) are
    completed into (t, t+1, t+p) when all of them lie below F; when one does
    not, completion is skipped and the representatives come back as they are
    (frobinom.corepartitions.algorithm1, tests/test_corepartitions.py
    test_small_run_n6).  Either way every entry is in its target class and
    count = F - triple[2], plus one when that is not a multiple of the base;
    a count <= 0 is the documented "no admissible triple from this seed".
    """
    _, base, _, f = bn_shape(n)
    t = tuple(triple)
    if [x % base for x in t] != [s % base, (s + 1) % base, (s + p) % base]:
        return f"triple {t} is not congruent to (s, s+1, s+p) = ({s}, {s + 1}, {s + p}) mod {base}"
    diff = f - t[2]
    if count != (diff if diff % base == 0 else diff + 1):
        return f"count {count} does not follow from F - triple[2] = {diff}"
    completed = t == (t[0], t[0] + 1, t[0] + p)
    if not completed and max(t) < f:
        return f"triple {t} is neither of the shape (t, t+1, t+{p}) nor a skipped completion"
    if n <= SMALL_N:
        oracle = small_bn_oracle(n)
        if not all(oracle.contains(x) for x in t):
            return f"triple {t} has an entry outside S(B_{n})"
        reps = [oracle.ap[x % base] for x in t]
        if completed != (max(reps) < f):
            return "completion was " + ("done" if completed else "skipped") + \
                   f" with class representatives {tuple(reps)} and F = {f}"
        if not completed and list(t) != reps:
            return f"skipped completion returned {t}, not the class representatives {tuple(reps)}"
    return None


def check_algorithm1(args, result):
    return check_triple(*args, result.triple, result.count)


def check_exists(args, s):
    n, p = args
    if not isinstance(s, int) or s < 1 or s + p >= bn_shape(n)[3]:
        return f"s = {s} does not satisfy 1 <= s and s + p < F"
    return None


def check_engine(args, result):
    (gens,) = args
    generators, multiplicity, f, genus, pf, _telescopic = result
    oracle = Semigroup(gens)
    if multiplicity != oracle.m:
        return f"multiplicity {multiplicity}, expected {oracle.m}"
    if oracle.contains(f) or not all(oracle.contains(x) for x in range(f + 1, f + oracle.m + 1)):
        return f"F = {f} is not the largest gap"
    if genus != oracle.genus:
        return f"genus {genus}, expected {oracle.genus}"
    if not pf or pf[-1] != f or list(pf) != oracle.pseudo_frobenius:
        return "pseudo-Frobenius set differs"
    return None


def check_numerical_set(args, result):
    gaps, _ = args
    a_gaps, parts, hooks, pairs = result
    if list(hooks) != list(a_gaps):
        return "hook set differs from the gaps of A(S)"
    if list(a_gaps) != a_set_gaps(gaps):
        return "A(S) differs from the bitset oracle"
    if list(parts) != partition_parts(gaps):
        return "associated partition differs"
    if len(pairs) != admissible_pair_count(gaps, a_gaps):
        return "number of admissible pairs differs"
    return None


CHECKS = {
    "decompose": check_decompose,
    "algorithm1": check_algorithm1,
    "exists_admissible_bn": check_exists,
    "engine": check_engine,
    "numerical_set": check_numerical_set,
}


# --- CLI operations ------------------------------------------------------------

# Labels of the text format's "label   value" lines, longest first so that
# "apery set" wins over a shorter prefix.
TEXT_LABELS = sorted((
    "n", "factorization", "scale", "minimal generators", "embedding dimension",
    "apery base", "apery set", "frobenius", "genus", "pseudo-frobenius", "type",
    "symmetric", "telescopic", "multiplicity", "gaps", "target", "basis",
    "coefficients", "identity", "triple", "count", "partition", "hook set", "A(S)",
), key=len, reverse=True)


def _text_value(value):
    """An int, a list of ints, None for an elided list, or the text itself."""
    if value.lstrip("-").isdigit():
        return int(value)
    if value.startswith("(") and ("elements" in value or "gaps;" in value):
        return None
    if value[:1] in "[(":
        return [int(v) for v in value[1:-1].split(",") if v.strip()]
    return value


def _decoded(out, fmt):
    """The result of a CLI call with integers as ints, from either format."""
    if fmt == "json":
        def ints(node):
            if isinstance(node, list):
                return [ints(v) for v in node]
            if isinstance(node, dict):
                return {k: ints(v) for k, v in node.items()}
            if isinstance(node, str) and node.lstrip("-").isdigit():
                return int(node)
            return node
        return ints(json.loads(out)["result"])
    result = {}
    for line in out.splitlines():
        for label in TEXT_LABELS:
            if line.startswith(label + " "):
                name = label.replace(" ", "_").replace("-", "_")
                result.setdefault(name, _text_value(line[len(label):].strip()))
                break
    return result


def _report_problem(n, r):
    _, base, gens, f = bn_shape(n)
    if r["frobenius"] != f:
        return "Frobenius number differs from the closed form"
    if r["genus"] * 2 != f + 1:
        return "genus is not (F + 1) / 2"
    if r.get("minimal_generators") not in (None, gens):
        return "minimal generators differ"
    ap = r.get("apery_set")
    if ap is not None and (len(ap) != base or len({w % base for w in ap}) != base
                           or max(ap) - base != f):
        return "Apery set is not one element per class with max - base = F"
    if n <= SMALL_N:
        # The least element of the scaled family is the Apery base itself.
        oracle = small_bn_oracle(n)
        if (oracle.frobenius, oracle.genus) != (f, r["genus"]):
            return "closed forms differ from the engine on the full family"
        if ap is not None and sorted(ap) != sorted(oracle.ap):
            return "Apery set differs from the engine on the full family"
    return None


def _semigroup_problem(gens, r):
    oracle = Semigroup(gens)
    if r["frobenius"] != oracle.frobenius:
        return f"Frobenius number {r['frobenius']}, expected {oracle.frobenius}"
    if r["genus"] != oracle.genus:
        return "genus differs"
    if r.get("pseudo_frobenius") not in (None, oracle.pseudo_frobenius):
        return "pseudo-Frobenius set differs"
    return None


def _core_problem(gaps, r):
    expected = a_set_gaps(gaps)
    if r.get("hook_set") not in (None, expected):
        return "hook set differs from the gaps of A(S)"
    if r.get("a_set_gaps") not in (None, expected):
        return "A(S) differs from the bitset oracle"
    if r.get("partition") not in (None, partition_parts(gaps)):
        return "associated partition differs"
    return None


def check_cli(command, args, fmt, out):
    """Content check of a successful CLI call; None when the output is right."""
    try:
        r = _decoded(out, fmt)
        if command == "report":
            return _report_problem(args["n"], r)
        if command == "decompose":
            return decomposition_problem(args["n"], args["m"], r["coefficients"], r["basis"])
        if command == "admissible":
            return check_triple(args["n"], args["s"], args["p"], r["triple"], r["count"])
        if command == "semigroup":
            return _semigroup_problem(args["generators"], r)
        if command == "core":
            return _core_problem(args["gaps"], r)
        if command == "verify":
            ok = r["all_passed"] if fmt == "json" else "all checks passed" in out
            return None if ok is True else "verify reported mismatches"
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return f"no check for command {command!r}"
