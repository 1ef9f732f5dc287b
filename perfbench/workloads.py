"""Seeded input streams for the three workloads.

A stream is an endless sequence of blocks.  Each block holds every stratum
of the workload's input space once (sizes drawn log-uniformly inside each
stratum) in a seeded random order, and a run executes a fixed number of
whole blocks (see `blocks_for`).  That keeps the mix of cheap and expensive
operations the same from seed to seed, and the operations the same from one
version of the program to the next, so a run's totals move with the program
and not with the draw.

The program receives only the generated inputs: nothing here imports
frobinom.
"""

import random
from collections import namedtuple
from math import exp, gcd, log

from checks import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, MAX_N, Semigroup, bn_shape, factor, is_prime

# kind: operation name; args: its arguments; expect: CLI exit code the README
# contract gives for the input (None for in-process operations).
Op = namedtuple("Op", "kind args expect")

# bn_queries pool: about 15 n from 10^3 to 1.2*10^5 in three shapes.  n = 10^6
# is inside the CLI's MAX_N but its Apery table alone would need about 14 GB,
# so it is left out of bn_queries and cli_mix for that reason only.
BN_POOL = (
    2310, 30030, 60060, 90090, 120120,   # squarefree-smooth (30030 * k)
    4000, 10000, 20000, 50000, 100000,   # large prime-power factors 2^a * 5^b
    1024, 2187, 15625, 16807, 59049,     # pure prime powers
)

# cli_mix sizes: cheap (cross-checked against an engine on the full family),
# medium, and near the CLI bound.
CLI_CHEAP = (6, 10, 12, 15, 18, 20, 21, 24, 28, 30, 36, 40, 8, 9, 16, 25, 27, 32)
CLI_MEDIUM = (2310, 4000, 10000, 15625, 30030)

PRIMES = tuple(q for q in range(50, 2000) if is_prime(q))

# Nominal seconds per block on a 2-vCPU Xeon at 2.0 GHz with Python 3.11.
# bn_queries' first block also builds every Apery table of the pool.
BLOCK_SECONDS = {"bn_queries": 7.5, "engine_core": 1.1, "cli_mix": 6.0}

DECOMPOSE_BANDS = 8   # bn_queries: equal slices of [1, n/2] for decompose's m
ENGINE_STRATA = 6     # multiplicity 200..3000 and generator spread, embedding dimension 3..7
RANDOM_SET_STRATA = 4  # non-closed gap sets, F 200..3000
CLOSED_SET_STRATA = 8  # gap sets of semigroups (A(S) = S), F 200..3000; 4 per block


def _stratum(lo, hi, stratum, strata):
    """Bounds of the stratum-th of `strata` equal slices of [lo, hi] in log scale."""
    return (lo * (hi / lo) ** (stratum / strata), lo * (hi / lo) ** ((stratum + 1) / strata))


def _log_uniform(rng, lo, hi, stratum, strata):
    a, b = _stratum(lo, hi, stratum, strata)
    return exp(rng.uniform(log(a), log(b)))


def _apery_base(n):
    return bn_shape(n)[1]


def _residue_safe_p(rng, base, top=1000):
    """p >= 2 whose triple (s, s+1, s+p) has three distinct classes mod base."""
    while True:
        p = rng.randint(2, max(2, min(top, base - 1)))
        if p % base not in (0, 1):
            return p


def _generators(rng, multiplicity, count, spread=(0.0, 1.0)):
    """`count` generators: the multiplicity plus others in (m, m + w], with w
    log-uniform in the `spread` slice of [count, m].  Close generators make
    long pseudo-Frobenius scans, so the engine workload stratifies w too."""
    a, b = (log(count) + (log(multiplicity) - log(count)) * s for s in spread)
    width = max(count, int(exp(rng.uniform(a, b))))
    while True:
        gens = [multiplicity] + rng.sample(range(multiplicity + 1, multiplicity + width + 1),
                                           count - 1)
        if gcd(*gens) == 1:
            return sorted(gens)


def _closed_gaps(rng, f_lo, f_hi):
    """Gaps of a random 3- or 4-generated semigroup with F in [f_lo, f_hi]."""
    while True:
        target = rng.uniform(f_lo, f_hi)
        m = max(5, int((target / 0.3) ** 0.5 * rng.uniform(0.7, 1.3)))
        gens = _generators(rng, m, rng.randint(3, 4))
        oracle = Semigroup(gens)
        if f_lo <= oracle.frobenius <= f_hi:
            return oracle.gaps()


def _random_gaps(rng, f):
    return [x for x in range(1, f) if rng.random() < 0.5] + [f]


def _bn_queries_block(rng, index):
    ops = []
    for i, n in enumerate(BN_POOL):
        base = _apery_base(n)
        # m from one narrow band of [1, n/2], the band turning from block to
        # block, mirrored to n - m on a coin flip: the cost of C(n, m) grows
        # with min(m, n - m), so a wide band would make it a draw of the seed.
        band = (index + i) % DECOMPOSE_BANDS
        half = n // 2
        lo = 1 + (half - 1) * band // DECOMPOSE_BANDS
        m = rng.randint(lo, max(lo, (half - 1) * (band + 1) // DECOMPOSE_BANDS))
        ops.append(Op("decompose", (n, m if rng.random() < 0.5 else n - m), None))
        ops.append(Op("algorithm1", (n, rng.randrange(base), _residue_safe_p(rng, base)), None))
        ops.append(Op("exists_admissible_bn", (n, _residue_safe_p(rng, base)), None))
    return ops


# The largest closed set with F <= 3000 has about 1.1 million admissible pairs;
# <55, 56> (F = 2969) has 1047969.  Every run starts with it, so peak_rss_mb
# measures the same largest pair list on every seed.
ANCHOR_GENERATORS = (55, 56)


def _engine_core_block(rng, index):
    ops = []
    if index == 0:
        ops.append(Op("numerical_set", (Semigroup(ANCHOR_GENERATORS).gaps(), "anchor"), None))
    spreads = list(range(ENGINE_STRATA))
    rng.shuffle(spreads)
    for j, k in enumerate(spreads):
        m = round(_log_uniform(rng, 200, 3000, j, ENGINE_STRATA))
        spread = (k / ENGINE_STRATA, (k + 1) / ENGINE_STRATA)
        ops.append(Op("engine", (_generators(rng, m, rng.randint(3, 7), spread),), None))
    for j in range(RANDOM_SET_STRATA):
        f = round(_log_uniform(rng, 200, 3000, j, RANDOM_SET_STRATA))
        ops.append(Op("numerical_set", (_random_gaps(rng, f), "random"), None))
    # Half of the closed-set strata per block, alternating, so each band is
    # narrow and two blocks cover the whole range.
    for j in range(index % 2, CLOSED_SET_STRATA, 2):
        lo, hi = _stratum(200, 3000, j, CLOSED_SET_STRATA)
        ops.append(Op("numerical_set", (_closed_gaps(rng, lo, hi), "semigroup"), None))
    return ops


def _cli(argv, expect, fmt):
    argv = [str(a) for a in argv]
    return Op("cli", tuple(argv + (["--format", "json"] if fmt == "json" else [])), expect)


def _cli_in_range(rng, n, kind, fmt):
    """A contract-valid call on composite n: the contract gives exit 0."""
    base = _apery_base(n)
    if kind == "report":
        return _cli(["report", n], EXIT_OK, fmt)
    if kind == "decompose":
        return _cli(["decompose", n, rng.randint(1, n - 1)], EXIT_OK, fmt)
    return _cli(["admissible", n, rng.randrange(base), _residue_safe_p(rng, base),
                 "--force-base"], EXIT_OK, fmt)


# Calls near the bound, one per block in this order, so that every run has the
# same ones: the first is the largest in memory (report 510510 --format json).
# C(n, m) costs more as min(m, n - m) grows, so a decompose here draws m from
# its own narrow band, mirrored at random; the three bands spread over [1, n/2].
CLI_HEAVY_CALLS = (
    ("report", 510510, "json"), ("decompose", 100000, "text", (0.08, 0.10)),
    ("admissible", 510510, "text"), ("report", 100000, "text"),
    ("decompose", 510510, "json", (0.26, 0.28)), ("admissible", 100000, "json"),
    ("report", 510510, "text"), ("decompose", 100000, "json", (0.44, 0.46)),
    ("report", 100000, "json"),
)

SEMIGROUP_STRATA = 3  # semigroup calls per block: multiplicity strata of [20, 1500]


def _cli_heavy(rng, index):
    kind, n, fmt, *band = CLI_HEAVY_CALLS[index % len(CLI_HEAVY_CALLS)]
    if kind != "decompose":
        return _cli_in_range(rng, n, kind, fmt)
    lo, hi = band[0]
    m = rng.randint(round(lo * n), round(hi * n))
    return _cli(["decompose", n, m if rng.random() < 0.5 else n - m], EXIT_OK, fmt)


def _cli_mix_block(rng, index):
    def fmt():
        return rng.choice(("text", "json"))

    def medium(k):
        # Medium sizes cost 2-3x a cheap call, so each block takes them in turn
        # rather than at random; the format alternates the same way.
        n = CLI_MEDIUM[(2 * index + k) % len(CLI_MEDIUM)]
        return n, ("text", "json")[(index + k) % 2]

    cheap = [n for n in CLI_CHEAP if _apery_base(n) >= 3]
    ops = [_cli_in_range(rng, rng.choice(CLI_CHEAP), "report", fmt()) for _ in range(3)]
    ops += [_cli_in_range(rng, rng.choice(CLI_CHEAP), "decompose", fmt()) for _ in range(2)]
    for k, kind in enumerate(("report", "report", "decompose", "decompose")):
        n, medium_fmt = medium(k)
        ops.append(_cli_in_range(rng, n, kind, medium_fmt))
    ops += [_cli_in_range(rng, rng.choice(cheap + list(CLI_MEDIUM)), "admissible", fmt())
            for _ in range(2)]
    # Prime powers without --force-base: the contract gives a domain error.
    n = rng.choice([n for n in cheap + list(CLI_MEDIUM) if len(factor(n)) == 1])
    ops.append(_cli(["admissible", n, 1, 2], EXIT_DOMAIN, fmt()))
    # Close generators make long scans, so each multiplicity stratum is paired
    # with a generator-spread stratum that turns from block to block.
    for j in range(SEMIGROUP_STRATA):
        m = round(_log_uniform(rng, 20, 1500, j, SEMIGROUP_STRATA))
        k = (j + index) % SEMIGROUP_STRATA
        spread = (k / SEMIGROUP_STRATA, (k + 1) / SEMIGROUP_STRATA)
        ops.append(_cli(["semigroup", *_generators(rng, m, rng.randint(2, 6), spread)],
                        EXIT_OK, fmt()))
    for _ in range(2):
        m = rng.randint(5, 45)
        ops.append(_cli(["core", "--semigroup", *_generators(rng, m, 3)], EXIT_OK, fmt()))
    for _ in range(2):
        ops.append(_cli(["core", "--gaps", *_random_gaps(rng, rng.randint(20, 400))],
                        EXIT_OK, fmt()))
    ops.append(_cli(["verify", "--max-n", rng.randint(20, 40)], EXIT_OK, fmt()))
    # Out of contract: prime n is a domain error, n > MAX_N a usage error.
    if rng.random() < 0.5:
        p = rng.choice(PRIMES)
        argv = ["report", p] if rng.random() < 0.5 else ["decompose", p, rng.randint(1, p - 1)]
        ops.append(_cli(argv, EXIT_DOMAIN, fmt()))
    else:
        ops.append(_cli(["report", rng.randint(MAX_N + 1, 2 * MAX_N)], EXIT_USAGE, fmt()))
    ops.append(_cli_heavy(rng, index))
    return ops


def blocks(workload, seed):
    """Endless blocks of Op for `workload`, all drawn from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        if workload == "bn_queries":
            block = _bn_queries_block(rng, index)
        elif workload == "engine_core":
            block = _engine_core_block(rng, index)
        elif workload == "cli_mix":
            block = _cli_mix_block(rng, index)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        rng.shuffle(block)
        yield block
        index += 1


WORKLOADS = tuple(BLOCK_SECONDS)


def blocks_for(workload, seconds):
    """Blocks a run of `seconds` executes: fixed by the benchmark, not timed,
    so that two versions of the program run identical operations."""
    return max(1, round(seconds / BLOCK_SECONDS[workload]))
