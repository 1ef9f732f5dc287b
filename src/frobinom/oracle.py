"""The cross-check of the closed forms against the generic engine.

The engine in `semigroup` runs on the whole generating family of S(B_n),
`bn_family(n)`, built from Pascal's rule, and `verify_closed_vs_oracle`
compares every closed form of `binomial` with the engine's answer.  Below
the CLI, this is the only module that imports both: the closed forms and the
engine share no code, so the engine is what keeps the closed forms honest.  `engine_cost(n)`
is the size of that engine run, its multiplicity times its distinct
generators, which the CLI sums against its engine budget before any run.

The closed forms are read through the module (`bn.bn_report`), so a test
that patches `binomial` reaches the comparison.
"""

from collections import namedtuple
from math import gcd
from operator import index

from . import binomial as bn
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
    compared with the engine's own table, at its multiplicity n/gcd, which
    is the closed base when the closed forms are right; a wrong closed base
    fails the `minimal_generators` row.  n is read off the report, so as
    `bn_spec` reads it.  n = 30030 takes about 0.47 s and 61 MB peak RSS."""
    report = bn.bn_report(n)
    n = report.n
    engine = NumericalSemigroup(bn_family(n))
    pseudo_frobenius = tuple(engine.pseudo_frobenius())
    fields = {
        "minimal_generators": (report.minimal_generators, engine.generators),
        "embedding_dimension": (report.embedding_dimension, len(engine.generators)),
        "apery_set": (bn.bn_apery_closed(n)[1], tuple(sorted(engine.apery.entries))),
        "frobenius": (report.frobenius, engine.frobenius()),
        "genus": (report.genus, engine.genus()),
        "pseudo_frobenius": (report.pseudo_frobenius, pseudo_frobenius),
        "type": (report.type, len(pseudo_frobenius)),
        "symmetric": (report.symmetric, engine.is_symmetric()),
        "telescopic": (report.telescopic, engine.is_telescopic()),
    }
    return OracleComparison(n, fields)
