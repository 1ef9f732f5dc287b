"""Exact arithmetic for numerical semigroups generated by binomial coefficients.

Closed-form Frobenius numbers, Apery sets, genus and pseudo-Frobenius data
for the semigroups generated by C(n,1), ..., C(n,n-1), a generic
numerical-semigroup engine to cross-check them, and the core-partition /
admissible-pair machinery built on top.
"""

from .exactmath import (
    binomial_valuation_kummer,
    binom_residue_lemma,
    factorize,
    is_prime,
    p_adic_valuation,
    sun_congruence_holds,
)
from .semigroup import AperyTable, NotANumericalSemigroup, NumericalSemigroup, minimal_generators
from .binomial import (
    BinomialSemigroupReport,
    BinomialSemigroupSpec,
    DegenerateSemigroupError,
    Representation,
    bn_apery_closed,
    bn_family,
    bn_frobenius,
    bn_report,
    bn_spec,
    decompose,
    identity_pm_check,
    identity_pq_check,
    verify_closed_vs_oracle,
)
from .corepartitions import (
    AdmissiblePairResult,
    NumericalSet,
    Partition,
    a_set,
    algorithm1,
    enumerate_admissible,
    exists_admissible_bn,
    hook_set,
    is_admissible,
    is_s_core,
    is_triple_core,
    partition_of,
)

__all__ = [
    "AdmissiblePairResult",
    "AperyTable",
    "BinomialSemigroupReport",
    "BinomialSemigroupSpec",
    "DegenerateSemigroupError",
    "NotANumericalSemigroup",
    "NumericalSemigroup",
    "NumericalSet",
    "Partition",
    "Representation",
    "a_set",
    "algorithm1",
    "binom_residue_lemma",
    "binomial_valuation_kummer",
    "bn_apery_closed",
    "bn_family",
    "bn_frobenius",
    "bn_report",
    "bn_spec",
    "decompose",
    "enumerate_admissible",
    "exists_admissible_bn",
    "factorize",
    "hook_set",
    "identity_pm_check",
    "identity_pq_check",
    "is_admissible",
    "is_prime",
    "is_s_core",
    "is_triple_core",
    "minimal_generators",
    "p_adic_valuation",
    "partition_of",
    "sun_congruence_holds",
    "verify_closed_vs_oracle",
]
