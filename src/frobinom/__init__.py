"""Exact arithmetic for numerical semigroups generated by binomial coefficients.

Closed-form Frobenius numbers, Apery sets, genus and pseudo-Frobenius data
for the semigroups generated by C(n,1), ..., C(n,n-1), a generic
numerical-semigroup engine to cross-check them, and the core-partition /
admissible-pair machinery built on top.
"""

from types import ModuleType as _ModuleType

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

# every name imported above but the submodules, which the imports bind too
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
