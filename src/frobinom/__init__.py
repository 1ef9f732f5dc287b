"""Exact arithmetic for numerical semigroups generated by binomial coefficients.

Closed-form Frobenius numbers, Apery sets, genus and pseudo-Frobenius data
for the semigroups generated by C(n,1), ..., C(n,n-1), a generic
numerical-semigroup engine to cross-check them, and the core-partition /
admissible-pair machinery built on top.

`import frobinom` loads none of the package's modules.  `_HOME` below
names the module that defines each public name, and the first read of a
name (`frobinom.decompose`, or `from frobinom import decompose`) imports
that module and keeps the value here (PEP 562), so a caller pays only for
the modules it uses: `decompose` loads `binomial` and the `exactmath` it
imports, `NumericalSemigroup` the engine alone.  The five library modules
are reached the same way, as `frobinom.exactmath` and so on;
`frobinom.binomial` is the closed-form module, and the binomial function
is `frobinom.exactmath.binomial`.  The CLI loads only as
`import frobinom.cli`.
"""

import sys as _sys

# each public name, grouped by the module that defines it
_HOME = {
    **dict.fromkeys((
        "binomial_valuation_kummer",
        "binom_residue_lemma",
        "factorize",
        "is_prime",
        "p_adic_valuation",
        "sun_congruence_holds",
    ), "exactmath"),
    **dict.fromkeys(("AperyTable", "NotANumericalSemigroup", "NumericalSemigroup",
                     "minimal_generators"), "semigroup"),
    **dict.fromkeys((
        "AdmissiblePairResult",
        "BinomialSemigroupReport",
        "BinomialSemigroupSpec",
        "DegenerateSemigroupError",
        "Representation",
        "algorithm1",
        "bn_apery_closed",
        "bn_report",
        "bn_spec",
        "decompose",
        "exists_admissible_bn",
        "identity_pm_check",
        "identity_pq_check",
    ), "binomial"),
    **dict.fromkeys(("bn_family", "verify_closed_vs_oracle"), "oracle"),
    **dict.fromkeys((
        "NumericalSet",
        "Partition",
        "a_set",
        "enumerate_admissible",
        "hook_set",
        "is_admissible",
        "is_s_core",
        "is_triple_core",
        "partition_of",
    ), "corepartitions"),
}

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name or a library module, imported on its first read."""
    home = _HOME.get(name, name)
    if home not in _HOME.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own machinery, unlike importlib's, is what
    # `python -X importtime` times
    __import__(f"{__name__}.{home}")
    module = _sys.modules[f"{__name__}.{home}"]
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
