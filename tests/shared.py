"""Helpers that more than one test module imports."""

from frobinom.corepartitions import NumericalSet
from frobinom.semigroup import NumericalSemigroup


def semigroup_set(*gens):
    return NumericalSet(NumericalSemigroup(list(gens)).gaps())


class Index:
    """An integer that only `operator.index` reads: no arithmetic, no comparison."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value
