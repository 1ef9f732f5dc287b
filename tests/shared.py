"""Helpers that more than one test module imports."""

import random

from frobinom.corepartitions import NumericalSet
from frobinom.semigroup import NumericalSemigroup


def semigroup_set(*gens):
    return NumericalSet(NumericalSemigroup(list(gens)).gaps())


def outcome(call, *args, **kwargs):
    """The result of the call, or the exception's type and message.  The
    engine compares by identity, so its attributes stand for it."""
    try:
        result = call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return vars(result) if isinstance(result, NumericalSemigroup) else result


class Index:
    """An integer that only `operator.index` reads: no arithmetic, no comparison."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def cases(seed, count, draw, *fixed):
    """The fixed cases, then count inputs draw(rng) from one random.Random(seed):
    the same inputs on every run, so a failure names its input and recurs."""
    yield from fixed
    rng = random.Random(seed)
    for _ in range(count):
        yield draw(rng)
