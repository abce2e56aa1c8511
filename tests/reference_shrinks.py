"""The recursive term shrinker that `harness._term_shrinks` replaced.

Kept here as the oracle the explicit-stack walk is checked against: it
must give the same candidates in the same order, so that `minimize` makes
the same predicate calls.  It recurses one generator level per loop level,
so a nest about 1,000 deep raises RecursionError.
"""

from scorelang import For, Seq, Skip
from scorelang.syntax import _sequence


def term_shrinks(term):
    if type(term) is Seq:
        half = len(term.parts) // 2
        left, right = _sequence(term.parts[:half]), _sequence(term.parts[half:])
        yield left
        yield right
        for smaller in term_shrinks(left):
            yield Seq(smaller, right)
        for smaller in term_shrinks(right):
            yield Seq(left, smaller)
    elif type(term) is For:
        yield term.body
        for smaller in term_shrinks(term.body):
            yield For(term.leader, smaller)
    elif type(term) is not Skip:
        yield Skip()
