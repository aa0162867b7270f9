"""The Fraction narrowing, kept as a reference for least_parameter.

It cuts a window wider than 1 to the unit step that holds the answer, then
splits (lo, hi] into p equal parts at each of 2B+1 levels and evaluates
computer.ideal_at at every split point it bisects to, in Fraction
arithmetic, whether or not the point lies on the p-adic grid.  It lists
the candidates of the last window with candidate_oracle, so it shares no
code with fptkit.testideal or fptkit.basep.
"""

from fractions import Fraction
from math import ceil

import candidate_oracle


def _least_integer(holds, lo, hi):
    """Least n in (lo, hi] with holds(n), for holds false at lo and true at hi."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def least_parameter(computer, predicate, lo, hi):
    """Least lam in (lo, hi] with predicate(computer.ideal_at(lam)), or None
    when the predicate is false at hi; ValueError when the last window does
    not isolate one candidate that passes the predicate."""
    lo, hi = Fraction(lo), Fraction(hi)

    def holds(lam):
        return predicate(computer.ideal_at(lam))

    if not holds(hi):
        return None
    if hi - lo > 1:
        n = _least_integer(lambda n: holds(lo + n), 0, ceil(hi - lo))
        lo, hi = lo + n - 1, min(lo + n, hi)
    p, bound = computer.p, computer.bound
    for _ in range(2 * bound + 1):
        step = (hi - lo) / p
        j = _least_integer(lambda j: holds(lo + j * step), 0, p)
        lo, hi = lo + (j - 1) * step, lo + j * step
    # candidate_oracle lists a half-open [lo, hi); widen it past hi so that
    # hi itself is listed, then keep (lo, hi]
    beyond = hi + Fraction(1, p ** (2 * bound + 1))
    cands = [x for x in candidate_oracle.candidates(p, bound, lo, beyond) if lo < x <= hi]
    if len(cands) != 1 or not holds(cands[0]):
        raise ValueError(f"no single passing candidate in ({lo}, {hi}]")
    return cands[0]
