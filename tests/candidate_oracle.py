"""The pairwise candidate enumeration, kept as a reference for candidate_set.

It lists c / (p^a * (p^b - 1)) for every pair (a, b) with a + b <= bound,
one denominator per pair, so it forms bound * (bound + 1) / 2 denominators
where fptkit forms one per period b.  It shares no code with fptkit.basep.
"""

from fractions import Fraction
from math import ceil


def candidates(p, bound, lo, hi):
    """The sorted candidates for (p, bound) in [lo, hi), with 0 when the
    window holds it."""
    seen = {Fraction(0)} if lo <= 0 < hi else set()
    for a in range(bound):
        for b in range(1, bound - a + 1):
            den = p**a * (p**b - 1)
            c = max(ceil(lo * den), 1)
            while Fraction(c, den) < hi:
                seen.add(Fraction(c, den))
                c += 1
    return tuple(sorted(seen))
