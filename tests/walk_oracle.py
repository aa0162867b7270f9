"""The exhaustive jumping-number walk, kept as a reference for the searches.

It evaluates the test ideal at every candidate in [0, 1) for (p, bound), in
ascending order, and records each parameter where the ideal drops.  It
shares the evaluation (TestIdealComputer) with fptkit but none of the search
logic, so agreement checks least_parameter and everything built on it.
"""

from fractions import Fraction

from fptkit import Ideal, candidate_set
from fptkit.testideal import TestIdealComputer


def walk(f, bound):
    """(jumping numbers, test ideals, fpt) of f in [0, 1), by brute force.

    The fpt is the first jump whose ideal lies in the maximal ideal, or 1.
    """
    computer = TestIdealComputer(f, bound)
    jumps = [Fraction(0)]
    ideals = [Ideal(f.ring, (f.ring.one(),))]
    for lam in candidate_set(f.ring.prime, bound, (Fraction(0), Fraction(1)))[1:]:
        cur = computer.ideal_at(lam)
        if cur != ideals[-1]:
            jumps.append(lam)
            ideals.append(cur)
    fpt = next(
        (lam for lam, ideal in zip(jumps[1:], ideals[1:])
         if all(g.constant_term() == 0 for g in ideal.basis())),
        Fraction(1),
    )
    return tuple(jumps), tuple(ideals), fpt
