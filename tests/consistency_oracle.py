"""Matching F-thresholds force matching test ideals, checked on one instance.

Kept as a reference for TestIdealComputer.f_threshold and ideal_at: it
asks both of two computers and reports whether the implication holds.
radical_member is looked up on fptkit.groebner at each call, so a test
that spies that module sees every radical check made here.
"""

from fptkit import DomainError, Ideal, Polynomial, TestIdealComputer, groebner


def threshold_ideal_consistency(f: Polynomial, g: Polynomial, lam, bound: int) -> bool:
    """Instance check: matching F-thresholds force matching test ideals.

    Computes a = tau(f^lam) and b = tau(g^lam) plus the four thresholds of
    f and g against a and b.  When both pairs of thresholds agree, the two
    ideals must coincide; the function reports whether that implication
    holds on this instance.  A threshold whose radical precondition fails
    counts as "hypotheses not met", which makes the implication vacuous.
    """
    if f.constant_term() != 0 or g.constant_term() != 0:
        raise DomainError("both polynomials must vanish at the origin")
    cf, cg = TestIdealComputer(f, bound), TestIdealComputer(g, bound)
    a, b = cf.ideal_at(lam), cg.ideal_at(lam)

    def thresholds_match(target: Ideal) -> bool:
        if target.is_unit():
            return True  # both thresholds are 0 by convention
        if not (groebner.radical_member(f, target) and groebner.radical_member(g, target)):
            return False
        return cf.f_threshold(target) == cg.f_threshold(target)

    if thresholds_match(a) and thresholds_match(b):
        return a == b
    return True
