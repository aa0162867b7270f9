#!/usr/bin/env python3
"""Full jumping-number computation for x^4 + y^3 + x^2*y^2 over F_5.

The same computation is available from the command line:

    fptkit jn --char 5 --vars x,y "x^4 + y^3 + x^2*y^2"
"""

from fractions import Fraction

from fptkit import (
    PolyRing,
    jacobian,
    jumping_numbers_unit_interval,
    parse_polynomial,
    singularity_profile,
)

ring = PolyRing(5, ["x", "y"])
f = parse_polynomial("x^4 + y^3 + x^2*y^2", ring)

# The Jacobian ideal is primary to the origin, so the quotient length
# bounds how many jumping numbers can appear in [0, 1).
profile = singularity_profile(f)
print(f"f = {f}  over F_5")
print(f"Jac(f) = {jacobian(f)}")
print(f"length of R/Jac(f) = {profile.ell}  ->  search with bound B = {profile.ell}")

# A jumping number is a parameter where the test ideal drops.  Each next
# one is the least parameter whose test ideal differs from the current one,
# found by p-adic bisection rather than by trying every candidate.
report = jumping_numbers_unit_interval(f, profile.ell)
print(f"\n{report.candidate_count} ideal evaluations in {report.elapsed:.2f}s")
print("parameter  ->  test ideal")
for lam, ideal in zip(report.jumping_numbers, report.test_ideals):
    print(f"  {str(lam):>6}  ->  {ideal}")
print(f"F-pure threshold: {report.fpt}")

# At a jumping number, the left limit of the family differs from the value.
# The walk's computer answers further questions from the same root engine.
c = report.computer
for lam in (Fraction(7, 12), Fraction(4, 5)):
    left = c.left_limit_at(lam)
    at = c.ideal_at(lam).ideal
    print(f"\nat {lam}: left limit {left}  vs  value {at}")

# The huge Frobenius powers behind these answers are never expanded: the
# evaluation at 7/12 works with f^142415365 through 12 digit steps.
res = c.ideal_at(Fraction(7, 12))
n = -((-(5**res.stabilization_exponent) * 7) // 12)
print(f"\nstabilization exponent s = {res.stabilization_exponent}, so tau comes from f^{n}")
