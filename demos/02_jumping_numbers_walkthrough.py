#!/usr/bin/env python3
"""Full jumping-number computation for x^4 + y^3 + x^2*y^2 over F_5.

The same computation is available from the command line:

    fptkit jn --char 5 --vars x,y "x^4 + y^3 + x^2*y^2"
"""

from fractions import Fraction

from fptkit import (
    PolyRing,
    canonical_pair,
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
    at = c.ideal_at(lam)
    print(f"\nat {lam}: left limit {left}  vs  value {at}")

# Every evaluation is a grid point n/5^s, tau = root_s(f^n).  At the depth
# s = u + v*B, (u, v) the canonical pair of lam, which a valid bound B makes
# deep enough, n = ceil(5^s * lam) gives tau(f^lam); ideal_at itself reads a
# depth off the digits of lam alone.  The huge power behind 7/12,
# f^142415365, is never expanded: it takes 12 digit steps.
lam = Fraction(7, 12)
u, v = canonical_pair(lam, 5)
s = u + v * c.bound
n = -((-(5**s) * lam.numerator) // lam.denominator)
assert c.grid_ideal(n, s) == c.ideal_at(lam)
print(f"\nat depth s = {s}, tau(f^{lam}) = root_{s}(f^{n})")
