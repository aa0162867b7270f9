#!/usr/bin/env python3
"""F-thresholds: the nu invariants, thresholds against ideals, and fast fpt."""

from fractions import Fraction

from fptkit import (
    FrobeniusRootEngine,
    Ideal,
    PolyRing,
    TestIdealComputer,
    maximal_ideal,
    parse_polynomial,
)

ring = PolyRing(7, ["x", "y"])
f = parse_polynomial("x^2 + y^3", ring)
m = maximal_ideal(ring)

# nu(f, m, e), asked of f's root engine, is the largest N with f^N outside (x^{7^e}, y^{7^e}).
# The ratios nu/7^e squeeze the F-pure threshold from below.
print(f"f = {f}  over F_7")
engine = FrobeniusRootEngine(f)
for e in range(1, 5):
    v = engine.nu(m, e)
    print(f"  e={e}:  nu = {v:>4}   nu/7^e = {Fraction(v, 7**e)}  ~ {v / 7**e:.6f}")

c = TestIdealComputer(f)
value = c.fpt()
print(f"F-pure threshold (exact): {value}")

# Thresholds against other ideals pick out the other jumping numbers:
# ft(f | b) is the first parameter whose test ideal lands inside b.
x, y = ring.gens()
targets = [
    ("m", m),
    ("(x, y^2)", Ideal(ring, (x, y * y))),
    ("(f) * m", Ideal(ring, (f * x, f * y))),
]
for name, b in targets:
    print(f"  ft(f | {name}) = {c.f_threshold(b, cap=Fraction(4))}")

# fpt is the least lam with tau(f^lam) inside m; monotonicity of the test
# ideal lets a p-adic bisection isolate it as the unique candidate in a
# tiny interval.
g = parse_polynomial("x^4 + y^3 + x^2*y^2", PolyRing(5, ["x", "y"]))
print(f"\nfpt({g}) over F_5 = {TestIdealComputer(g).fpt()}")
