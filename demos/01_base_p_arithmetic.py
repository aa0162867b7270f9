#!/usr/bin/env python3
"""Tour of the exact base-p machinery that candidate jumping numbers live on."""

from fractions import Fraction
from math import ceil

from fptkit import candidate_set, canonical_pair, format_rational

p = 5
lam = Fraction(7, 12)

# Truncations: the e-th prefix of the non-terminating base-p expansion,
# (ceil(p^e * lam) - 1) / p^e.  They increase with e, stay strictly below
# lam, and converge to it.
print(f"base-{p} truncations of {lam}:")
for e in range(6):
    t = Fraction(ceil(p**e * lam) - 1, p**e)
    print(f"  e={e}:  {t}   (gap {lam - t})")

# Every positive rational has a minimal exponent pair (u, v) with
# p^u * (p^v - 1) * lam integral; all other pairs are (u+a, v*b).
pair = canonical_pair(lam, p)
print(f"\ncanonical pair of {lam}: (u, v) = ({pair.u}, {pair.v})")
print(f"  5^{pair.u} * (5^{pair.v} - 1) * {lam} =", 5**pair.u * (5**pair.v - 1) * lam)
doubled = p ** (pair.u + 1) * (p ** (2 * pair.v) - 1) * lam
print("  (u+1, 2v) also works:", doubled.denominator == 1)

# Multiplying by p and taking fractional parts walks the expansion; the
# first u+v entries are pairwise distinct.
orbit = [p**e * lam % 1 for e in range(pair.u + pair.v)]
print(f"\nfractional orbit of {lam}: {[str(x) for x in orbit]}")

# Small exponent pairs generate a finite, well-spaced candidate set.
for bound in (1, 2):
    values = candidate_set(p, bound, (Fraction(0), Fraction(1)))
    print(f"\ncandidates for bound {bound} in [0,1): {', '.join(map(format_rational, values))}")
    gaps = [b - a for a, b in zip(values, values[1:])]
    print(f"  smallest gap {min(gaps)} vs guaranteed floor 1/{p**(2*bound)}")
