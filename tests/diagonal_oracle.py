"""A closed form for the F-pure threshold of a diagonal x^a + y^b.

Hernandez, "F-invariants of diagonal hypersurfaces" (2015): for p dividing
neither a nor b, let L be the number of leading base-p digits of 1/a and 1/b
that add without a carry.  With no carry at all, fpt = 1/a + 1/b; otherwise
fpt = <1/a>_L + <1/b>_L + p^(-L), where <.>_L truncates to L digits.  Only
long division in base p is used, nothing of fptkit.
"""

from fractions import Fraction


def diagonal_fpt(a: int, b: int, p: int) -> Fraction:
    """fpt(x^a + y^b) at the origin over F_p, for a, b >= 2 prime to p."""
    if a < 2 or b < 2 or a % p == 0 or b % p == 0:
        raise ValueError("need a, b >= 2, both prime to p")
    ra, rb = 1, 1  # remainders of the long divisions 1/a and 1/b
    truncated = Fraction(0)
    seen = set()
    scale = Fraction(1)
    while (ra, rb) not in seen:
        seen.add((ra, rb))
        scale /= p
        da, ra = divmod(ra * p, a)
        db, rb = divmod(rb * p, b)
        if da + db >= p:
            return truncated + scale * p
        truncated += (da + db) * scale
    # the digit pairs repeat without ever carrying
    return Fraction(1, a) + Fraction(1, b)
