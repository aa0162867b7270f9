"""A closed form for the F-pure threshold of a diagonal x_1^a_1 + ... + x_n^a_n.

Hernandez, "F-invariants of diagonal hypersurfaces" (Proc. AMS, 2015): for
p dividing no a_i, add the base-p digits of 1/a_1, ..., 1/a_n position by
position, and let L be the number of leading positions whose digit sum
stays below p.  With no carry at all, fpt = 1/a_1 + ... + 1/a_n (never
above 1, as every digit sum is at most p - 1); otherwise
fpt = <1/a_1>_L + ... + <1/a_n>_L + p^(-L), where <.>_L truncates to L
digits.  The hypotheses are recalled, not checked against the paper: p
prime to every a_i, each a_i >= 2, and the threshold taken at the origin.
Only long division in base p is used, nothing of fptkit.
"""

from fractions import Fraction


def diagonal_hypersurface_fpt(exponents, p: int) -> Fraction:
    """fpt(x_1^a_1 + ... + x_n^a_n) at the origin over F_p, for every
    a_i >= 2 prime to p."""
    exponents = tuple(exponents)
    if not exponents or any(a < 2 or a % p == 0 for a in exponents):
        raise ValueError("need exponents a_i >= 2, each prime to p")
    remainders = (1,) * len(exponents)  # of the long divisions 1/a_i
    truncated = Fraction(0)
    seen = set()
    scale = Fraction(1)
    while remainders not in seen:
        seen.add(remainders)
        scale /= p
        steps = [divmod(r * p, a) for r, a in zip(remainders, exponents)]
        digits = sum(d for d, _ in steps)
        if digits >= p:
            return truncated + scale * p
        truncated += digits * scale
        remainders = tuple(r for _, r in steps)
    # the digit columns repeat without ever carrying
    return sum(Fraction(1, a) for a in exponents)


def diagonal_fpt(a: int, b: int, p: int) -> Fraction:
    """fpt(x^a + y^b) at the origin over F_p, for a, b >= 2 prime to p."""
    return diagonal_hypersurface_fpt((a, b), p)
