"""Truncations of base-p expansions and the lemmas about them, kept as
references for the evaluation formulas of fptkit.testideal.

The s-th truncation of lam is (ceil(p^s * lam) - 1) / p^s, the left end of
the gap that TestIdealComputer.left_limit_at evaluates.  The pair check,
the fractional orbit and the comparison of two rationals by one truncation
are the base-p lemmas that candidate jumping numbers rest on.  Only the
prime check and ExponentPair come from fptkit.
"""

from fractions import Fraction
from math import ceil

from fptkit import DomainError, ExponentPair
from fptkit.basep import require_prime


def truncate(lam, e: int, p: int) -> Fraction:
    """e-th truncation of the non-terminating base-p expansion of lam.

    Equals (ceil(p^e * lam) - 1) / p^e, which is strictly below lam,
    non-decreasing in e, and within p^(-e) of lam.
    """
    require_prime(p)
    lam = Fraction(lam)
    if lam <= 0:
        raise DomainError("truncation requires a positive rational")
    if e < 0:
        raise DomainError("truncation index must be >= 0")
    q = p**e
    return Fraction(ceil(q * lam) - 1, q)


def is_exponent_pair(lam, pair: ExponentPair, p: int) -> bool:
    """True iff p^u * (p^v - 1) * lam is an integer."""
    require_prime(p)
    u, v = pair
    return (p**u * (p**v - 1) * Fraction(lam)).denominator == 1


def frac_orbit(lam, count: int, p: int) -> list[Fraction]:
    """Fractional parts of p^e * lam for e = 0 .. count-1.

    When count = u + v for the canonical pair (u, v) of lam, the entries
    are pairwise distinct.
    """
    require_prime(p)
    lam = Fraction(lam)
    if count < 1:
        raise DomainError("count must be >= 1")
    out = []
    x = lam
    for _ in range(count):
        x -= x.numerator // x.denominator
        out.append(x)
        x *= p
    return out


def equal_by_truncation(lam, gam, pair_lam: ExponentPair, pair_gam: ExponentPair, p: int) -> bool:
    """Decide lam == gam by comparing truncations at index u + a + v*b.

    pair_lam = (u, v) must belong to lam and pair_gam = (a, b) to gam;
    agreement of the truncations at that single index already forces the
    two rationals to be equal.
    """
    lam, gam = Fraction(lam), Fraction(gam)
    if not is_exponent_pair(lam, pair_lam, p):
        raise DomainError(f"({pair_lam.u}, {pair_lam.v}) is not an exponent pair of {lam}")
    if not is_exponent_pair(gam, pair_gam, p):
        raise DomainError(f"({pair_gam.u}, {pair_gam.v}) is not an exponent pair of {gam}")
    s = pair_lam.u + pair_gam.u + pair_lam.v * pair_gam.v
    return truncate(lam, s, p) == truncate(gam, s, p)
