"""Exact base-p arithmetic on non-negative rationals.

The objects here are the number-theoretic side of the jumping-number
machinery: truncations of non-terminating base-p expansions, exponent
pairs (u, v) with p^u * (p^v - 1) * lam integral, and the finite candidate
sets that small exponent pairs generate.  Everything is exact; there is no
floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "ExponentPair",
    "CandidateSet",
    "is_prime",
    "require_prime",
    "truncate",
    "canonical_pair",
    "is_exponent_pair",
    "is_candidate",
    "candidate_set",
    "frac_orbit",
    "equal_by_truncation",
    "format_rational",
    "parse_rational",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise DomainError(f"characteristic must be prime, got {p}")


@dataclass(frozen=True)
class ExponentPair:
    """A pair (u, v) with u >= 0 and v >= 1.

    The pair belongs to a rational lam when p^u * (p^v - 1) * lam is an
    integer; see is_exponent_pair.
    """

    u: int
    v: int

    def __post_init__(self):
        if self.u < 0 or self.v < 1:
            raise DomainError(f"invalid exponent pair ({self.u}, {self.v})")

    def __iter__(self):
        return iter((self.u, self.v))


@dataclass(frozen=True)
class CandidateSet:
    """A sorted window of the candidate jumping numbers for (p, bound).

    values holds exactly the rationals in [lo, hi) whose denominator divides
    p^a * (p^b - 1) for some a + b <= bound, together with 0 when the window
    contains it.  Consecutive values differ by more than p^(-2*bound).
    """

    prime: int
    bound: int
    window: tuple[Fraction, Fraction]
    values: tuple[Fraction, ...]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def to_json(self) -> list[str]:
        return [format_rational(v) for v in self.values]


def _as_fraction(lam) -> Fraction:
    """A Fraction or an int as a Fraction; anything else is a DomainError."""
    if isinstance(lam, Fraction):
        return lam
    if isinstance(lam, int):
        return Fraction(lam)
    raise DomainError(f"expected a rational, got {type(lam).__name__}")


def _check_bound(bound) -> None:
    """A jumping-number count bound is an int >= 1; anything else is a DomainError."""
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise DomainError(f"bound must be an integer, got {type(bound).__name__}")
    if bound < 1:
        raise DomainError("bound must be >= 1")


def format_rational(q: Fraction) -> str:
    """Wire format: "num/den" with the denominator omitted when it is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        q = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"invalid rational {text!r}: {exc}") from None
    if q < 0:
        raise DomainError(f"rational must be non-negative, got {text!r}")
    return q


def truncate(lam, e: int, p: int) -> Fraction:
    """e-th truncation of the non-terminating base-p expansion of lam.

    Equals (ceil(p^e * lam) - 1) / p^e, which is strictly below lam,
    non-decreasing in e, and within p^(-e) of lam.
    """
    require_prime(p)
    lam = _as_fraction(lam)
    if lam <= 0:
        raise DomainError("truncation requires a positive rational")
    if e < 0:
        raise DomainError("truncation index must be >= 0")
    q = p**e
    scaled = q * lam
    ceil = -((-scaled.numerator) // scaled.denominator)
    return Fraction(ceil - 1, q)


def _p_valuation(n: int, p: int) -> tuple[int, int]:
    """Largest k with p^k | n, and the cofactor n / p^k."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def _multiplicative_order(p: int, n: int) -> int:
    if n == 1:
        return 1
    x = p % n
    order = 1
    while x != 1:
        x = x * p % n
        order += 1
    return order


def canonical_pair(lam, p: int) -> ExponentPair:
    """The minimal exponent pair of lam.

    Writing lam = p^nu * m / n with p, m, n pairwise coprime, the pair is
    (max(-nu, 0), ord(p mod n)).  It generates every other pair of lam in
    the sense that the pairs of lam are exactly (u + a, v * b).
    """
    require_prime(p)
    lam = _as_fraction(lam)
    if lam <= 0:
        raise DomainError("exponent pairs are defined for positive rationals")
    u, n = _p_valuation(lam.denominator, p)
    return ExponentPair(u, _multiplicative_order(p, n))


def is_exponent_pair(lam, pair: ExponentPair, p: int) -> bool:
    """True iff p^u * (p^v - 1) * lam is an integer."""
    require_prime(p)
    lam = _as_fraction(lam)
    u, v = pair
    return (p**u * (p**v - 1) * lam).denominator == 1


def is_candidate(lam, p: int, bound: int) -> bool:
    """True iff lam is a candidate jumping number for (p, bound): 0, or the
    minimal pair (u, v) of lam has u + v <= bound.  Every pair of lam is
    (u + a, v * b), so this holds exactly when the denominator of lam divides
    some p^a * (p^b - 1) with a + b <= bound, the rule candidate_set
    enumerates."""
    lam = _as_fraction(lam)
    if lam == 0:
        return True
    pair = canonical_pair(lam, p)
    return pair.u + pair.v <= bound


def _check_window(window) -> tuple[Fraction, Fraction]:
    lo, hi = window
    if hi is None:
        raise DomainError("window must be bounded above; the full candidate set is infinite")
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    if lo < 0:
        raise DomainError("window must lie inside [0, oo)")
    return lo, hi


def candidate_set(p: int, bound: int, window) -> CandidateSet:
    """All candidate jumping numbers for (p, bound) inside [lo, hi).

    Enumerates c / (p^a * (p^b - 1)) over a + b <= bound, dedupes reduced
    forms, and includes 0 when the window contains it.
    """
    require_prime(p)
    _check_bound(bound)
    lo, hi = _check_window(window)
    seen: set[Fraction] = set()
    if lo <= 0 < hi:
        seen.add(Fraction(0))
    for a in range(bound):
        pa = p**a
        for b in range(1, bound - a + 1):
            den = pa * (p**b - 1)
            # smallest c with c/den >= lo, largest with c/den < hi
            c = -((-lo.numerator * den) // lo.denominator)
            top = hi.numerator * den
            while c * hi.denominator < top:
                if c > 0:
                    seen.add(Fraction(c, den))
                c += 1
    return CandidateSet(p, bound, (lo, hi), tuple(sorted(seen)))


def candidates_left_open(p: int, bound: int, lo, hi) -> tuple[Fraction, ...]:
    """Candidates in the interval (lo, hi]; used by interval-narrowing searches."""
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    values = [x for x in candidate_set(p, bound, (lo, hi)) if x != lo]
    if hi > lo and is_candidate(hi, p, bound):
        values.append(hi)
    return tuple(values)


def _least_integer(holds, lo: int, hi: int) -> int:
    """Least n in (lo, hi] with holds(n), for holds monotone, false at lo and
    true at hi; found by bisection."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def frac_orbit(lam, count: int, p: int) -> list[Fraction]:
    """Fractional parts of p^e * lam for e = 0 .. count-1.

    When count = u + v for the canonical pair (u, v) of lam, the entries
    are pairwise distinct.
    """
    require_prime(p)
    lam = _as_fraction(lam)
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
    lam, gam = _as_fraction(lam), _as_fraction(gam)
    if not is_exponent_pair(lam, pair_lam, p):
        raise DomainError(f"({pair_lam.u}, {pair_lam.v}) is not an exponent pair of {lam}")
    if not is_exponent_pair(gam, pair_gam, p):
        raise DomainError(f"({pair_gam.u}, {pair_gam.v}) is not an exponent pair of {gam}")
    s = pair_lam.u + pair_gam.u + pair_lam.v * pair_gam.v
    return truncate(lam, s, p) == truncate(gam, s, p)
