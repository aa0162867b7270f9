"""Exact base-p arithmetic on non-negative rationals.

The objects here are the number-theoretic side of the jumping-number
machinery: exponent pairs (u, v) with p^u * (p^v - 1) * lam integral, the
finite candidate sets that small exponent pairs generate, and the p-adic
narrowing that searches them.  Everything is exact; there is no
floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InfeasibleError

__all__ = [
    "ExponentPair",
    "canonical_pair",
    "candidate_set",
    "format_rational",
    "parse_rational",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# candidate_set refuses a window with more candidate numerators than this; a
# search's final window holds at most two candidates
MAX_CANDIDATES = 1_000_000
# _narrow refuses a search of more levels than this.  Level e makes about
# log2(p) evaluations of e digit steps each; at the limit, nu of x^2 + y^3
# takes 0.6 s at p = 5 and 2.7 s at p = 103 (2-vCPU Xeon, Python 3.11),
# and the largest bound of the benchmark's queries, 28, needs 57 levels
MAX_LEVELS = 1_000
# a test-ideal evaluation refuses a depth past this, which lam alone sets
# (TestIdealComputer._evaluate), before it steps that deep.  At the limit
# tau(f^(1/p^20000)) at x^2 + y^3 takes 0.005 s at p = 2 and 0.08 s at
# p = 1009, most of it in canonical_pair's divisions (2-vCPU Xeon, Python
# 3.11), and the deepest evaluation of the benchmark's queries takes 6 steps
MAX_DIGITS = 20_000


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
    integer.
    """

    u: int
    v: int

    def __post_init__(self):
        if self.u < 0 or self.v < 1:
            raise DomainError(f"invalid exponent pair ({self.u}, {self.v})")

    def __iter__(self):
        return iter((self.u, self.v))


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


def _ceil_times(q: int, lam: Fraction) -> int:
    """ceil(q * lam) for an integer q and a Fraction lam, in integers."""
    return -((-q * lam.numerator) // lam.denominator)


def _p_valuation(n: int, p: int) -> tuple[int, int]:
    """Largest k with p^k | n (n != 0), and the cofactor n / p^k.

    One division by p, then the valuation of the rest at p^2: O(log k)
    divisions by p, p^2, p^4, ..., not k divisions by p.
    """
    if n % p:
        return 0, n
    k, n = _p_valuation(n // p, p * p)
    return (2 * k + 2, n // p) if n % p == 0 else (2 * k + 1, n)


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


def is_candidate(lam, p: int, bound: int) -> bool:
    """True iff lam is a candidate jumping number for (p, bound): 0, or the
    minimal pair (u, v) of lam has u + v <= bound.  Every pair of lam is
    (u + a, v * b), so this holds exactly when the denominator of lam divides
    some p^a * (p^b - 1) with a + b <= bound, the rule candidate_set
    enumerates."""
    require_prime(p)
    _check_bound(bound)
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
    if hi < lo:
        raise DomainError(f"window [{lo}, {hi}) is inverted: hi is below lo")
    return lo, hi


def candidate_set(p: int, bound: int, window) -> tuple[Fraction, ...]:
    """All candidate jumping numbers for (p, bound) inside [lo, hi), sorted.

    The candidates are 0 and the rationals whose denominator divides
    p^a * (p^b - 1) for some a + b <= bound.  One denominator per period b
    lists them all: c / (p^a * (p^b - 1)) = c * p^(bound-b-a) / D_b with
    D_b = p^(bound-b) * (p^b - 1), so the loop forms the bound denominators
    D_1 .. D_bound.  Reduced forms are deduped, and 0 is included when the
    window contains it.  Consecutive values differ by more than p^(-2*bound).
    Raises InfeasibleError, before any value is formed, when more than
    MAX_CANDIDATES numerators would be tried.  An empty window (lo == hi)
    forms no denominator.
    """
    require_prime(p)
    _check_bound(bound)
    lo, hi = _check_window(window)
    if lo == hi:
        return ()
    spans = []
    count = 0
    for b in range(1, bound + 1):
        den = p ** (bound - b) * (p**b - 1)
        # every c >= 1 with lo <= c/den < hi: from ceil(lo*den) up to ceil(hi*den)
        first = max(_ceil_times(den, lo), 1)
        stop = _ceil_times(den, hi)
        if first < stop:
            spans.append((den, first, stop))
            count += stop - first
            if count > MAX_CANDIDATES:
                raise InfeasibleError(
                    f"window [{lo}, {hi}) holds more than the limit of {MAX_CANDIDATES} "
                    f"candidate numerators at p = {p}, bound = {bound}"
                )
    seen = {Fraction(c, den) for den, first, stop in spans for c in range(first, stop)}
    if lo <= 0 < hi:
        seen.add(Fraction(0))
    return tuple(sorted(seen))


def candidates_left_open(p: int, bound: int, lo, hi) -> tuple[Fraction, ...]:
    """Candidates in the interval (lo, hi]; used by interval-narrowing searches."""
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    values = [x for x in candidate_set(p, bound, (lo, hi)) if x != lo]
    if hi > lo and is_candidate(hi, p, bound):
        values.append(hi)
    return tuple(values)


def _least_integer(holds, lo: int, hi: int | None = None) -> int:
    """Least n > lo with holds(n), for holds monotone, false at lo and true
    at hi if given.  With no hi, a step d doubles until holds(lo + d), probing
    lo+1, lo+2, lo+4, ...; then the last doubling is bisected."""
    if hi is None:
        d = 1
        while not holds(lo + d):
            d *= 2
        lo, hi = lo + d // 2, lo + d
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _narrow(holds, lo: int, p: int, levels: int, keep=None) -> int | None:
    """The least integer a with holds(a, levels), by p-adic narrowing; None
    when keep(a) is false at level 0's answer a.

    holds(k, e) is a monotone question at the grid point k/p^e: false at
    (lo, 0), and the same at (k, e) and (p*k, e+1).  Level 0 is
    _least_integer from lo with no upper end; level e >= 1 bisects k over
    the cell (p*(a-1), p*a] of level e-1's answer a.  A search of more than
    MAX_LEVELS levels raises InfeasibleError before any level is run.
    """
    if levels > MAX_LEVELS:
        raise InfeasibleError(
            f"a search of {levels} levels passes the limit of {MAX_LEVELS} levels"
        )
    a = _least_integer(lambda k: holds(k, 0), lo)
    if keep is not None and not keep(a):
        return None
    for e in range(1, levels + 1):
        a = _least_integer(lambda k: holds(k, e), p * (a - 1), p * a)
    return a
