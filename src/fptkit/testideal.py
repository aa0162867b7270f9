"""Test ideals, F-jumping numbers, F-pure thresholds, and F-thresholds.

The workhorse identity: given a valid bound B on the number of jumping
numbers in [0,1) and the canonical pair (u, v) of a positive rational lam,
the interval between the s-th truncation of lam and truncation + p^(-s)
contains no jumping number for s = u + v*B.  Hence

    tau(f^lam)   = root_s(f^ceil(p^s * lam))        (right end of the gap)
    left limit   = root_s(f^(ceil(p^s * lam) - 1))  (left end of the gap)

with root_s evaluated by the digit recursion in froot, so the astronomical
exponent ceil(p^s * lam) is never expanded.  This one formula serves every
lam > 0, including lam >= 1: the engine's final carry multiplies by
f^(N div p^s), which is Skoda's identity tau(f^(lam+1)) = f * tau(f^lam).
An integer lam has tau(f^lam) = (f^lam), the formula at s = 0.

Every search here (the next jumping number, the fpt, an F-threshold) asks
for the least lam where a monotone predicate of the descending family
tau(f^lam) turns true.  least_parameter answers that by p-adic bisection:
the answer is a jumping number, hence a candidate, and candidates lie more
than p^(-2B) apart, so only a window holding a single candidate is ever
enumerated.

TestIdealComputer is the one context a query builds: it holds f, the
checked bound and the root engine, and every question of the query (ideal_at,
left_limit_at, is_jump, fpt, f_threshold) is one of its methods.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, floor

from .basep import _as_fraction, _check_bound, candidates_left_open, canonical_pair, format_rational
from .errors import DomainError, InfeasibleError, NotMPrimaryError
from .froot import FrobeniusRootEngine
from .groebner import Ideal, artinian_length, jacobian
from .poly import Polynomial

__all__ = [
    "TestIdealResult",
    "JumpingNumberReport",
    "TestIdealComputer",
    "stabilization_exponent",
    "least_parameter",
    "jumping_numbers_unit_interval",
    "nu",
    "degree_bound",
    "default_bound",
]


def stabilization_exponent(lam, bound: int, p: int) -> int:
    """s = u + v * bound for the canonical pair (u, v) of lam."""
    _check_bound(bound)
    pair = canonical_pair(_as_fraction(lam), p)
    return pair.u + pair.v * bound


@dataclass(frozen=True)
class TestIdealResult:
    __test__ = False  # a result type, not a pytest test class

    lam: Fraction
    ideal: Ideal
    stabilization_exponent: int


@dataclass(frozen=True)
class JumpingNumberReport:
    """Jumping numbers in [0, 1) with their test ideals.

    jumping_numbers and test_ideals run in parallel, starting at 0 with the
    unit ideal; the ideals strictly descend.  fpt is the least positive
    jumping number whose test ideal is proper at the origin (contained in
    the maximal ideal m), or 1 when no test ideal on (0, 1) drops into m.
    When f has extra singular points away from the origin that value can
    sit above the first global drop of the ideal family; the origin-local
    number is the one the nu invariants bracket.

    computer is the TestIdealComputer the walk ran on, and poly and bound are
    read through it; candidate_count counts the walk's own evaluations.
    """

    jumping_numbers: tuple[Fraction, ...]
    test_ideals: tuple[Ideal, ...]
    fpt: Fraction
    candidate_count: int
    elapsed: float
    computer: TestIdealComputer = field(compare=False, repr=False)

    @property
    def poly(self) -> Polynomial:
        return self.computer.f

    @property
    def bound(self) -> int:
        return self.computer.bound

    def to_json(self) -> dict:
        return {
            "prime": self.poly.ring.prime,
            "poly": str(self.poly),
            "bound": self.bound,
            "fpt": format_rational(self.fpt),
            "jumpingNumbers": [format_rational(x) for x in self.jumping_numbers],
            "testIdeals": [ideal.to_json() for ideal in self.test_ideals],
            "candidateCount": self.candidate_count,
            "elapsedMs": int(self.elapsed * 1000),
        }


class TestIdealComputer:
    """Shared evaluation context: one polynomial, one bound, one root engine.

    The one place that checks f and resolves the bound: f must be nonzero,
    a bound of None means default_bound(f), and any other bound must be an
    int >= 1.  Every
    evaluation is root_s(f^N) through the engine, whose final carry folds
    parameters >= 1 (Skoda).  evaluations counts the ideal_at calls made
    through this computer.  The searches (is_jump, fpt, f_threshold) are
    methods, so all questions asked of one computer share its engine.
    """

    __test__ = False  # a computation, not a pytest test class

    def __init__(self, f: Polynomial, bound: int | None = None):
        if f.is_zero():
            raise DomainError("test ideals of the zero polynomial are undefined")
        if bound is None:
            bound = default_bound(f)
        _check_bound(bound)
        self.f = f
        self.bound = bound
        self.p = f.ring.prime
        self.engine = FrobeniusRootEngine(f)
        self.evaluations = 0

    def _exponent(self, lam: Fraction) -> tuple[int, int]:
        """(s, N) with N = ceil(p^s * lam) for the stabilized evaluation."""
        s = stabilization_exponent(lam, self.bound, self.p)
        N = -((-(self.p**s) * lam.numerator) // lam.denominator)
        return s, N

    def ideal_at(self, lam) -> TestIdealResult:
        """tau(f^lam), exact, for any rational lam >= 0."""
        lam = _as_fraction(lam)
        if lam < 0:
            raise DomainError("test ideal parameters must be >= 0")
        self.evaluations += 1
        if lam.denominator == 1:
            s, N = 0, lam.numerator
        else:
            s, N = self._exponent(lam)
        return TestIdealResult(lam, self.engine.root_power(N, s), s)

    def left_limit_at(self, lam) -> Ideal:
        """The stable intersection of tau(f^(lam - eps)) over small eps > 0."""
        lam = _as_fraction(lam)
        if lam <= 0:
            raise DomainError("left limits require a positive parameter")
        s, N = self._exponent(lam)
        return self.engine.root_power(N - 1, s)

    def is_jump(self, lam) -> bool:
        """True iff the test ideal jumps at lam; lam must be a (p, bound) candidate."""
        lam = _as_fraction(lam)
        if lam <= 0:
            raise DomainError("jumping-number tests require a positive parameter")
        pair = canonical_pair(lam, self.p)
        if pair.u + pair.v > self.bound:
            raise DomainError(
                f"{lam} is not a candidate for bound {self.bound}: its minimal pair "
                f"({pair.u}, {pair.v}) exceeds the bound"
            )
        return self.left_limit_at(lam) != self.ideal_at(lam).ideal

    def fpt(self) -> Fraction:
        """The F-pure threshold of f at the origin (f in m, f != 0).

        The least lam with tau(f^lam) inside m, found by least_parameter; the
        search ends by lam = 1 because tau(f^1) = (f) lies in m.
        """
        if self.f.constant_term() != 0:
            raise DomainError("fpt requires a polynomial vanishing at the origin")
        return least_parameter(self, _inside_m, 0, 1)

    def f_threshold(self, b: Ideal, cap=None) -> Fraction:
        """Least parameter lam with tau(f^lam) contained in b.

        Searches the windows (k, k+1] in turn for k = 0, 1, ... up to the cap.
        A window is searched only when the predicate failed at its left end k:
        at k = 0 because b is proper, later because the previous window came
        back empty.  Requires f in sqrt(b) for termination below the cap.
        """
        if self.f.ring != b.ring:
            raise DomainError("polynomial/ideal ring mismatch")
        if b.is_unit():
            return Fraction(0)
        cap = Fraction(self.f.ring.dimension) if cap is None else _as_fraction(cap)
        for k in range(floor(cap) + 1):
            lam = least_parameter(self, b.contains_ideal, k, k + 1)
            if lam is not None:
                if lam <= cap:
                    return lam
                break
        raise InfeasibleError(
            f"no parameter at or below the cap {format_rational(cap)} "
            "drops the test ideal into b"
        )


def _inside_m(ideal: Ideal) -> bool:
    """Containment in the maximal ideal at the origin, i.e. properness there."""
    return all(g.constant_term() == 0 for g in ideal.basis())


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


def least_parameter(computer: TestIdealComputer, predicate, lo, hi) -> Fraction | None:
    """Least lam in (lo, hi] with predicate(tau(f^lam)), or None when the
    predicate is false at hi.

    The predicate must be monotone along the descending family: false at
    lo, and once true for some lam, true for every larger one.  The window
    may be at most 1 wide.  The least lam is a jumping number, so it is a
    candidate for the computer's bound B, and candidates lie more than
    p^(-2B) apart: 2B+1 levels of p-adic narrowing, each a bisection over
    the p sub-intervals, leave a window that holds it as its only candidate.
    """
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    if not 0 <= lo < hi <= lo + 1:
        raise DomainError(f"search window ({lo}, {hi}] must lie in [0, oo) and be at most 1 wide")

    def holds(lam: Fraction) -> bool:
        return predicate(computer.ideal_at(lam).ideal)

    if not holds(hi):
        return None
    p, bound = computer.p, computer.bound
    for _ in range(2 * bound + 1):
        step = (hi - lo) / p
        # the predicate is false at j = 0 and true at j = p
        j = _least_integer(lambda j: holds(lo + j * step), 0, p)
        lo, hi = lo + (j - 1) * step, lo + j * step
    cands = candidates_left_open(p, bound, lo, hi)
    if len(cands) != 1:
        raise DomainError(
            f"expected exactly one candidate in ({lo}, {hi}], found {len(cands)}; "
            "the supplied bound is too small for f"
        )
    value = cands[0]
    if not holds(value):
        raise DomainError(
            "the isolated candidate fails the search predicate; the supplied bound "
            "is too small for f"
        )
    return value


def jumping_numbers_unit_interval(f: Polynomial, bound: int) -> JumpingNumberReport:
    """The jumping numbers in [0, 1) and their test ideals, jump by jump.

    The jump after lam_i is the least lam in (lam_i, 1] whose test ideal
    differs from tau(f^lam_i); the walk ends when that lam is 1.
    candidate_count holds the number of test-ideal evaluations made.
    """
    if f.constant_term() != 0:
        raise DomainError("the polynomial must vanish at the origin")
    start = time.perf_counter()
    computer = TestIdealComputer(f, bound)
    jumps = [Fraction(0)]
    ideals = [Ideal.unit(f.ring)]
    while True:
        current = ideals[-1]
        lam = least_parameter(computer, lambda ideal: ideal != current, jumps[-1], 1)
        if lam is None or lam == 1:
            break
        jumps.append(lam)
        ideals.append(computer.ideal_at(lam).ideal)
    fpt_value = Fraction(1)
    for lam, ideal in zip(jumps[1:], ideals[1:]):
        if _inside_m(ideal):
            fpt_value = lam
            break
    elapsed = time.perf_counter() - start
    return JumpingNumberReport(
        jumping_numbers=tuple(jumps),
        test_ideals=tuple(ideals),
        fpt=fpt_value,
        candidate_count=computer.evaluations,
        elapsed=elapsed,
        computer=computer,
    )


def nu(f: Polynomial, b: Ideal, e: int) -> int:
    """Largest N with f^N outside b^[p^e]; 0 when already f in b^[p^e].

    Membership is decided through the root engine: f^N lies in b^[p^e]
    exactly when root_e(f^N) is contained in b, so no large power of f is
    ever expanded.  The search doubles then bisects, guarded by a cap.
    """
    if e < 0:
        raise DomainError("nu requires e >= 0")
    if f.ring != b.ring:
        raise DomainError("polynomial/ideal ring mismatch")
    if b.is_unit():
        raise DomainError("nu is undefined for the unit ideal")
    engine = FrobeniusRootEngine(f)

    def member(n: int) -> bool:
        return b.contains_ideal(engine.root_power(n, e))

    cap = f.ring.prime**e * (1 + sum(g.total_degree() for g in b.generators))
    if member(1):
        return 0
    lo = 1
    hi = 2
    while not member(hi):
        lo = hi
        hi *= 2
        if hi > cap:
            raise DomainError(
                f"no power of f entered the bracket ideal below the cap {cap}; "
                "is f in the radical of b?"
            )
    return _least_integer(member, lo, hi) - 1


def degree_bound(f: Polynomial) -> int:
    """Jumping-number count bound from generation in bounded degree."""
    n = f.ring.dimension
    return comb(n + f.total_degree(), n)


def _isolated_length(jac: Ideal) -> int | None:
    """Length of R/jac when the Jacobian ideal jac is proper and primary to
    the origin, i.e. when f has an isolated singularity there; else None."""
    try:
        ell = artinian_length(jac)
    except NotMPrimaryError:
        return None
    return ell if ell >= 1 else None


def default_bound(f: Polynomial) -> int:
    """The smaller of the degree bound and (when defined) the length bound."""
    b = degree_bound(f)
    ell = _isolated_length(jacobian(f))
    if ell is not None and ell < b:
        return ell
    return b

