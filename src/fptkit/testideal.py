"""Test ideals, F-jumping numbers, F-pure thresholds, and F-thresholds.

Every test ideal is read off the p-adic grid, where no bound is needed:

    tau(f^(k/p^e)) = root_e(f^k)                (Blickle-Mustata-Smith)

with root_e evaluated by the digit recursion in froot, so the exponent k
is never expanded.  The engine's final carry multiplies by f^(k div p^e),
which is Skoda's identity tau(f^(lam+1)) = f * tau(f^lam).  Any rational
lam >= 0 is a grid point from some depth on: tau(f^lam) is
root_s(f^ceil(p^s * lam)) and its left limit root_s(f^(ceil(p^s * lam) - 1))
for every large enough s = u + v*n, (u, v) the canonical pair of lam, and
TestIdealComputer._evaluate finds such an n from the digits of lam alone.
So every evaluation is one grid_ideal(k, e) call, and none reads the
bound B.  Every search here (the next
jumping number, the fpt, an F-threshold) asks for the least lam where a
monotone predicate of the descending family tau(f^lam) turns true.
least_parameter answers that by p-adic bisection over grid points k/p^e:
the answer is a jumping number, hence a candidate, and candidates lie
more than p^(-2B) apart, so only a cell holding a single candidate is
ever enumerated.  B caps the search's levels and nothing else: the
certificate TestIdealComputer.certified proves that candidate the answer,
exactly at every B, or refutes it.  A search first tries its guess, if
given one, with the same certificate.

TestIdealComputer is the one context a query builds: it holds f, the
bound, resolved on first use, and the root engine, and every question of
the query (ideal_at, grid_ideal, left_limit_at, certified, is_jump, fpt,
f_threshold) is one of its methods.  The invariants a walk's output must
satisfy are JumpingNumberReport.checks, asked of the walk's own computer
and engine.  jumping_numbers_closed finds the same jumps with no search:
the states of the engine's closed digit automaton, ascending in their jumps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import ceil, comb, floor

from .basep import (
    MAX_DIGITS,
    _as_fraction,
    _ceil_times,
    _check_bound,
    _narrow,
    candidates_left_open,
    canonical_pair,
    format_rational,
    is_candidate,
)
from .errors import DomainError, InfeasibleError, NotMPrimaryError
from .froot import FrobeniusRootEngine
from .groebner import Ideal, artinian_length, bracket_power, jacobian, maximal_ideal, radical_member
from .poly import Polynomial, _head, _require_same_ring

__all__ = [
    "JumpingNumberReport",
    "TestIdealComputer",
    "least_parameter",
    "jumping_numbers_unit_interval",
    "degree_bound",
    "default_bound",
]


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

    computer is the TestIdealComputer the report was found on, and poly and
    bound are read through it; candidate_count counts its work: the walk's
    own evaluations, or the transitions that jumping_numbers_closed computed.
    """

    jumping_numbers: tuple[Fraction, ...]
    test_ideals: tuple[Ideal, ...]
    fpt: Fraction
    candidate_count: int
    elapsed: float = field(compare=False)
    computer: TestIdealComputer = field(compare=False, repr=False)

    @property
    def poly(self) -> Polynomial:
        return self.computer.f

    @property
    def bound(self) -> int:
        return self.computer.bound

    def to_json(self) -> dict:
        return _head(self.poly) | {
            "bound": self.bound,
            "fpt": format_rational(self.fpt),
            "jumpingNumbers": [format_rational(x) for x in self.jumping_numbers],
            "testIdeals": [ideal.to_json() for ideal in self.test_ideals],
            "candidateCount": self.candidate_count,
            "elapsedMs": int(self.elapsed * 1000),
        }

    def checks(self) -> list[tuple[str, bool]]:
        """The invariants of the walk's output, as (name, passed) in order.

        Every jump is a candidate and the jumps are closed under
        lam -> frac(p*lam) (Blickle-Mustata-Smith); the test ideals strictly
        descend and, at an isolated singularity, contain the Jacobian ideal;
        nu(p^e)/p^e < fpt <= (nu(p^e)+1)/p^e (Mustata-Takagi-Watanabe); the
        fpt is the least lam with tau(f^lam) inside m, so tau(f^fpt) lies in
        m and its left limit does not.  The questions are asked of the walk's
        own computer and engine.
        """
        c, ideals, jumps = self.computer, self.test_ideals, self.jumping_numbers
        f, p, engine = c.f, c.p, c.engine
        candidates = all(is_candidate(x, p, c.bound) for x in jumps)
        descends = all(a.contains_ideal(b) and a != b for a, b in zip(ideals, ideals[1:]))
        checks = [
            ("jumping numbers lie in the candidate set", candidates),
            ("closed under lam -> frac(p*lam)", all(p * x % 1 in jumps for x in jumps)),
            ("test ideals strictly descend", descends),
        ]
        jac, ell = c.isolated_jacobian
        if ell is not None:
            jac_ok = all(ideal.contains_ideal(jac) for ideal in ideals)
            checks.append(("jacobian contained in every test ideal on [0,1)", jac_ok))
        nus = {p**e: engine.nu(maximal_ideal(f.ring), e) for e in (1, 2, 3)}
        sandwich = all(Fraction(v, q) < self.fpt <= Fraction(v + 1, q) for q, v in nus.items())
        fpt_certified = c.certified(_inside_m, self.fpt) is not None
        # the fpt check keeps its old name, which the benchmark's reference pins
        return checks + [
            ("nu sandwich brackets the fpt (e = 1..3)", sandwich),
            ("interval-narrowed fpt matches the candidate walk", fpt_certified),
            ("left limits differ exactly at the jumps", all(c.is_jump(x) for x in jumps[1:])),
            (
                "f lies in the bracket power of its own root",
                all(bracket_power(c.grid_ideal(1, e), e).contains(f) for e in (1, 2)),
            ),
        ]


class TestIdealComputer:
    """Shared evaluation context: one polynomial, one bound, one root engine.

    The one place that checks f and the bound: f must be nonzero, and a
    given bound must be an int >= 1; an omitted one is default_bound(f),
    resolved when a search first reads it.  Every evaluation is one
    grid_ideal call, root_s(f^N) through the engine, whose final carry
    folds parameters >= 1 (Skoda), and evaluations counts them; ideal_at,
    left_limit_at, certified and is_jump take s from lam alone (_evaluate),
    not from the bound.  The searches (fpt, f_threshold) are methods, so
    all questions asked of one computer share its engine, and the Jacobian
    length it resolved the bound from.
    """

    __test__ = False  # a computation, not a pytest test class

    def __init__(self, f: Polynomial, bound: int | None = None):
        if f.is_zero():
            raise DomainError("test ideals of the zero polynomial are undefined")
        self.f = f
        if bound is not None:
            _check_bound(bound)
            self.bound = bound
        self.p = f.ring.prime
        self.engine = FrobeniusRootEngine(f)
        self.evaluations = 0

    @cached_property
    def bound(self) -> int:
        """default_bound(f), when no bound was given: a computer that never
        searches forms no Jacobian basis."""
        return default_bound(self.f, self.isolated_jacobian)

    @cached_property
    def isolated_jacobian(self) -> tuple[Ideal, int | None]:
        """isolated_jacobian(f), computed once per computer."""
        return isolated_jacobian(self.f)

    def ideal_at(self, lam) -> Ideal:
        """tau(f^lam) for any rational lam >= 0."""
        lam = _as_fraction(lam)
        if lam < 0:
            raise DomainError("test ideal parameters must be >= 0")
        return self._evaluate(lam, 0)

    def grid_ideal(self, k: int, e: int) -> Ideal:
        """tau(f^(k/p^e)) = root_e(f^k), exact for every bound (Blickle-Mustata-Smith)."""
        self.evaluations += 1
        return self.engine.root_power(k, e)

    def left_limit_at(self, lam) -> Ideal:
        """The stable intersection of tau(f^(lam - eps)) over small eps > 0."""
        lam = _as_fraction(lam)
        if lam <= 0:
            raise DomainError("left limits require a positive parameter")
        return self._evaluate(lam, 1)

    def _evaluate(self, lam: Fraction, below: int) -> Ideal:
        """grid_ideal(ceil(p^s * lam) - below, s) at a depth s that serves
        every larger one: tau(f^lam) at below = 0, its left limit at 1.

        Write p^u * lam = I + c/(p^v - 1), 0 <= c < p^v - 1, for the
        canonical pair (u, v).  At s = u + v*n the numerator reads, least
        significant digit first, n blocks of v digits, then the digits of I:
        blocks c+1, c, c, ... for tau, c, c, ... for the left limit, and at
        c = 0 blocks p^v - 1, then I - 1, for the left limit.  The states
        after n blocks form a chain (ascending for tau, descending for the
        left limit) in which, past the first block, each is one run of the
        same block from the last, so a run that leaves the state unchanged
        fixes it for every larger n.  On the grid, tau reads blocks 0, which
        fix the start state (1), so s = u.  A depth past basep.MAX_DIGITS
        raises InfeasibleError before any digit step at that depth.
        """
        p, engine = self.p, self.engine
        u, v = canonical_pair(lam, p) if lam.denominator > 1 else (0, 1)

        def point(n: int) -> tuple[int, int]:  # the grid point of n blocks
            s = u + v * n
            if s > MAX_DIGITS:
                raise InfeasibleError(
                    f"an evaluation of {s} digit steps passes the limit of {MAX_DIGITS} digits"
                )
            return _ceil_times(p**s, lam) - below, s

        def state(n: int) -> Ideal:  # the engine's state after n blocks
            return engine.root_power(point(n)[0] % p ** (v * n), v * n)

        if not below and lam.denominator == p**u:
            return self.grid_ideal(*point(0))
        n, current = 1, state(1)
        while (after := state(n + 1)) is not current:  # states are interned
            n, current = n + 1, after
        return self.grid_ideal(*point(n))

    def certified(self, predicate, lam) -> Ideal | None:
        """tau(f^lam) when lam is the least parameter at which the monotone
        predicate turns true, else None.

        The certificate: the predicate holds at tau(f^lam) and fails at the
        left limit at lam, so it fails on some (lam - eps, lam) and hence,
        being monotone, everywhere below lam.  Both evaluations are exact
        for every bound (Blickle-Mustata-Smith); lam must be positive.
        The left limit goes first: a guess past the answer fails there, and
        tau(f^lam) is then never formed.
        """
        if predicate(self.left_limit_at(lam)):
            return None
        ideal = self.ideal_at(lam)
        return ideal if predicate(ideal) else None

    def is_jump(self, lam) -> bool:
        """True iff the test ideal jumps at lam > 0, exact for every bound."""
        lam = _as_fraction(lam)
        if lam <= 0:
            raise DomainError("jumping-number tests require a positive parameter")
        return self.left_limit_at(lam) != self.ideal_at(lam)

    def fpt(self) -> Fraction:
        """The F-pure threshold of f at the origin (f in m, f != 0).

        The least lam with tau(f^lam) inside m, found by least_parameter; the
        search ends by lam = 1 because tau(f^1) = (f) lies in m.
        """
        if self.f.constant_term() != 0:
            raise DomainError("fpt requires a polynomial vanishing at the origin")
        return least_parameter(self, _inside_m, 0, 1)[0]

    def f_threshold(self, b: Ideal, cap=None) -> Fraction:
        """Least parameter lam <= cap with tau(f^lam) contained in b.

        One least_parameter search over (0, max(ceil(cap), 1)]; the
        predicate is false at 0 because b is proper.  tau(f^lam) contains
        f^ceil(lam), so no lam qualifies unless f lies in sqrt(b); the
        radical check comes first, before any power of f is formed.
        """
        _require_same_ring(self.f, b)
        if b.is_unit():
            return Fraction(0)
        cap = Fraction(self.f.ring.dimension) if cap is None else _as_fraction(cap)
        if radical_member(self.f, b):
            found = least_parameter(self, b.contains_ideal, 0, max(ceil(cap), 1))
            if found is not None and found[0] <= cap:
                return found[0]
        raise InfeasibleError(
            f"no parameter at or below the cap {format_rational(cap)} "
            "drops the test ideal into b"
        )


def _inside_m(ideal: Ideal) -> bool:
    """Containment in the maximal ideal at the origin, i.e. properness there."""
    return all(g.constant_term() == 0 for g in ideal.basis())


def least_parameter(computer: TestIdealComputer, predicate, lo, hi, guess=None) -> tuple | None:
    """(lam, tau(f^lam)) for the least lam in (lo, hi] with
    predicate(tau(f^lam)), or None when the predicate is false at hi.

    The predicate must be monotone along the descending family: false at
    lo, and once true for some lam, true for every larger one.  A guess in
    (lo, hi] is tried first: when computer.certified confirms it, it is the
    answer, found with two evaluations; any other guess costs at most those
    two, and the search runs as if none were given.  The search
    narrows on the p-adic grid, where evaluation needs no bound:
    tau(f^(k/p^e)) = root_e(f^k) (Blickle-Mustata-Smith).  Level e keeps an
    integer a whose cell ((a-1)/p^e, a/p^e], cut to (lo, hi], holds the
    answer.  Grid points at or below lo read false and those at or above hi
    read true.  The levels are basep._narrow's: level 0 is _least_integer
    from floor(lo) with no upper end, so no power of f past twice the
    answer's ceiling is formed, and hi is evaluated only when that search
    ends at or past it.  Each later level bisects k over (p*(a-1), p*a].
    The least lam is a jumping number, so it is a candidate for the
    computer's bound B, and candidates lie more than p^(-2B) apart: after
    2B+1 levels the cell holds it as its only candidate.  More than
    basep.MAX_LEVELS levels raise InfeasibleError before any is run.

    The answer is that candidate once computer.certified proves it the
    least parameter, exactly at every B.  A cell without a single
    candidate, or a candidate the certificate refutes, raises DomainError:
    the bound is too small.
    """
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    if not 0 <= lo < hi:
        raise DomainError(f"search window ({lo}, {hi}] must lie in [0, oo) and be nonempty")
    if guess is not None and lo < guess <= hi:
        ideal = computer.certified(predicate, guess)
        if ideal is not None:
            return _as_fraction(guess), ideal
    p, bound = computer.p, computer.bound

    def holds(k: int, e: int) -> bool:
        """The predicate at the grid point k/p^e."""
        q = p**e
        if k * lo.denominator <= lo.numerator * q:
            return False
        if k * hi.denominator >= hi.numerator * q:
            return True
        return predicate(computer.grid_ideal(k, e))

    levels = 2 * bound + 1
    a = _narrow(holds, floor(lo), p, levels, lambda a: a < hi or predicate(computer.ideal_at(hi)))
    if a is None:
        return None
    q = p**levels
    left, right = max(lo, Fraction(a - 1, q)), min(hi, Fraction(a, q))
    cands = candidates_left_open(p, bound, left, right)
    if len(cands) != 1:
        raise DomainError(
            f"expected exactly one candidate in ({left}, {right}], found {len(cands)}; "
            "the supplied bound is too small for f"
        )
    value = cands[0]
    ideal = computer.certified(predicate, value)
    if ideal is None:
        raise DomainError(
            f"the isolated candidate {format_rational(value)} is not the least parameter; "
            "the supplied bound is too small for f"
        )
    return value, ideal


def jumping_numbers_unit_interval(
    f: Polynomial, bound: int | None, guesses=()
) -> JumpingNumberReport:
    """The jumping numbers in [0, 1) and their test ideals, jump by jump.

    The jump after lam_i is the least lam in (lam_i, 1] whose test ideal
    differs from tau(f^lam_i); the walk ends when that lam is 1.  Each
    search first tries the least of the guesses above lam_i, else 1, the
    guess that no jump is left, so the walk's last search is settled by
    one left limit at 1.  For a valid bound guesses change no answer, only
    the work: a walk that expects the jumps of a nearby f passes them.
    candidate_count holds the number of test-ideal evaluations made.
    """
    if f.constant_term() != 0:
        raise DomainError("the polynomial must vanish at the origin")
    start = time.perf_counter()
    computer = TestIdealComputer(f, bound)
    jumps = [Fraction(0)]
    ideals = [computer.engine.root_power(0, 0)]
    while True:
        current, last = ideals[-1], jumps[-1]
        guess = min((g for g in guesses if g > last), default=1)
        found = least_parameter(computer, lambda ideal: ideal != current, last, 1, guess)
        if found is None or found[0] == 1:
            break
        jumps.append(found[0])
        ideals.append(found[1])
    return _report(computer, jumps, ideals, computer.evaluations, start)


def jumping_numbers_closed(f: Polynomial, bound: int | None) -> JumpingNumberReport:
    """The jumping numbers in [0, 1) and their test ideals, read off the
    closed digit automaton of f: the states of FrobeniusRootEngine.jumps,
    ascending in their jumps.

    No bound is used.  The bound, given or default_bound(f), is checked as
    a claim: a jump that is no candidate for it raises DomainError.
    candidate_count holds the number of transitions computed.
    """
    if f.constant_term() != 0:
        raise DomainError("the polynomial must vanish at the origin")
    start = time.perf_counter()
    computer = TestIdealComputer(f, bound)
    jumps, ideals = zip(*computer.engine.jumps())
    for lam in jumps:
        if not is_candidate(lam, computer.p, computer.bound):
            raise DomainError(
                f"the jump {format_rational(lam)} is no candidate for bound {computer.bound}; "
                "the supplied bound is too small for f"
            )
    return _report(computer, jumps, ideals, computer.engine.transitions, start)


def _report(computer, jumps, ideals, count: int, start: float) -> JumpingNumberReport:
    """The report of the jumps and ideals found on computer, with the fpt,
    the first jump whose ideal lies in m, or 1 if none does."""
    inside_m = (lam for lam, ideal in zip(jumps[1:], ideals[1:]) if _inside_m(ideal))
    return JumpingNumberReport(
        jumping_numbers=tuple(jumps),
        test_ideals=tuple(ideals),
        fpt=next(inside_m, Fraction(1)),
        candidate_count=count,
        elapsed=time.perf_counter() - start,
        computer=computer,
    )


def degree_bound(f: Polynomial) -> int:
    """Jumping-number count bound from generation in bounded degree."""
    n = f.ring.dimension
    return comb(n + f.total_degree(), n)


def isolated_jacobian(f: Polynomial) -> tuple[Ideal, int | None]:
    """Jac(f), and the length ell of R/Jac(f) when Jac(f) is proper and
    primary to the origin, i.e. when f has an isolated singularity there;
    else ell is None."""
    jac = jacobian(f)
    try:
        ell = artinian_length(jac)
    except NotMPrimaryError:
        return jac, None
    return jac, ell or None


def default_bound(f: Polynomial, isolated: tuple[Ideal, int | None] | None = None) -> int:
    """The smaller of the degree bound and (when defined) the length bound.

    isolated is isolated_jacobian(f) when the caller already holds it.
    """
    ell = (isolated or isolated_jacobian(f))[1]
    b = degree_bound(f)
    return b if ell is None else min(ell, b)
