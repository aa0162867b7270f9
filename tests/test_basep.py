import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptkit import (
    DomainError,
    ExponentPair,
    InfeasibleError,
    TestIdealComputer,
    candidate_set,
    canonical_pair,
    format_rational,
    parse_rational,
)
from fptkit import basep
from fptkit.basep import candidates_left_open, is_candidate, is_prime

import candidate_oracle
from truncation_oracle import equal_by_truncation, frac_orbit, is_exponent_pair, truncate

F = Fraction

positive_fractions = st.fractions(min_value=F(1, 600), max_value=F(50), max_denominator=600)
small_primes = st.sampled_from([2, 3, 5, 7])


def brute_order(p: int, n: int) -> int:
    """Independent oracle: smallest s >= 1 with p^s = 1 mod n."""
    if n == 1:
        return 1
    s, x = 1, p % n
    while x != 1:
        x = x * p % n
        s += 1
    return s


class TestPrimality:
    def test_small(self):
        assert [q for q in range(2, 40) if is_prime(q)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
        ]

    def test_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61)

    @pytest.mark.parametrize("n", [1, 1763], ids=["one", "41*43"])
    def test_non_primes(self, n):
        # 41*43 has no factor among the trial divisors, so Miller-Rabin rejects it
        assert is_prime(n) is False

    def test_reject_composite_characteristic(self):
        with pytest.raises(DomainError):
            truncate(F(1, 2), 1, 4)
        # 0 is a candidate for every (p, bound), so this checks p before lam
        with pytest.raises(DomainError, match="characteristic must be prime"):
            is_candidate(0, 4, 3)


class TestTruncate:
    def test_examples(self):
        assert truncate(F(7, 12), 2, 5) == F(14, 25)
        assert truncate(F(1, 2), 0, 5) == 0
        assert truncate(F(1), 1, 2) == F(1, 2)

    def test_integral_scaling(self):
        lam = F(7, 12)
        for e in range(6):
            assert (5**e * truncate(lam, e, 5)).denominator == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            truncate(F(0), 1, 5)
        with pytest.raises(DomainError):
            truncate(F(-1, 2), 1, 5)

    @given(lam=positive_fractions, p=small_primes, e=st.integers(0, 8), e2=st.integers(0, 8))
    def test_monotone_convergence(self, lam, p, e, e2):
        lo, hi = sorted((e, e2))
        t_lo, t_hi = truncate(lam, lo, p), truncate(lam, hi, p)
        assert t_lo <= t_hi < lam
        assert lam - t_lo <= F(1, p**lo)

    @given(lam=positive_fractions, gam=positive_fractions, p=small_primes, e=st.integers(0, 8))
    def test_prefix_property(self, lam, gam, p, e):
        if truncate(lam, e, p) == truncate(gam, e, p):
            for s in range(e + 1):
                assert truncate(lam, s, p) == truncate(gam, s, p)


class TestCanonicalPair:
    def test_examples(self):
        assert canonical_pair(F(7, 12), 5) == ExponentPair(0, brute_order(5, 12))
        assert canonical_pair(F(7, 12), 5) == ExponentPair(0, 2)
        assert canonical_pair(F(3), 2) == ExponentPair(0, 1)
        assert canonical_pair(F(4, 5), 5) == ExponentPair(1, 1)
        assert (5**1 * (5**1 - 1) * F(4, 5)).denominator == 1

    @given(lam=positive_fractions, p=small_primes)
    def test_membership(self, lam, p):
        pair = canonical_pair(lam, p)
        assert is_exponent_pair(lam, pair, p)

    @given(lam=positive_fractions, p=small_primes, a=st.integers(0, 4), b=st.integers(1, 4))
    def test_generation(self, lam, p, a, b):
        u, v = canonical_pair(lam, p)
        assert is_exponent_pair(lam, ExponentPair(u + a, v * b), p)

    @given(lam=positive_fractions, p=small_primes)
    def test_minimality(self, lam, p):
        u, v = canonical_pair(lam, p)
        if u > 0:
            assert not is_exponent_pair(lam, ExponentPair(u - 1, v), p)
        for smaller_v in range(1, v):
            assert not is_exponent_pair(lam, ExponentPair(u, smaller_v), p)

    def test_p_valuation_matches_one_division_at_a_time(self):
        # the doubling divisions against the loop that divides out one p
        # per step, on cofactors that p may divide too, up to p^20000
        def one_at_a_time(n, p):
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            return k, n

        rng = random.Random(41)
        for p, most in ((2, 20000), (3, 20000), (7, 2000), (103, 2000)):
            for k in [0, 1, 2, 3, 4, 7, 8, most, *(rng.randrange(most) for _ in range(4))]:
                n = p**k * rng.randrange(1, p**3)
                assert basep._p_valuation(n, p) == one_at_a_time(n, p), (p, k)

    def test_invalid_pair_shape(self):
        with pytest.raises(DomainError):
            ExponentPair(0, 0)
        with pytest.raises(DomainError):
            ExponentPair(-1, 1)


class TestExponentPairMembership:
    def test_examples(self):
        assert is_exponent_pair(F(7, 12), ExponentPair(0, 2), 5)
        assert not is_exponent_pair(F(7, 12), ExponentPair(3, 1), 5)


class TestBoundCheck:
    @pytest.mark.parametrize("bound", [0, -1, 2.5, 6.0, "6", True])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda f, bound: candidate_set(5, bound, (F(0), F(1))),
            lambda f, bound: TestIdealComputer(f, bound),
            lambda f, bound: is_candidate(F(1, 4), 5, bound),
        ],
        ids=["candidate_set", "TestIdealComputer", "is_candidate"],
    )
    def test_rejects_bad_bounds(self, quartic5, entry, bound):
        # a bound is an int >= 1: bool, float and str are rejected, not coerced
        match = "bound must be >= 1" if type(bound) is int else "bound must be an integer"
        with pytest.raises(DomainError, match=match):
            entry(quartic5, bound)


class TestCandidateSet:
    def test_examples(self):
        assert candidate_set(2, 2, (F(0), F(1))) == (F(0), F(1, 3), F(1, 2), F(2, 3))
        assert candidate_set(3, 1, (F(0), F(1))) == (F(0), F(1, 2))
        assert candidate_set(5, 1, (F(0), F(1))) == (F(0), F(1, 4), F(1, 2), F(3, 4))
        cs = candidate_set(2, 2, (F(0), F(1)))
        assert F(0) in cs and F(1, 3) in cs and 0 in cs
        assert F(1, 5) not in cs and F(1) not in cs

    def test_window_slicing(self):
        full = candidate_set(2, 2, (F(0), F(1)))
        upper = candidate_set(2, 2, (F(1, 2), F(1)))
        assert upper == tuple(v for v in full if v >= F(1, 2))
        # the left-open form drops lo and keeps hi
        assert candidates_left_open(2, 2, F(1, 3), F(2, 3)) == (F(1, 2), F(2, 3))
        assert candidates_left_open(2, 2, F(1, 3), F(3, 5)) == (F(1, 2),)

    def test_membership_characterization(self):
        # exactly the rationals with a pair summing to <= B, plus 0
        cs = candidate_set(3, 2, (F(0), F(2)))
        for v in cs:
            if v > 0:
                u, vv = canonical_pair(v, 3)
                assert u + vv <= 2
        step = F(1, 3**2 * (3**2 - 1))
        probe = F(0)
        expected = set(cs)
        while probe < 2:
            if probe > 0:
                u, vv = canonical_pair(probe, 3)
                assert (probe in expected) == (u + vv <= 2)
                assert (probe in cs) == (u + vv <= 2)
            probe += step

    @given(
        lam=st.fractions(min_value=0, max_value=F(3), max_denominator=400),
        p=small_primes,
        bound=st.integers(1, 3),
        width=st.fractions(min_value=F(1, 50), max_value=F(1, 2), max_denominator=50),
    )
    def test_is_candidate_matches_windows(self, lam, p, bound, width):
        # the one-line rule agrees with the enumeration, whichever window holds lam
        assert is_candidate(lam, p, bound) == (lam in candidate_set(p, bound, (lam, lam + width)))
        lo = max(F(0), lam - width)
        assert is_candidate(lam, p, bound) == (lam in candidate_set(p, bound, (lo, lam + width)))
        if lam > lo:
            assert is_candidate(lam, p, bound) == (lam in candidates_left_open(p, bound, lo, lam))

    @settings(max_examples=150)
    @given(
        p=small_primes,
        bound=st.integers(1, 4),
        a=st.integers(0, 3),
        b=st.integers(1, 4),
        c=st.integers(0, 2000),
        shift=st.fractions(min_value=0, max_value=1, max_denominator=30),
        width=st.one_of(
            st.none(), st.fractions(min_value=F(1, 40), max_value=F(1, 2), max_denominator=40)
        ),
    )
    def test_matches_pairwise_oracle(self, p, bound, a, b, c, shift, width):
        # windows around some c/(p^a(p^b-1)), wide or p^-(2B+1) narrow, which
        # hold a candidate or not as the pair (a, b) is within the bound or not
        if width is None:
            width = F(1, p ** (2 * bound + 1))
        lo = max(F(0), F(c, p**a * (p**b - 1)) - shift * width)
        hi = lo + width
        assert candidate_set(p, bound, (lo, hi)) == candidate_oracle.candidates(p, bound, lo, hi)

    @pytest.mark.parametrize("x", [F(4, 25), F(12, 125), F(1, 24)])
    def test_final_window_at_deep_bound(self, x):
        # a search's last window is p^-(2B+1) wide, narrower than the gap
        # p^-(2B) between candidates, so it holds the answer and nothing else
        width = F(1, 5**81)
        assert candidates_left_open(5, 40, x - width, x) == (x,)
        assert candidates_left_open(5, 40, x, x + width) == ()

    def test_rejects_bad_windows(self):
        with pytest.raises(DomainError):
            candidate_set(2, 2, (F(0), None))
        with pytest.raises(DomainError):
            candidate_set(2, 0, (F(0), F(1)))
        with pytest.raises(DomainError):
            candidate_set(2, 2, (F(-1), F(1)))
        with pytest.raises(DomainError):
            candidate_set(2, 2, (F(1), F(0)))
        assert candidate_set(2, 2, (F(1, 2), F(1, 2))) == ()

    def test_count_cap(self):
        # the cap counts numerators before any is formed; the windows a search
        # asks about stay far below it
        count = sum(2 ** (20 - b) * (2**b - 1) - 1 for b in range(1, 21))
        assert count > basep.MAX_CANDIDATES
        with pytest.raises(InfeasibleError, match="more than the limit of 1000000 "):
            candidate_set(2, 20, (F(0), F(1)))
        # the first period alone passes the cap: refused before the other
        # 49,999 denominators are formed
        with pytest.raises(InfeasibleError):
            candidate_set(2, 50000, (F(0), F(1)))
        assert len(candidate_set(2, 20, (F(1, 3), F(1, 3) + F(1, 2**20)))) < 30

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_gap_exhaustive(self, p, bound):
        values = candidate_set(p, bound, (F(0), F(1)))
        floor = F(1, p ** (2 * bound))
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert values[j] - values[i] > floor

    def test_exclusion_interval(self):
        rng = random.Random(4)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            bound = rng.randint(1, 3)
            lam = F(rng.randint(1, 40), rng.randint(1, 40))
            u, v = canonical_pair(lam, p)
            s = u + v * bound
            left = truncate(lam, s, p)
            right = left + F(1, p**s)
            window = candidate_set(p, bound, (left, right + F(1, p**s)))
            for value in window:
                assert not (left < value < lam)
                assert not (lam < value <= right)


class TestFracOrbit:
    def test_examples(self):
        assert frac_orbit(F(7, 12), 2, 5) == [F(7, 12), F(11, 12)]
        assert frac_orbit(F(4, 5), 2, 5) == [F(4, 5), F(0)]
        assert frac_orbit(F(1, 2), 1, 5) == [F(1, 2)]

    def test_rejects_zero_count(self):
        with pytest.raises(DomainError):
            frac_orbit(F(1, 2), 0, 5)

    @given(lam=positive_fractions, p=small_primes)
    @settings(max_examples=150)
    def test_orbit_cardinality(self, lam, p):
        u, v = canonical_pair(lam, p)
        if u + v > 8:
            return
        orbit = frac_orbit(lam, u + v, p)
        assert all(0 <= x < 1 for x in orbit)
        assert len(set(orbit)) == u + v


class TestEqualByTruncation:
    def test_examples(self):
        pair = ExponentPair(0, 2)
        assert equal_by_truncation(F(7, 12), F(7, 12), pair, pair, 5)
        assert not equal_by_truncation(F(7, 12), F(11, 12), pair, pair, 5)
        assert not equal_by_truncation(
            F(4, 5), F(4, 5) + F(1, 5**9), ExponentPair(1, 1), ExponentPair(9, 1), 5
        )

    def test_rejects_wrong_pair(self):
        with pytest.raises(DomainError):
            equal_by_truncation(F(7, 12), F(7, 12), ExponentPair(0, 1), ExponentPair(0, 2), 5)

    @given(lam=positive_fractions, gam=positive_fractions, p=small_primes)
    @settings(max_examples=150)
    def test_agrees_with_equality(self, lam, gam, p):
        pl, pg = canonical_pair(lam, p), canonical_pair(gam, p)
        assert equal_by_truncation(lam, gam, pl, pg, p) == (lam == gam)


class TestRationalWire:
    def test_format(self):
        assert format_rational(F(7, 12)) == "7/12"
        assert format_rational(F(3)) == "3"

    def test_parse(self):
        assert parse_rational("7/12") == F(7, 12)
        assert parse_rational(" 3 ") == F(3)
        with pytest.raises(DomainError):
            parse_rational("-1/2")
        with pytest.raises(DomainError):
            parse_rational("junk")

    @given(q=st.fractions(min_value=0, max_value=100, max_denominator=997))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


def _probed(threshold, lo, hi=None):
    """basep._least_integer on n >= threshold, with the integers it probed."""
    probes = []

    def holds(n):
        probes.append(n)
        return n >= threshold

    return basep._least_integer(holds, lo, hi), probes


class TestLeastInteger:
    def test_gallops_from_below_then_bisects(self):
        # lo = 3, answer 13: steps 1, 2, 4, 8, 16 probe 4, 5, 7, 11, 19, and
        # the last doubling (11, 19] is bisected at 15, 13 and 12
        assert _probed(13, 3) == (13, [4, 5, 7, 11, 19, 15, 13, 12])

    def test_answer_next_to_lo_is_one_probe(self):
        assert _probed(8, 7) == (8, [8])

    def test_upper_end_bisects_only(self):
        # with hi the window (0, 10] is bisected and hi itself is not probed
        assert _probed(7, 0, 10) == (7, [5, 7, 6])

    @settings(max_examples=200, deadline=None)
    @given(lo=st.integers(-50, 50), gap=st.integers(1, 300))
    def test_matches_a_linear_scan(self, lo, gap):
        threshold = lo + gap
        scan = next(n for n in range(lo + 1, threshold + 1) if n >= threshold)
        found, probes = _probed(threshold, lo)
        assert found == scan
        # the gallop probes lo + 2^i until one holds; no probe passes it
        d = 1 << (gap - 1).bit_length()
        assert probes[: d.bit_length()] == [lo + (1 << i) for i in range(d.bit_length())]
        assert max(probes) == lo + d < lo + 2 * gap


class TestNarrow:
    @settings(max_examples=100, deadline=None)
    @given(
        c=st.fractions(min_value=F(1, 500), max_value=20, max_denominator=500),
        p=st.sampled_from([2, 3, 5, 7]),
        levels=st.integers(0, 6),
    )
    def test_rounds_the_threshold_up_to_the_last_level(self, c, p, levels):
        # holds(k, e) is k/p^e >= c: level e's answer is ceil(c * p^e), and
        # each level after 0 probes only its cell (p*(a-1), p*a]
        probes = []

        def holds(k, e):
            probes.append((k, e))
            return F(k, p**e) >= c

        assert basep._narrow(holds, 0, p, levels) == basep._ceil_times(p**levels, c)
        for e in range(1, levels + 1):
            a = basep._ceil_times(p ** (e - 1), c)
            assert all(p * (a - 1) < k < p * a for k, level in probes if level == e)

    def test_keep_ends_the_search_after_level_0(self):
        probes = []

        def holds(k, e):
            probes.append((k, e))
            return k >= 3

        assert basep._narrow(holds, 0, 5, 4, keep=lambda a: a < 3) is None
        assert probes == [(1, 0), (2, 0), (4, 0), (3, 0)]

    def test_refuses_more_levels_than_the_budget(self):
        probes = []
        with pytest.raises(InfeasibleError, match="passes the limit"):
            basep._narrow(lambda k, e: probes.append(k) or True, 0, 2, basep.MAX_LEVELS + 1)
        assert probes == []
        assert basep._narrow(lambda k, e: k >= 2**e, 0, 2, basep.MAX_LEVELS) == 2**basep.MAX_LEVELS


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: truncate(F(1, 2), -1, 5), "truncation index must be >= 0"),
        (lambda: canonical_pair(0, 5), "exponent pairs are defined for positive rationals"),
        (
            # (0, 1) is a pair of 1/2, (3, 1) is none of 1/3
            lambda: equal_by_truncation(
                F(1, 2), F(1, 3), ExponentPair(0, 1), ExponentPair(3, 1), 5
            ),
            "(3, 1) is not an exponent pair of 1/3",
        ),
    ],
    ids=["truncate", "canonical_pair", "equal_by_truncation"],
)
def test_guards(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
