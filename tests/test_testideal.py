import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import floor
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fptkit import (
    DomainError,
    FrobeniusRootEngine,
    Ideal,
    InfeasibleError,
    Polynomial,
    PolyRing,
    TestIdealComputer,
    bracket_power,
    default_bound,
    degree_bound,
    frobenius_root_ideal,
    jumping_numbers_unit_interval,
    least_parameter,
    maximal_ideal,
    normal_form,
    parse_polynomial,
    power,
    random_perturbation,
    singularity_profile,
)

from fptkit import basep, testideal
from fptkit.basep import candidates_left_open, canonical_pair

import gallop_oracle
import narrowing_oracle
import truncation_oracle
import walk_oracle
from conftest import random_poly, spy, unit_ideal
from diagonal_oracle import diagonal_fpt, diagonal_hypersurface_fpt

F = Fraction


def ideal_of(ring, *texts):
    return Ideal(ring, tuple(parse_polynomial(t, ring) for t in texts))


def brute_nu(f, b, e):
    """Oracle: expand f^N literally and reduce against the bracket generators."""
    bracket = bracket_power(b, e)
    n = 1
    while True:
        if normal_form(power(f, n), bracket).is_zero():
            return n - 1
        n += 1


class TestTestIdeal:
    def test_known_values(self, ring5, quartic5):
        c = TestIdealComputer(quartic5, 6)
        assert c.ideal_at(F(7, 12)) == ideal_of(ring5, "x", "y")
        assert c.ideal_at(F(4, 5)) == ideal_of(ring5, "x^2", "y")
        assert c.ideal_at(F(11, 12)) == ideal_of(ring5, "x^2", "x*y", "y^2")

    def test_unit_cases(self, ring5):
        x = ring5.variable("x")
        assert TestIdealComputer(x, 1).ideal_at(F(1, 2)).is_unit()
        assert TestIdealComputer(x, 1).ideal_at(F(0)).is_unit()

    def test_result_metadata(self, ring5, quartic5):
        c = TestIdealComputer(quartic5, 6)
        assert c.bound == 6

    def test_zero_polynomial_rejected(self, ring5):
        with pytest.raises(DomainError):
            TestIdealComputer(ring5.zero(), 1).ideal_at(F(1, 2))
        with pytest.raises(DomainError):
            TestIdealComputer(ring5.zero()).fpt()
        with pytest.raises(DomainError):
            TestIdealComputer(ring5.zero()).f_threshold(maximal_ideal(ring5))
        with pytest.raises(DomainError):
            TestIdealComputer(ring5.zero()).f_threshold(unit_ideal(ring5))

    @pytest.mark.parametrize("lam", ["abc", "1/0", "7/12", 0.5])
    @pytest.mark.parametrize(
        "compute",
        [
            lambda f, lam: TestIdealComputer(f, 6).ideal_at(lam),
            lambda f, lam: TestIdealComputer(f, 6).left_limit_at(lam),
            lambda f, lam: TestIdealComputer(f, 6).f_threshold(maximal_ideal(f.ring), cap=lam),
        ],
        ids=["test_ideal", "test_ideal_left_limit", "f_threshold"],
    )
    def test_non_rational_parameter_rejected(self, quartic5, compute, lam):
        # only Fraction and int are parameters; strings and floats are not
        with pytest.raises(DomainError):
            compute(quartic5, lam)

    def test_skoda_against_direct_oracle(self, monkeypatch):
        # tau at 1 + mu, 2 + mu, 1 and 2, computed through the engine's carry,
        # must match a direct stabilized evaluation at denominator p^e; an
        # integer is evaluated at s = 0
        exponents = []
        root_power = FrobeniusRootEngine.root_power

        def spy(engine, N, e):
            exponents.append(e)
            return root_power(engine, N, e)

        monkeypatch.setattr(FrobeniusRootEngine, "root_power", spy)
        rng = random.Random(31)
        for p in (2, 3, 5):
            ring = PolyRing(p, ["x", "y"])
            for _ in range(12):
                f = random_poly(rng, ring, 3, 3, min_deg=1)
                e = rng.randint(1, 2)
                mu = F(rng.randint(1, p**e - 1), p**e)
                for lam in (1 + mu, 2 + mu, F(1), F(2)):
                    c = TestIdealComputer(f, default_bound(f))
                    exponents.clear()
                    folded = c.ideal_at(lam)
                    direct = frobenius_root_ideal(Ideal(ring, (power(f, int(p**e * lam)),)), e)
                    assert folded == direct
                    if lam.denominator == 1:
                        assert exponents == [0]

    def test_monotone_on_candidates(self, ring5, quartic5):
        from fptkit import candidate_set

        values = candidate_set(5, 2, (F(0), F(1)))
        prev = None
        for lam in values:
            cur = TestIdealComputer(quartic5, 6).ideal_at(lam)
            if prev is not None:
                assert prev.contains_ideal(cur)
            prev = cur


class TestLeftLimit:
    def test_known_values(self, ring5, quartic5):
        c = TestIdealComputer(quartic5, 6)
        assert c.left_limit_at(F(7, 12)).is_unit()
        assert c.left_limit_at(F(4, 5)) == ideal_of(ring5, "x", "y")
        x = ring5.variable("x")
        assert TestIdealComputer(x, 1).left_limit_at(F(1)).is_unit()

    def test_above_one(self, ring5, quartic5):
        # the left limit at k + mu is f^k times the one at mu, and at an
        # integer k it is f^(k-1) times the one at 1, which is tau at the
        # last jump 11/12 below 1
        def times_power(k, J):
            return Ideal(ring5, tuple(power(quartic5, k) * g for g in J.basis()))

        c = TestIdealComputer(quartic5, 6)
        at_one = c.left_limit_at(F(1))
        at_fpt = c.left_limit_at(F(7, 12))
        assert at_one == c.ideal_at(F(11, 12))
        cases = [
            (F(2), times_power(1, at_one)),
            (1 + F(7, 12), times_power(1, at_fpt)),
            (2 + F(7, 12), times_power(2, at_fpt)),
        ]
        for lam, expected in cases:
            assert c.left_limit_at(lam) == expected


    def test_integer_gap_uses_full_pair(self, quartic5):
        # the left limit at 1 is tau at the last jump below 1, read past
        # depth 0: at depth 0 it would be (f^0) = (1)
        report = jumping_numbers_unit_interval(quartic5, 6)
        assert report.jumping_numbers[-1] == F(11, 12)
        assert report.computer.left_limit_at(1) == report.test_ideals[-1]

    @pytest.mark.parametrize(
        "p, text, bound",
        [(5, "x^4 + y^3 + x^2*y^2", 6), (7, "x^2 + y^3", 2), (3, "x^2*y^2 + x^3", None)],
        ids=["quartic5", "cusp7", "x^2*y^2+x^3-at-3"],
    )
    def test_is_the_ideal_at_the_truncation(self, p, text, bound):
        # at a valid B no jump lies in [trunc_s(lam), lam) for s = u + v*B,
        # (u, v) the canonical pair of lam, (0, 1) at an integer, so the
        # bound-free left limit at lam is tau at that truncation; every
        # candidate of bound 2 in (0, 2], 1 and 2 among them
        c = TestIdealComputer(parse_polynomial(text, PolyRing(p, ["x", "y"])), bound)
        lams = candidates_left_open(p, 2, 0, 2)
        assert {F(1), F(2)} <= set(lams)
        for lam in lams:
            u, v = canonical_pair(lam, p)
            s = u + v * c.bound
            assert c.left_limit_at(lam) == c.ideal_at(truncation_oracle.truncate(lam, s, p)), lam


class TestEvaluationReadsNoBound:
    """tau(f^lam) and its left limit depend on lam alone (Blickle-Mustata-
    Smith), so a computer's bound must not move them."""

    def test_small_bounds_give_the_default_bounds_values(self):
        rng = random.Random(38)
        lams = [F(1, 2), F(2, 3), F(3, 4), F(4, 5), F(5, 6), F(7, 9), F(1)]
        mismatches = compared = 0
        for p in (2, 3, 5):
            ring = PolyRing(p, ["x", "y"])
            for _ in range(50):
                f = random_poly(rng, ring, 4, 3, min_deg=2)
                while f.term_count() < 2:
                    f = random_poly(rng, ring, 4, 3, min_deg=2)
                default = TestIdealComputer(f)
                for bound in (1, 2):
                    c = TestIdealComputer(f, bound)
                    for lam in lams:
                        for at in ("ideal_at", "left_limit_at"):
                            compared += 1
                            mismatches += getattr(c, at)(lam) != getattr(default, at)(lam)
        assert (mismatches, compared) == (0, 4200)

    @pytest.mark.parametrize("lam", [F(1, 3), F(5, 6), F(1)])
    def test_digit_steps_do_not_grow_with_the_bound(self, monkeypatch, lam):
        ring = PolyRing(2, ["x", "y"])
        cusp = parse_polynomial("x^2+y^3", ring)
        calls = spy(monkeypatch, FrobeniusRootEngine, "root_power")
        seen = []
        for bound in (2, 10**5):
            c = TestIdealComputer(cusp, bound)
            calls.clear()
            ideals = c.ideal_at(lam), c.left_limit_at(lam)
            seen.append((sum(e for _, _, e in calls), ideals, c.evaluations))
        assert seen[0] == seen[1]
        assert seen[0][2] == 2  # one grid point each


class TestJumpDetection:
    def test_examples(self, ring5, quartic5):
        c = TestIdealComputer(quartic5, 6)
        assert c.is_jump(F(7, 12))
        assert not c.is_jump(F(1, 2))
        x = ring5.variable("x")
        assert not TestIdealComputer(x, 1).is_jump(F(1, 2))

    def test_non_candidate_is_exact(self, quartic5):
        # ord of 5 mod 23 is 22, far beyond the bound, and the left limit
        # and the value are exact at every bound: 1/23 is below the fpt 7/12
        assert not TestIdealComputer(quartic5, 6).is_jump(F(1, 23))


class TestUnitIntervalReport:
    def test_worked_example(self, ring5, quartic5_report):
        report = quartic5_report
        assert report.jumping_numbers == (F(0), F(7, 12), F(4, 5), F(11, 12))
        assert report.fpt == F(7, 12)
        expected = [
            unit_ideal(ring5),
            ideal_of(ring5, "x", "y"),
            ideal_of(ring5, "x^2", "y"),
            ideal_of(ring5, "x^2", "x*y", "y^2"),
        ]
        for got, want in zip(report.test_ideals, expected):
            assert got == want

    def test_equal_walks_compare_equal(self, quartic5, quartic5_report):
        # the wall time is reported, not compared
        report = jumping_numbers_unit_interval(quartic5, 6)
        assert report == quartic5_report and hash(report) == hash(quartic5_report)
        assert "elapsedMs" in report.to_json()

    def test_smooth_coordinate(self, ring5):
        x = ring5.variable("x")
        report = jumping_numbers_unit_interval(x, 1)
        assert report.jumping_numbers == (F(0),)
        assert report.fpt == 1

    def test_cusp_char7(self, ring7, cusp7):
        report = jumping_numbers_unit_interval(cusp7, 2)
        assert report.fpt == F(5, 6)
        m = maximal_ideal(ring7)
        for e in (1, 2, 3):
            v = FrobeniusRootEngine(cusp7).nu(m, e)
            q = 7**e
            assert F(v, q) < report.fpt <= F(v + 1, q)

    def test_closure_under_multiplication_by_p(self, ring5, quartic5_report):
        report = quartic5_report
        jn = set(report.jumping_numbers)
        for lam in report.jumping_numbers:
            if lam > 0:
                image = 5 * lam - (5 * lam).numerator // (5 * lam).denominator
                assert image in jn

    def test_requires_vanishing_at_origin(self, ring5):
        with pytest.raises(DomainError):
            jumping_numbers_unit_interval(parse_polynomial("x + 1", ring5), 3)
        with pytest.raises(DomainError):
            jumping_numbers_unit_interval(ring5.zero(), 3)
        with pytest.raises(DomainError):
            jumping_numbers_unit_interval(ring5.variable("x"), 0)

    def test_serialization_schema(self, ring5, quartic5_report):
        doc = quartic5_report.to_json()
        assert set(doc) == {
            "prime",
            "poly",
            "bound",
            "fpt",
            "jumpingNumbers",
            "testIdeals",
            "candidateCount",
            "elapsedMs",
        }
        assert doc["fpt"] == "7/12"
        assert doc["jumpingNumbers"] == ["0", "7/12", "4/5", "11/12"]
        assert doc["testIdeals"][0] == ["1"]


class TestNu:
    def test_coordinate(self, ring5):
        x = ring5.variable("x")
        m = maximal_ideal(ring5)
        for e in (1, 2, 3):
            assert FrobeniusRootEngine(x).nu(m, e) == 5**e - 1

    def test_brute_force_oracles(self, ring5):
        r3 = PolyRing(3, ["x", "y"])
        g = parse_polynomial("x^2 + y^2", r3)
        assert FrobeniusRootEngine(g).nu(maximal_ideal(r3), 1) == 2
        assert brute_nu(g, maximal_ideal(r3), 1) == 2
        f = parse_polynomial("x^4 + y^3 + x^2*y^2", ring5)
        assert FrobeniusRootEngine(f).nu(maximal_ideal(ring5), 1) == 2
        assert brute_nu(f, maximal_ideal(ring5), 1) == 2

    def test_matches_brute_force_randomly(self):
        rng = random.Random(32)
        for p in (2, 3):
            ring = PolyRing(p, ["x", "y"])
            m = maximal_ideal(ring)
            for _ in range(10):
                f = random_poly(rng, ring, 3, 3, min_deg=1)
                e = rng.randint(1, 2)
                assert FrobeniusRootEngine(f).nu(m, e) == brute_nu(f, m, e)

    def test_beyond_the_degree_cap(self, ring5):
        # y^9 lies in (x^3, x - y^3), far past the old cap 5^e * (1 + 3 + 1)
        b = ideal_of(ring5, "x^3", "x - y^3")
        engine = FrobeniusRootEngine(ring5.variable("y"))
        for e, expected in ((0, 8), (1, 44), (2, 224)):
            assert engine.nu(b, e) == expected
        assert brute_nu(ring5.variable("y"), b, 1) == 44

    def test_narrows_level_by_level(self, ring5, monkeypatch):
        # the probes of the narrowing: level 0 gallops over (y^k) itself,
        # k = 1, 2, 4, 8, 16, and bisects (8, 16] to a_0 = 9 (y^9 is in b);
        # level 1 bisects root_1(y^k) over the cell (40, 45] to a_1 = 45
        probes = []
        root_power = FrobeniusRootEngine.root_power
        monkeypatch.setattr(
            FrobeniusRootEngine,
            "root_power",
            lambda engine, N, e: probes.append((N, e)) or root_power(engine, N, e),
        )
        b = ideal_of(ring5, "x^3", "x - y^3")
        assert FrobeniusRootEngine(ring5.variable("y")).nu(b, 1) == 44
        level0 = [(k, 0) for k in (1, 2, 4, 8, 16, 12, 10, 9)]
        assert probes == level0 + [(k, 1) for k in (42, 43, 44)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_matches_the_gallop_oracle(self, p):
        # nu and the gallop at level e agree on random f and b, monomial and
        # not, e = 0..3: on the value, or on the DomainError and its message
        rng = random.Random(p)
        ring = PolyRing(p, ["x", "y"])

        def monomial_ideal():
            # half of them m-primary: pure powers of x and y among the generators
            gens = []
            for _ in range(rng.randint(1, 3)):
                a = rng.randint(0, 3)
                m = (a, rng.randint(0 if a else 1, 3))
                gens.append(Polynomial(ring, {m: rng.randrange(1, p)}))
            if rng.random() < 0.5:
                gens += [ring.monomial((rng.randint(1, 4), 0)), ring.monomial((0, rng.randint(1, 4)))]
            if rng.random() < 0.05:
                gens.append(ring.constant(rng.randrange(1, p)))  # a unit generator
            return Ideal(ring, gens)

        def outcome(nu, f, b, e):
            try:
                return nu(FrobeniusRootEngine(f), b, e)
            except DomainError as exc:
                return str(exc)

        errors = 0
        for _ in range(320):
            f = random_poly(rng, ring, 3, 3, min_deg=rng.randint(0, 1))
            if rng.random() < 0.5:
                b = monomial_ideal()
            else:
                b = Ideal(ring, [random_poly(rng, ring, 2, 2, 1) for _ in range(rng.randint(1, 3))])
            e = rng.randint(0, 3)
            expected = outcome(gallop_oracle.nu, f, b, e)
            assert outcome(FrobeniusRootEngine.nu, f, b, e) == expected, (f, b, e)
            errors += isinstance(expected, str)
        assert 0 < errors < 320

    def test_narrowing_pays_few_transition_misses(self, monkeypatch):
        # the gallop at level 8 took 65 transition misses here
        ring = PolyRing(11, ["x", "y"])
        f = parse_polynomial("8*y^6 + 2*x^5", ring)
        steps = spy(monkeypatch, FrobeniusRootEngine, "_step")
        assert FrobeniusRootEngine(f).nu(maximal_ideal(ring), 8) == 77948683
        assert len(steps) <= 13

    def test_deeper_than_the_level_budget(self, ring5, monkeypatch):
        # refused before any level is run: no root is formed
        roots = spy(monkeypatch, FrobeniusRootEngine, "root_power")
        with pytest.raises(InfeasibleError, match="levels"):
            FrobeniusRootEngine(ring5.variable("x")).nu(maximal_ideal(ring5), basep.MAX_LEVELS + 1)
        assert roots == []

    def test_unit_polynomial_rejected(self, ring5):
        with pytest.raises(DomainError):
            FrobeniusRootEngine(ring5.constant(2)).nu(maximal_ideal(ring5), 1)
        with pytest.raises(DomainError):
            FrobeniusRootEngine(ring5.variable("x")).nu(unit_ideal(ring5), 1)
        with pytest.raises(DomainError, match="radical"):
            FrobeniusRootEngine(ring5.variable("x")).nu(ideal_of(ring5, "y"), 1)


class TestFThreshold:
    def test_known_values(self, ring5, quartic5):
        m = maximal_ideal(ring5)
        c = TestIdealComputer(quartic5, 6)
        assert c.f_threshold(m) == F(7, 12)
        assert c.f_threshold(ideal_of(ring5, "x^2", "y")) == F(4, 5)
        assert c.f_threshold(unit_ideal(ring5)) == 0

    def test_agrees_with_fpt(self, ring5, quartic5):
        c = TestIdealComputer(quartic5, 6)
        assert c.f_threshold(maximal_ideal(ring5)) == c.fpt()

    def test_cap_exhaustion(self, ring5):
        x = ring5.variable("x")
        with pytest.raises(InfeasibleError):
            TestIdealComputer(x, 1).f_threshold(ideal_of(ring5, "y"), cap=F(3))

    def test_cap_is_evaluated_only_when_the_search_reaches_it(self, ring5, monkeypatch):
        # the threshold of x for (x^5) is 5, inside the window (0, 7]: level 0
        # gallops 1, 2, 4, 8 and bisects (4, 8], so it ends at 5 < 7 and
        # tau(f^7) is never asked for; only the answer goes through ideal_at
        asked = []
        ideal_at = TestIdealComputer.ideal_at
        monkeypatch.setattr(
            TestIdealComputer, "ideal_at", lambda c, lam: asked.append(lam) or ideal_at(c, lam)
        )
        c = TestIdealComputer(ring5.variable("x"), 3)
        assert c.f_threshold(ideal_of(ring5, "x^5"), cap=7) == 5
        assert asked == [5]

    def test_above_one(self, ring5, quartic5):
        # tau drops inside (f)*m only beyond the first Skoda translate
        target = Ideal(ring5, tuple(quartic5 * g for g in maximal_ideal(ring5).generators))
        value = TestIdealComputer(quartic5, 6).f_threshold(target, cap=F(3))
        assert value == 1 + F(7, 12)

    @pytest.mark.parametrize(
        "poly, target, answers",
        [
            ("x^2", ("x",), [None, F(1, 2), F(1, 2), F(1, 2)]),
            ("x^2", ("x^4",), [None, None, F(2), F(2)]),
            ("x^2", ("x^5",), [None, None, None, F(5, 2)]),
            ("x^2", ("x^6",), [None, None, None, None]),
            ("x^4+y^3+x^2*y^2", ("x^2", "y"), [None, None, F(4, 5), F(4, 5)]),
        ],
    )
    def test_caps(self, ring5, poly, target, answers):
        # answers at the caps 0, 1/2, 2 and 5/2; None is InfeasibleError
        c = TestIdealComputer(parse_polynomial(poly, ring5))
        for cap, expected in zip((0, F(1, 2), 2, F(5, 2)), answers):
            if expected is None:
                with pytest.raises(InfeasibleError):
                    c.f_threshold(ideal_of(ring5, *target), cap)
            else:
                assert c.f_threshold(ideal_of(ring5, *target), cap) == expected


class TestLeastParameter:
    @pytest.mark.parametrize("lo, hi", [(0, 3), (F(1, 2), 3), (0, F(5, 2)), (F(1, 3), F(7, 4))])
    @pytest.mark.parametrize("target", [("x", "y"), ("x^2", "y"), ("x^5", "x*y", "y^2")])
    def test_wide_window_matches_unit_scan(self, ring5, quartic5, lo, hi, target):
        c = TestIdealComputer(quartic5, 6)
        # f*b: its threshold is past the first Skoda translate
        b = Ideal(ring5, tuple(quartic5 * g for g in ideal_of(ring5, *target).generators))
        scan, k = None, F(lo)
        while scan is None and k < hi:
            scan = least_parameter(c, b.contains_ideal, k, min(k + 1, F(hi)))
            k += 1
        assert least_parameter(c, b.contains_ideal, lo, hi) == scan

    def test_rejects_empty_window(self, quartic5):
        with pytest.raises(DomainError):
            least_parameter(TestIdealComputer(quartic5, 6), bool, 1, 1)

    def test_isolated_candidate_is_rechecked(self):
        # a duck-typed computer whose "ideal" at lam is lam itself, and at
        # the grid point k/p^e is k/p^e: 5 levels of 2-adic narrowing leave
        # (5/16, 11/32], whose one candidate for B = 2 is 1/3.  The family
        # jumps everywhere, so its left limit at lam reads just below lam,
        # and the certificate of TestIdealComputer confirms 1/3 for the
        # threshold 1/3 and refutes it for 17/50
        computer = SimpleNamespace(
            p=2, bound=2, ideal_at=lambda lam: lam, grid_ideal=lambda k, e: F(k, 2**e),
            left_limit_at=lambda lam: lam - F(1, 2**64),
        )
        computer.certified = lambda *args: TestIdealComputer.certified(computer, *args)
        assert least_parameter(computer, lambda lam: lam >= F(1, 3), 0, 1) == (F(1, 3), F(1, 3))
        with pytest.raises(DomainError, match="is not the least parameter"):
            least_parameter(computer, lambda lam: lam >= F(17, 50), 0, 1)

    def test_last_cell_gap_is_refused(self):
        # a duck-typed family with the jumps 0, 21/64, 1 at p = 2, B = 2:
        # 21/64 has the pair (6, 1), so it is no candidate.  Its last cell
        # (5/16, 11/32] holds 21/64 and the one candidate 1/3, with no jump
        # between 1/3 and the right end 11/32, so the grid ideal there
        # (engine.root_power, which the search once compared against)
        # agrees with tau(f^(1/3)); the left limit at 1/3 is already
        # nonzero, so the certificate refutes 1/3, and B = 2 is too small
        jumps = (F(0), F(21, 64), F(1))

        def tau(lam):
            return max(x for x in jumps if x <= lam)

        computer = SimpleNamespace(
            p=2, bound=2, ideal_at=tau, grid_ideal=lambda k, e: tau(F(k, 2**e)),
            left_limit_at=lambda lam: max(x for x in jumps if x < lam),
            engine=SimpleNamespace(root_power=lambda k, e: tau(F(k, 2**e))),
        )
        computer.certified = lambda *args: TestIdealComputer.certified(computer, *args)
        with pytest.raises(DomainError, match="too small"):
            least_parameter(computer, lambda ideal: ideal != 0, 0, 1)

    def test_level_zero_doubles_up_from_the_bottom(self, ring5):
        # the answer 4/5 lies far below hi = 100: level 0 evaluates the
        # integer 1 and stops, so neither f^100 nor a power near a midpoint
        # of (0, 100] is formed, and ideal_at sees only 4/5
        c = TestIdealComputer(parse_polynomial("x^2+y^3+x*y^2", ring5))
        asked, level0 = [], []
        ideal_at, grid_ideal = c.ideal_at, c.grid_ideal
        c.ideal_at = lambda lam: asked.append(lam) or ideal_at(lam)

        def spy(k, e):
            if e == 0:
                level0.append(k)
            return grid_ideal(k, e)

        c.grid_ideal = spy
        lam, ideal = least_parameter(c, maximal_ideal(ring5).contains_ideal, 0, 100)
        assert (lam, asked, level0) == (F(4, 5), [F(4, 5)], [1])
        assert ideal == ideal_at(lam)

    def test_walk_evaluates_each_jump_once(self, quartic5, monkeypatch):
        # the walk keeps the ideal least_parameter certified for each jump
        # instead of evaluating it again
        asked = []
        ideal_at = TestIdealComputer.ideal_at
        monkeypatch.setattr(
            TestIdealComputer, "ideal_at", lambda c, lam: asked.append(lam) or ideal_at(c, lam)
        )
        report = jumping_numbers_unit_interval(quartic5, 6)
        assert report.jumping_numbers == (0, F(7, 12), F(4, 5), F(11, 12))
        assert [asked.count(lam) for lam in report.jumping_numbers[1:]] == [1, 1, 1]


class TestGuesses:
    """A guess changes the work of a search, never its answer: a certified
    guess is the answer, and any other guess falls back to the search."""

    FAMILIES = [(7, "x^2 + y^3"), (5, "x^4 + y^3 + x^2*y^2"), (3, "x^2 + y^4"), (2, "x^3 + y^5")]
    # constancy pool queries whose f + h jumps where f does not
    MOVED = [
        (2, "x^2*y^2 + y^3 + x^2", "453338"),
        (3, "2*y^5 + 2*x^2", "231360"),
        (7, "2*x^2*y + 6*x*y^2 + 5*x^2 + 6*y^2", "680875"),
        (3, "2*x^6*y + 2*y^5 + x^2", "306416"),
    ]

    @staticmethod
    def _perturbed(p, text, seeds):
        """f's walk at B = ell and f + h for h in m^(ell+3), one h per seed."""
        ring = PolyRing(p, ["x", "y"])
        f = parse_polynomial(text, ring)
        ell = singularity_profile(f).ell
        base = jumping_numbers_unit_interval(f, ell)
        for seed in seeds:
            h = random_perturbation(ring, ell + 3, (seed, ell + 3, 0))
            yield base, f + h, ell

    @staticmethod
    def _same_walk(a, b):
        return all(
            getattr(a, name) == getattr(b, name)
            for name in ("jumping_numbers", "test_ideals", "fpt")
        )

    @pytest.mark.parametrize("p, text", FAMILIES)
    def test_perturbed_walk_given_the_base_jumps(self, p, text):
        for base, g, ell in self._perturbed(p, text, range(4)):
            searched = jumping_numbers_unit_interval(g, ell)
            guessed = jumping_numbers_unit_interval(g, ell, base.jumping_numbers)
            assert self._same_walk(guessed, searched)
            assert guessed.candidate_count < searched.candidate_count

    @pytest.mark.parametrize("p, text, seed", MOVED)
    def test_perturbed_walk_whose_jumps_move(self, p, text, seed):
        ((base, g, ell),) = self._perturbed(p, text, [seed])
        searched = jumping_numbers_unit_interval(g, ell)
        assert searched.jumping_numbers != base.jumping_numbers
        guessed = jumping_numbers_unit_interval(g, ell, base.jumping_numbers)
        assert self._same_walk(guessed, searched)

    def test_walk_given_its_own_jumps(self, quartic5, quartic5_report):
        # each search is one certificate: tau and the left limit at the
        # guess, the last one at 1
        report = jumping_numbers_unit_interval(quartic5, 6, quartic5_report.jumping_numbers)
        assert self._same_walk(report, quartic5_report)
        assert report.candidate_count == 2 * len(report.jumping_numbers)

    def test_walk_given_another_fs_jumps(self, quartic5, quartic5_report, cusp7):
        others = jumping_numbers_unit_interval(cusp7, 2).jumping_numbers  # 0, 5/6
        report = jumping_numbers_unit_interval(quartic5, 6, others + (F(1, 5), 3))
        assert self._same_walk(report, quartic5_report)

    @pytest.mark.parametrize(
        "lo, guess",
        [
            (0, F(1, 2)),  # a candidate, but no jump
            (0, 1),  # the window's end, past the answer
            (0, F(5, 6)),  # a jump of another f
            (0, F(4, 5)),  # a later jump
            (F(7, 12), F(7, 12)),  # at lo
            (F(7, 12), F(1, 2)),  # below lo
            (0, F(3, 2)),  # past hi
        ],
    )
    def test_wrong_guess_returns_the_searched_answer(self, quartic5, lo, guess):
        c = TestIdealComputer(quartic5, 6)
        current = c.ideal_at(lo)
        predicate = current.__ne__
        searched = least_parameter(c, predicate, lo, 1)
        assert least_parameter(c, predicate, lo, 1, guess) == searched
        assert searched[0] == (F(7, 12) if lo == 0 else F(4, 5))

    def test_right_guess_is_certified(self, quartic5):
        c = TestIdealComputer(quartic5, 6)
        inside_m = maximal_ideal(quartic5.ring).contains_ideal
        found = least_parameter(c, inside_m, 0, 1, F(7, 12))
        assert c.evaluations == 2  # tau and the left limit at the guess
        assert found == (F(7, 12), c.ideal_at(F(7, 12)))
        # the fpt is certified, but past the window's end, which the search
        # answers with None
        assert least_parameter(c, inside_m, 0, F(1, 2), F(7, 12)) is None
        assert c.certified(inside_m, F(4, 5)) is None
        assert c.certified(inside_m, F(1, 2)) is None


class TestVerifyChecks:
    FPT_CHECK = "interval-narrowed fpt matches the candidate walk"

    @pytest.mark.parametrize(
        "p, text, bound",
        [
            (5, "x^4 + y^3 + x^2*y^2", 6),
            (7, "x^2 + y^3", 2),
            (3, "x^2 + y^3", None),
            (2, "x^2 + y^3", None),
            (7, "x^3 + y^3", 4),
            (5, "x^2 + y^5", None),
        ],
    )
    def test_fpt_check_catches_a_search_fault(self, monkeypatch, p, text, bound):
        # a least_parameter that answers the next candidate above each true
        # answer, with its ideal: the walk's fpt is then too large, and a
        # rerun of the faulty search agrees with it, but the certificate at
        # the fpt does not hold
        f = parse_polynomial(text, PolyRing(p, ["x", "y"]))
        true_fpt = TestIdealComputer(f, bound).fpt()
        least = testideal.least_parameter

        def next_candidate(computer, predicate, lo, hi, guess=None):
            found = least(computer, predicate, lo, hi, guess)
            if found is None or found[0] == hi:
                return found
            lam = candidates_left_open(computer.p, computer.bound, found[0], hi)[0]
            return lam, computer.ideal_at(lam)

        assert dict(jumping_numbers_unit_interval(f, bound).checks())[self.FPT_CHECK]
        monkeypatch.setattr(testideal, "least_parameter", next_candidate)
        report = jumping_numbers_unit_interval(f, bound)
        assert report.fpt > true_fpt and report.computer.fpt() == report.fpt
        assert not dict(report.checks())[self.FPT_CHECK]


class TestGridNarrowing:
    """least_parameter narrows on the p-adic grid k/p^e, where
    tau(f^(k/p^e)) = root_e(f^k) needs no bound; narrowing_oracle keeps the
    Fraction narrowing that evaluated every split point through ideal_at."""

    @staticmethod
    def _cases():
        """Three distinct random bivariate f per prime, each with at least two
        positive jumps in (0, 1) at a default bound of at most 6."""
        rng = random.Random(21)
        for p in (2, 3, 5, 7):
            ring = PolyRing(p, ["x", "y"])
            seen = set()
            while len(seen) < 3:
                f = random_poly(rng, ring, 5, 4, min_deg=2)
                if f in seen or default_bound(f) > 6:
                    continue
                report = jumping_numbers_unit_interval(f, default_bound(f))
                if len(report.jumping_numbers) >= 3:
                    seen.add(f)
                    yield report

    def test_matches_the_fraction_narrowing(self):
        searched = 0
        for report in self._cases():
            c, f = report.computer, report.poly

            def same(predicate, lo, hi):
                nonlocal searched
                searched += 1
                expected = narrowing_oracle.least_parameter(c, predicate, lo, hi)
                if expected is not None:
                    expected = (expected, c.ideal_at(expected))
                assert least_parameter(c, predicate, lo, hi) == expected, (str(f), lo, hi)

            same(maximal_ideal(f.ring).contains_ideal, 0, 1)
            for lam, ideal in zip(report.jumping_numbers, report.test_ideals):
                same(lambda J, ideal=ideal: J != ideal, lam, 1)
            # F-threshold windows wider than 1 from a fractional lo: b and f*b,
            # whose threshold lies past the first Skoda translate
            for target in (("x", "y"), ("x", "y^2")):
                b = ideal_of(f.ring, *target)
                fb = Ideal(f.ring, tuple(f * g for g in b.generators))
                for ideal, lo, hi in product((b, fb), (F(1, 2), F(1, 3)), (3, F(5, 2))):
                    if not ideal.contains_ideal(c.ideal_at(lo)):
                        same(ideal.contains_ideal, lo, hi)
        assert searched > 100

    @pytest.mark.parametrize("bound", [1, 2, None])
    def test_ideal_at_only_at_hi_and_the_candidate(self, quartic5, cusp7, bound):
        # the cusp's fpt 5/6 is a candidate for B = 1 at p = 7; the default
        # bound runs on the quartic, whose default B is 6
        f = quartic5 if bound is None else cusp7
        c = TestIdealComputer(f, bound)
        asked = []
        ideal_at = c.ideal_at
        c.ideal_at = lambda lam: asked.append(lam) or ideal_at(lam)
        lam, ideal = least_parameter(c, maximal_ideal(f.ring).contains_ideal, 0, 1)
        assert lam == (F(7, 12) if bound is None else F(5, 6))
        assert asked == [1, lam]
        assert ideal == ideal_at(lam)
        assert c.evaluations > 2  # the grid points are counted too

    @pytest.mark.parametrize("bound", [1, 2, 3, None])
    def test_grid_ideal_is_the_ideal_at_the_grid_point(self, quartic5, bound):
        c = TestIdealComputer(quartic5, bound)
        for e in range(4):
            for k in (0, 1, 2, 3, 4, 7, 12, 24, 25, 31, 60, 125, 130):
                assert c.grid_ideal(k, e) == c.ideal_at(F(k, 5**e)), (k, e)


class TestBounds:
    def test_degree_bound(self, ring5, quartic5):
        assert degree_bound(quartic5) == 15
        assert degree_bound(ring5.variable("x")) == 3

    def test_length_bound(self, ring5, quartic5):
        assert singularity_profile(quartic5).ell == 6
        assert singularity_profile(parse_polynomial("x^2", ring5)).ell is None

    def test_default_bound(self, ring5, quartic5, cusp7):
        assert default_bound(quartic5) == 6
        assert default_bound(cusp7) == 2
        assert default_bound(ring5.variable("x")) == 3
        for f in (quartic5, cusp7, ring5.variable("x")):
            assert TestIdealComputer(f).bound == default_bound(f)
        with pytest.raises(DomainError):
            TestIdealComputer(quartic5, 0).fpt()
        with pytest.raises(DomainError):
            TestIdealComputer(quartic5, 0).f_threshold(maximal_ideal(ring5))
        with pytest.raises(DomainError):
            TestIdealComputer(quartic5, 0).f_threshold(unit_ideal(ring5))

    def test_default_bound_without_a_computer(self, ring5):
        # Jac(f) is zero or the unit ideal, so ell is None and the bound is
        # the degree bound C(2 + deg f, 2); a computer would reject the zero
        # polynomial, default_bound does not
        assert default_bound(ring5.zero()) == 1
        assert default_bound(ring5.one()) == 1
        assert default_bound(parse_polynomial("x + 1", ring5)) == 3
        with pytest.raises(DomainError):
            TestIdealComputer(ring5.zero())

    def test_evaluation_budget(self, monkeypatch):
        # the depth comes from lam: tau(f^(1/2^e)) at p = 2 is the grid point
        # root_e(f), so e = MAX_DIGITS is admitted and one more is refused
        # before any digit step, as is the left limit at 1/2^MAX_DIGITS,
        # whose first block takes it one digit deeper
        ring = PolyRing(2, ["x", "y"])
        cusp = parse_polynomial("x^2+y^3", ring)
        limit = basep.MAX_DIGITS
        assert TestIdealComputer(cusp, 1).ideal_at(F(1, 2**limit)).is_unit()  # fpt is 1/2
        evaluated = spy(monkeypatch, FrobeniusRootEngine, "root_power")
        c = TestIdealComputer(cusp, 1)
        with pytest.raises(InfeasibleError, match="20001 digit steps"):
            c.ideal_at(F(1, 2 ** (limit + 1)))
        with pytest.raises(InfeasibleError, match="passes the limit of 20000 digits"):
            c.left_limit_at(F(1, 2**limit))
        assert (evaluated, c.evaluations) == ([], 0)


class TestFastFpt:
    def test_known_values(self, ring5, ring7, quartic5, cusp7):
        assert TestIdealComputer(quartic5).fpt() == F(7, 12)
        assert TestIdealComputer(cusp7).fpt() == F(5, 6)
        assert TestIdealComputer(ring5.variable("x")).fpt() == 1

    def test_agrees_with_walk(self, ring7, quartic5, cusp7):
        cases = [
            (quartic5, 6),
            (cusp7, 2),
            (parse_polynomial("x^3 + y^3", ring7), 4),
        ]
        rng = random.Random(33)
        for p in (2, 3, 5):
            ring = PolyRing(p, ["x", "y"])
            for _ in range(12):
                f = random_poly(rng, ring, 4, 4, min_deg=1)
                bound = default_bound(f)
                if bound <= 6:
                    cases.append((f, bound))
        assert len(cases) > 10
        for f, bound in cases:
            jumps, ideals, threshold = walk_oracle.walk(f, bound)
            report = jumping_numbers_unit_interval(f, bound)
            assert report.jumping_numbers == jumps
            assert report.test_ideals == ideals
            assert report.fpt == threshold
            c = TestIdealComputer(f, bound)
            assert c.fpt() == threshold
            assert c.f_threshold(maximal_ideal(f.ring)) == threshold

    def test_rejects_nonvanishing(self, ring5):
        with pytest.raises(DomainError):
            TestIdealComputer(parse_polynomial("x + 1", ring5)).fpt()


class TestDiagonalClosedForm:
    def test_agrees_with_fpt(self):
        cases = 0
        for p in (2, 3, 5, 7, 11):
            ring = PolyRing(p, ["x", "y"])
            for a in range(2, 9):
                for b in range(a, 10):
                    if a % p and b % p:
                        f = parse_polynomial(f"x^{a} + y^{b}", ring)
                        assert TestIdealComputer(f).fpt() == diagonal_fpt(a, b, p), (p, a, b)
                        cases += 1
        assert cases == 113

    def test_large_bound(self, ring5):
        f = parse_polynomial("x^12 + y^13", ring5)
        assert default_bound(f) == 105
        assert diagonal_fpt(12, 13, 5) == F(4, 25)
        assert TestIdealComputer(f).fpt() == F(4, 25)

    def test_agrees_with_fpt_in_three_and_four_variables(self):
        # every exponent vector in 2..6 prime to p, up to order, at p <= 7
        denominators = set()
        for names in (["x", "y", "z"], ["x", "y", "z", "w"]):
            for p in (2, 3, 5, 7):
                ring = PolyRing(p, names)
                prime_to_p = [a for a in range(2, 7) if a % p]
                for a in combinations_with_replacement(prime_to_p, len(names)):
                    f = parse_polynomial(" + ".join(f"{v}^{e}" for v, e in zip(names, a)), ring)
                    expected = diagonal_hypersurface_fpt(a, p)
                    assert TestIdealComputer(f).fpt() == expected, (p, a)
                    denominators.add(expected.denominator)
        # fpt 1, sums Σ 1/a_i with no carry, and carries at the first and second digit
        assert denominators == {1, 2, 3, 4, 5, 6, 7, 49}

    def test_closed_form_cases(self):
        # no carry: 1/4 is 0.111... in base 5, three digits 1 add to 3 < 5
        assert diagonal_hypersurface_fpt((4, 4, 4), 5) == F(3, 4)
        # 1/2 is 0.111... in base 3, and three digits 1 carry at once
        assert diagonal_hypersurface_fpt((2, 2, 2), 3) == 1
        # 1/3 is 0.1313... in base 5: the first digits add to 3, the second carry
        assert diagonal_hypersurface_fpt((3, 4, 4), 5) == F(4, 5)
        assert diagonal_hypersurface_fpt((12, 13), 5) == diagonal_fpt(12, 13, 5) == F(4, 25)
        for bad in [(), (2, 5), (1, 3, 4)]:
            with pytest.raises(ValueError):
                diagonal_hypersurface_fpt(bad, 5)


class TestMonomialClosedForm:
    # Hara-Yoshida (2003): tau((x^a * y^b)^lam) = (x^floor(a*lam) * y^floor(b*lam))
    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        a=st.integers(0, 4),
        b=st.integers(0, 4),
        lam=st.fractions(min_value=0, max_value=40, max_denominator=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_test_ideal(self, p, a, b, lam):
        assume(a + b > 0)
        f = PolyRing(p, ["x", "y"]).monomial((a, b))
        basis = TestIdealComputer(f).ideal_at(lam).basis()
        assert [g.terms() for g in basis] == [(((floor(a * lam), floor(b * lam)), 1),)]


class TestCuspClosedForm:
    def test_every_prime_to_103(self):
        # fpt(x^2 + y^3): 1/2 at p = 2, 2/3 at p = 3, and for p >= 5
        # 5/6 when p = 1 mod 3, 5/6 - 1/(6p) when p = 2 mod 3
        primes = [p for p in range(2, 104) if all(p % q for q in range(2, p))]
        assert len(primes) == 27
        for p in primes:
            if p == 2:
                expected = F(1, 2)
            elif p == 3:
                expected = F(2, 3)
            elif p % 3 == 1:
                expected = F(5, 6)
            else:
                expected = F(5, 6) - F(1, 6 * p)
            f = parse_polynomial("x^2 + y^3", PolyRing(p, ["x", "y"]))
            assert TestIdealComputer(f).fpt() == expected, p


class TestBoundTooSmall:
    # A bound below the number of jumps must fail, never answer wrongly.
    def test_fpt(self):
        f = parse_polynomial("x^3*y^2 + x*y^4", PolyRing(2, ["x", "y"]))
        assert TestIdealComputer(f).fpt() == F(3, 8)
        with pytest.raises(DomainError, match="too small"):
            TestIdealComputer(f, 2).fpt()

    def test_walk(self):
        f = parse_polynomial("2*x*y^3 + x^2*y + 2*y^3", PolyRing(3, ["x", "y"]))
        with pytest.raises(DomainError, match="too small"):
            jumping_numbers_unit_interval(f, 1)

    def test_walk_at_the_default_bound(self):
        ring = PolyRing(3, ["x", "y"])
        f = parse_polynomial("x^2*y^2 + x*y^3", ring)
        report = jumping_numbers_unit_interval(f, default_bound(f))
        assert report.jumping_numbers == (0, F(1, 2), F(2, 3))
        assert report.test_ideals == (
            unit_ideal(ring),
            ideal_of(ring, "y"),
            ideal_of(ring, "y^2", "x*y"),
        )

    def test_walk_that_answers_wrongly(self):
        # ideal_at(1/2) at s = u + v*B = 1 reads (y^2, x*y), past the next
        # jump 2/3, and so did the walk once: jumps 0, 1/2 with that ideal.
        # Evaluation now reads its depth off lam alone, so 1/2 is certified
        # with its ideal (y), and the search for the next jump 2/3, no
        # candidate for B = 1, shows that B = 1 is too small
        f = parse_polynomial("x^2*y^2 + x*y^3", PolyRing(3, ["x", "y"]))
        with pytest.raises(DomainError, match="too small"):
            jumping_numbers_unit_interval(f, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda c: c.ideal_at(Fraction(-1, 2)), "test ideal parameters must be >= 0"),
        (lambda c: c.left_limit_at(0), "left limits require a positive parameter"),
        (lambda c: c.is_jump(0), "jumping-number tests require a positive parameter"),
    ],
    ids=["ideal_at", "left_limit_at", "is_jump"],
)
def test_guards(quartic5, call, message):
    with pytest.raises(DomainError) as err:
        call(TestIdealComputer(quartic5, 6))
    assert str(err.value) == message
