import random
from fractions import Fraction

import pytest

from fptkit import (
    DomainError,
    Ideal,
    PolyRing,
    Polynomial,
    bracket_power,
    frobenius_root,
    frobenius_root_ideal,
    groebner,
    jumping_numbers_unit_interval,
    normal_form,
    parse_polynomial,
    power,
)
from fptkit import TestIdealComputer as Computer
from fptkit.froot import FrobeniusRootEngine

from conftest import random_poly


def ideal_of(ring, *texts):
    return Ideal(ring, tuple(parse_polynomial(t, ring) for t in texts))


class TestRootOfPolynomial:
    def test_examples(self, ring5):
        x = ring5.variable("x")
        assert frobenius_root(power(x, 7), 1) == ideal_of(ring5, "x")
        assert frobenius_root(parse_polynomial("x^4*y^3", ring5), 1).is_unit()
        root = frobenius_root(parse_polynomial("x^5 + y^5", ring5), 1)
        assert root == ideal_of(ring5, "x + y")

    def test_requires_positive_level(self, ring5):
        with pytest.raises(DomainError):
            frobenius_root(ring5.one(), 0)

    def test_minimality(self, ring5):
        rng = random.Random(21)
        for _ in range(30):
            f = random_poly(rng, ring5, 6, 4)
            for e in (1, 2):
                root = frobenius_root(f, e)
                assert normal_form(f, bracket_power(root, e)).is_zero()
                basis = root.basis()
                if len(basis) > 1:
                    for drop in range(len(basis)):
                        smaller = Ideal(
                            ring5, tuple(g for i, g in enumerate(basis) if i != drop)
                        )
                        assert not normal_form(f, bracket_power(smaller, e)).is_zero()


class TestRootOfIdeal:
    def test_examples(self, ring5):
        root = frobenius_root_ideal(ideal_of(ring5, "x^7", "y^7"), 1)
        assert root == ideal_of(ring5, "x", "y")
        assert frobenius_root_ideal(Ideal.unit(ring5), 3).is_unit()
        root = frobenius_root_ideal(ideal_of(ring5, "x^5 + y^5", "x^10"), 1)
        assert root == ideal_of(ring5, "x + y", "x^2")

    def test_composition(self, ring5):
        rng = random.Random(22)
        for _ in range(40):
            J = Ideal(ring5, tuple(random_poly(rng, ring5, 5, 3) for _ in range(2)))
            a = rng.randint(1, 2)
            b = rng.randint(1, 2)
            lhs = frobenius_root_ideal(frobenius_root_ideal(J, a), b)
            rhs = frobenius_root_ideal(J, a + b)
            assert lhs == rhs

    def test_generator_set_independence(self, ring5):
        rng = random.Random(23)
        for _ in range(40):
            g1 = random_poly(rng, ring5, 4, 3)
            g2 = random_poly(rng, ring5, 4, 3)
            J = Ideal(ring5, (g1, g2))
            K = Ideal(ring5, (g1, g2, g1 + g2 * random_poly(rng, ring5, 2, 2)))
            assert J == K
            for e in (1, 2):
                assert frobenius_root_ideal(J, e) == frobenius_root_ideal(K, e)


class TestRootPower:
    def test_examples(self, ring5):
        x = ring5.variable("x")
        assert FrobeniusRootEngine(x).root_power(30, 2) == ideal_of(ring5, "x")

    def test_huge_scale_exponent(self, ring5, quartic5):
        s = 12
        n = -((-(5**s) * 7) // 12)  # ceil(5^12 * 7/12)
        result = FrobeniusRootEngine(quartic5).root_power(n, s)
        assert result == ideal_of(ring5, "x", "y")

    def test_recursion_matches_direct(self):
        rng = random.Random(24)
        for p in (2, 3, 5):
            ring = PolyRing(p, ["x", "y"])
            for _ in range(14):
                f = random_poly(rng, ring, 3, 3)
                n = rng.randint(0, 40)
                e = rng.randint(1, 3)
                via_recursion = FrobeniusRootEngine(f).root_power(n, e)
                via_expansion = frobenius_root(power(f, n), e) if n else frobenius_root_ideal(
                    Ideal.unit(ring), e
                )
                assert via_recursion == via_expansion, (p, str(f), n, e)

    def test_scaling_rule(self, ring5):
        # root_1 of (g^p * h) equals g * root_1(h)
        rng = random.Random(25)
        for _ in range(40):
            g = random_poly(rng, ring5, 3, 3)
            h = random_poly(rng, ring5, 3, 3)
            lhs = frobenius_root_ideal(Ideal(ring5, (power(g, 5) * h,)), 1)
            rhs = Ideal(ring5, tuple(g * r for r in frobenius_root(h, 1).generators))
            assert lhs == rhs

    def test_monotone_in_exponent(self, ring5):
        rng = random.Random(26)
        for _ in range(20):
            f = random_poly(rng, ring5, 4, 3)
            e = rng.randint(1, 3)
            n = rng.randint(0, 30)
            n2 = n + rng.randint(1, 10)
            engine = FrobeniusRootEngine(f)
            bigger = engine.root_power(n, e)
            smaller = engine.root_power(n2, e)
            assert bigger.contains_ideal(smaller)

    def test_engine_reuse_matches_fresh(self, ring5, quartic5):
        engine = FrobeniusRootEngine(quartic5)
        for n, e in [(7, 1), (30, 2), (100, 3), (624, 4)]:
            assert engine.root_power(n, e) == FrobeniusRootEngine(quartic5).root_power(n, e)


class TestEngineFixedWork:
    def test_unit_ideal_reduced_once(self, monkeypatch, quartic5):
        # The start state (1) is interned once per engine, not once per
        # evaluation: the rest are the walk's tau(f^0) and the transitions
        # whose value is (1).
        buchberger = groebner._buchberger
        unit_runs = []

        def counted(gens):
            gens = tuple(gens)
            if len(gens) == 1 and gens[0].is_one():
                unit_runs.append(gens)
            return buchberger(gens)

        monkeypatch.setattr(groebner, "_buchberger", counted)
        report = jumping_numbers_unit_interval(quartic5, None)
        assert report.candidate_count > 100
        assert len(unit_runs) <= 5

    @pytest.mark.parametrize(
        "p, text",
        [(p, "x^3 + x*y^2 + 2*y^4 + x^2*y") for p in (2, 3, 5, 7, 11, 13)]
        + [(101, "x^2 + y^3"), (1009, "x^2*y")],
    )
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_power_table_matches_power(self, p, text, order):
        f = parse_polynomial(text, PolyRing(p, ["x", "y"]))
        digits = list(range(p))
        if order == "descending":
            digits.reverse()
        elif order == "shuffled":
            random.Random(p).shuffle(digits)
        engine = FrobeniusRootEngine(f)
        for d in digits:
            assert engine._f_power(d) == power(f, d), d

    def test_cusp_fpt_products(self, monkeypatch):
        # Each digit power is one product with a cached neighbour, not a
        # binary powering from scratch.
        multiply = Polynomial.__mul__
        products = []

        def counted(a, b):
            products.append(None)
            return multiply(a, b)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        cusp = parse_polynomial("x^2 + y^3", PolyRing(101, ["x", "y"]))
        assert Computer(cusp).fpt() == Fraction(84, 101)
        assert len(products) <= 60
