import random
from fractions import Fraction

import pytest

from fptkit import (
    DomainError,
    Ideal,
    InfeasibleError,
    PolyRing,
    Polynomial,
    TestIdealComputer,
    bracket_power,
    frobenius_root_ideal,
    groebner,
    jumping_numbers_unit_interval,
    normal_form,
    parse_polynomial,
    power,
)
from fptkit.froot import FrobeniusRootEngine

from conftest import random_poly
from root_oracle import root_generators, split_terms


def ideal_of(ring, *texts):
    return Ideal(ring, tuple(parse_polynomial(t, ring) for t in texts))


class TestRootOfPolynomial:
    def test_examples(self, ring5):
        x = ring5.variable("x")
        assert frobenius_root_ideal(Ideal(ring5, (power(x, 7),)), 1) == ideal_of(ring5, "x")
        assert frobenius_root_ideal(ideal_of(ring5, "x^4*y^3"), 1).is_unit()
        root = frobenius_root_ideal(ideal_of(ring5, "x^5 + y^5"), 1)
        assert root == ideal_of(ring5, "x + y")

    def test_requires_positive_level(self, ring5):
        with pytest.raises(DomainError):
            frobenius_root_ideal(Ideal.unit(ring5), 0)

    def test_minimality(self, ring5):
        rng = random.Random(21)
        for _ in range(30):
            f = random_poly(rng, ring5, 6, 4)
            for e in (1, 2):
                root = frobenius_root_ideal(Ideal(ring5, (f,)), e)
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
                via_expansion = frobenius_root_ideal(Ideal(ring, (power(f, n),)), e)
                assert via_recursion == via_expansion, (p, str(f), n, e)

    def test_scaling_rule(self, ring5):
        # root_1 of (g^p * h) equals g * root_1(h)
        rng = random.Random(25)
        for _ in range(40):
            g = random_poly(rng, ring5, 3, 3)
            h = random_poly(rng, ring5, 3, 3)
            lhs = frobenius_root_ideal(Ideal(ring5, (power(g, 5) * h,)), 1)
            root_h = frobenius_root_ideal(Ideal(ring5, (h,)), 1)
            rhs = Ideal(ring5, tuple(g * r for r in root_h.generators))
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

    def test_zero_polynomial(self, ring5):
        # every state after the first nonzero digit is the zero ideal,
        # whose reduced basis is empty
        engine = FrobeniusRootEngine(ring5.zero())
        assert engine.root_power(6, 2) == Ideal(ring5) == engine.root_power(1, 1)
        assert engine.root_power(0, 3).is_unit()

    def test_equal_states_are_one_object(self, ring5):
        # root_2(x^30) and root_2(x^35) are both (x), reached through
        # different digits; the engine interns it once
        engine = FrobeniusRootEngine(ring5.variable("x"))
        a, b = engine.root_power(30, 2), engine.root_power(35, 2)
        assert a == ideal_of(ring5, "x") and a is b
        assert set(engine._states) == {Ideal.unit(ring5), a}
        assert all(state is J for J, state in engine._states.items())

    def test_degree_past_the_packed_limit(self):
        # the monomial states of root_31(x^((2^30+1)(2^31-1))) over F_2 are
        # x^(2^30 - 2^(30-k)); at the last step x^(2^30-1) * x^(2^30+1) has
        # degree 2^31, past the limit, which must raise, not wrap to (1)
        ring = PolyRing(2, ["x"])
        engine = FrobeniusRootEngine(power(ring.variable("x"), 2**30 + 1))
        assert engine.root_power(2**30 - 1, 30) == Ideal(ring, (power(ring.variable("x"), 2**30 - 1),))
        with pytest.raises(InfeasibleError):
            engine.root_power(2**31 - 1, 31)

    def test_engine_reuse_matches_fresh(self, ring5, quartic5):
        engine = FrobeniusRootEngine(quartic5)
        for n, e in [(7, 1), (30, 2), (100, 3), (624, 4)]:
            assert engine.root_power(n, e) == FrobeniusRootEngine(quartic5).root_power(n, e)


def count_buchberger(monkeypatch) -> list:
    """A list that gains one entry per run of groebner._buchberger."""
    buchberger = groebner._buchberger
    runs = []

    def counted(gens):
        runs.append(None)
        return buchberger(gens)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    return runs


class TestMonomialStep:
    """Roots against the root oracle on exponent tuples, and the kernel
    runs they make."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    def test_matches_groebner_path(self, monkeypatch, p, n):
        runs = count_buchberger(monkeypatch)
        ring = PolyRing(p, ["x", "y", "z"][:n])
        rng = random.Random(f"{p}/{n}")
        x = ring.variable(0)
        # x and x^(p+1) share a residue class, so f's own step needs the kernel
        polys = [random_poly(rng, ring, 3, 3, min_deg=1), x + power(x, p + 1)]
        # (1), (x_1^2p, ..., x_n^2p) and seeded monomial ideals
        states = [(), [tuple(2 * p if j == i else 0 for j in range(n)) for i in range(n)]]
        for _ in range(3):
            states.append([
                tuple(rng.randrange(2 * p) for _ in range(n)) for _ in range(rng.randint(1, 3))
            ])
        outcomes = set()
        for f in polys:
            engine = FrobeniusRootEngine(f)
            distinct = dict.fromkeys(
                engine._intern(Ideal(ring, [ring.monomial(a) for a in exponents] or [ring.one()]))
                for exponents in states
            )
            for J in distinct:
                for d in range(p):
                    fd = engine._f_power(d)
                    expected = Ideal(ring, root_generators([fd * g for g in J.basis()], p))
                    expected.basis()
                    before = len(runs)
                    got = engine._step(J, d)
                    assert got == expected, (str(f), str(J), d)
                    assert got is engine._states[expected]
                    # a + b and a + b' share a residue class exactly when b
                    # and b' do, so the kernel runs once exactly when two
                    # monomials of f^d share one
                    shared = len(split_terms(fd, p)) < fd.term_count()
                    assert len(runs) - before == shared
                    if shared:
                        outcomes.add("kernel")
                    else:
                        outcomes.add("unit" if got is engine._start else "monomial")
            assert all(state is J for J, state in engine._states.items())
        assert outcomes == {"unit", "monomial", "kernel"}

    def test_single_terms_from_a_non_monomial_state(self, monkeypatch, ring5):
        # x^d * (x^6 + y^7) puts its two terms in distinct residue classes
        # mod 5, so the root is a monomial ideal although the state is not
        engine = FrobeniusRootEngine(ring5.variable("x"))
        J = engine._intern(ideal_of(ring5, "x^6 + y^7"))
        runs = count_buchberger(monkeypatch)
        roots = [engine._step(J, d) for d in range(5)]
        assert runs == []
        for d, (got, x_power) in enumerate(zip(roots, ["x", "x", "x", "x", "x^2"])):
            fd = engine._f_power(d)
            expected = Ideal(ring5, root_generators([fd * g for g in J.basis()], 5))
            assert got == expected == ideal_of(ring5, x_power, "y"), d
            assert got is engine._states[expected]

    def test_root_of_single_terms_forms_no_basis(self, monkeypatch, ring5):
        runs = count_buchberger(monkeypatch)
        root = frobenius_root_ideal(ideal_of(ring5, "x^5 + y^7"), 1)
        assert [str(g) for g in root.basis()] == ["y", "x"]
        assert runs == []

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_root_ideal_matches_oracle(self, p):
        rng = random.Random(p)
        for names in (["x", "y"], ["x", "y", "z"]):
            ring = PolyRing(p, names)
            for _ in range(15):
                gens = [random_poly(rng, ring, 12, 4) for _ in range(rng.randint(1, 3))]
                for e in (1, 2):
                    expected = Ideal(ring, root_generators(gens, p**e))
                    assert frobenius_root_ideal(Ideal(ring, gens), e) == expected, (gens, e)


class TestEngineFixedWork:
    @pytest.mark.parametrize("search", ["quartic walk", "cusp fpt at p=101"])
    def test_monomial_transitions_skip_the_kernel(self, monkeypatch, quartic5, search):
        # Every transition of these searches starts from a monomial state
        # and splits into single terms, so none runs Buchberger.
        buchberger, step = groebner._buchberger, FrobeniusRootEngine._step
        inside, runs = [], []

        def counted(gens):
            if inside:
                runs.append(None)
            return buchberger(gens)

        def spied(engine, state, digit):
            inside.append(None)
            try:
                return step(engine, state, digit)
            finally:
                inside.pop()

        monkeypatch.setattr(groebner, "_buchberger", counted)
        monkeypatch.setattr(FrobeniusRootEngine, "_step", spied)
        if search == "quartic walk":
            assert jumping_numbers_unit_interval(quartic5, 6).candidate_count == 143
        else:
            cusp = parse_polynomial("x^2 + y^3", PolyRing(101, ["x", "y"]))
            assert TestIdealComputer(cusp).fpt() == Fraction(84, 101)
        assert runs == []

    def test_unit_ideal_reduced_once(self, monkeypatch, quartic5):
        # The start state (1) is interned once per engine, not once per
        # evaluation, and a transition whose value is (1) returns it without
        # the kernel: the only other reduction is the walk's tau(f^0).
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
        assert len(unit_runs) == 2

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
        assert TestIdealComputer(cusp).fpt() == Fraction(84, 101)
        assert len(products) <= 60
