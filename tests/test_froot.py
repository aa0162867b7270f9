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
from fptkit import froot
from fptkit.froot import FrobeniusRootEngine, _root

from conftest import random_poly, spy, unit_ideal
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
            frobenius_root_ideal(unit_ideal(ring5), 0)

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
        assert frobenius_root_ideal(unit_ideal(ring5), 3).is_unit()
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
        assert set(engine._states) == {unit_ideal(ring5), a}
        assert all(state is J for J, state in interned_states(engine))

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


def interned_states(engine):
    """(J, the engine's interned state equal to J) for each key J of its
    state table."""
    return [(J, engine._ideals[i]) for J, i in engine._states.items()]


def interned(engine, J):
    """The engine's interned state equal to J, added if new."""
    return engine._ideals[engine._intern(J)]


def state_for(engine, J):
    """The engine's interned state equal to J; KeyError if it has none."""
    return engine._ideals[engine._states[J]]


def step_of(engine, J, d):
    """The interned state root_1(f^d * J) for an interned state J."""
    return engine._ideals[engine._step(engine._states[J], d)]


class TestMonomialStep:
    """Roots against the root oracle on exponent tuples, and the kernel
    runs they make."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    def test_matches_groebner_path(self, monkeypatch, p, n):
        runs = spy(monkeypatch, groebner, "_buchberger")
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
                interned(engine, Ideal(ring, [ring.monomial(a) for a in exponents] or [ring.one()]))
                for exponents in states
            )
            for J in distinct:
                for d in range(p):
                    fd = engine._f_power(d)
                    split = root_generators([fd * g for g in J.basis()], p)
                    expected = Ideal(ring, split)
                    expected.basis()
                    before = len(runs)
                    got = step_of(engine, J, d)
                    assert got == expected, (str(f), str(J), d)
                    assert got is state_for(engine, expected)
                    # a + b and a + b' share a residue class exactly when b
                    # and b' do, so the kernel can run only when two
                    # monomials of f^d share one.  It runs exactly when the
                    # split terms leave two or more front-end rows and one
                    # of them has two or more terms: a step that leaves one
                    # row no longer reaches it (it ran on every shared step
                    # before the front end owned the exit)
                    rows, _ = groebner._front_end(ring, [t._packed for t in split])
                    kernel = len(rows) > 1 and any(g.term_count() > 1 for g in rows)
                    assert not kernel or len(split_terms(fd, p)) < fd.term_count()
                    assert len(runs) - before == kernel
                    if kernel:
                        outcomes.add("kernel")
                    else:
                        outcomes.add("unit" if got is state_for(engine, unit_ideal(ring)) else "monomial")
            assert all(state is J for J, state in interned_states(engine))
        assert outcomes == {"unit", "monomial", "kernel"}

    def test_single_terms_from_a_non_monomial_state(self, monkeypatch, ring5):
        # x^d * (x^6 + y^7) puts its two terms in distinct residue classes
        # mod 5, so the root is a monomial ideal although the state is not
        engine = FrobeniusRootEngine(ring5.variable("x"))
        J = interned(engine, ideal_of(ring5, "x^6 + y^7"))
        runs = spy(monkeypatch, groebner, "_buchberger")
        roots = [step_of(engine, J, d) for d in range(5)]
        assert runs == []
        for d, (got, x_power) in enumerate(zip(roots, ["x", "x", "x", "x", "x^2"])):
            fd = engine._f_power(d)
            expected = Ideal(ring5, root_generators([fd * g for g in J.basis()], 5))
            assert got == expected == ideal_of(ring5, x_power, "y"), d
            assert got is state_for(engine, expected)

    def test_root_of_single_terms_forms_no_basis(self, monkeypatch, ring5):
        runs = spy(monkeypatch, groebner, "_buchberger")
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


class TestMonomialCut:
    """The front end drops each term of a longer split term that a single
    split term's quotient divides, and the kernel sees only what the cut
    leaves."""

    @pytest.mark.parametrize(
        "p, gens, runs, expected",
        [
            # x + x*y: y divides x*y, which leaves x; no kernel
            (5, ["y^5", "x^5 + x^5*y^5"], 0, ["y", "x"]),
            # x^2 + x*y is cut to x^2 by y, and x^2 cuts x^3 + x to x
            (5, ["y^5", "x^10 + x^5*y^5", "x^15 + x^5"], 0, ["y", "x"]),
            # nothing divides x + x^2, and x*y is cut: y and x + x^2 meet in the kernel
            (5, ["y^5", "x^5 + x^10 + x^5*y^5"], 1, ["y", "x^2 + x"]),
            # a single split term of quotient 1 settles everything
            (5, ["x + x^6 + y"], 0, ["1"]),
            # 1 + y is cut to 1 by y
            (3, ["y^3", "1 + y^3"], 0, ["1"]),
        ],
        ids=["settles", "iterates", "survives", "quotient 1", "cut to 1"],
    )
    def test_cases_match_oracle(self, monkeypatch, p, gens, runs, expected):
        ring = PolyRing(p, ["x", "y"])
        polys = [parse_polynomial(t, ring) for t in gens]
        oracle = Ideal(ring, root_generators(polys, p))
        oracle.basis()
        kernel = spy(monkeypatch, groebner, "_buchberger")
        got = _root(ring, [g._packed for g in polys], p)
        assert [str(g) for g in got.basis()] == expected
        assert got == oracle
        assert len(kernel) == runs

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_mixed_monomials_match_oracle(self, p):
        # random monomials among the polynomials make the cut fire often
        rng = random.Random(f"cut/{p}")
        for names in (["x", "y"], ["x", "y", "z"]):
            ring = PolyRing(p, names)
            for _ in range(20):
                gens = [random_poly(rng, ring, 10, 4) for _ in range(rng.randint(1, 3))]
                gens += [random_poly(rng, ring, 8, 1, 1) for _ in range(rng.randint(1, 3))]
                for e in (1, 2):
                    q = p**e
                    expected = Ideal(ring, root_generators(gens, q))
                    before = [dict(g._packed) for g in gens]
                    got = _root(ring, [g._packed for g in gens], q)
                    assert got.basis() == expected.basis(), (gens, e)
                    # the caller's term dicts are left as they were
                    assert [g._packed for g in gens] == before, (gens, e)

    def test_perturbed_walk_step_skips_the_kernel(self, monkeypatch):
        # The perturbed walk of `constancy --char 5 --vars x,y
        # "4*x*y^5 + y^4 + 2*x^2" --samples 1 --seed 833036` steps from (x, y)
        # by the digit 3.  Two monomials of f^3 * x share a residue class, so
        # the step ran the kernel before the cut; the cut settles it.
        ring = PolyRing(5, ["x", "y"])
        engine = FrobeniusRootEngine(parse_polynomial("x^5*y + 4*x*y^5 + y^4 + 2*x^2", ring))
        J = interned(engine, ideal_of(ring, "x", "y"))
        products = [engine._f_power(3) * g for g in J.basis()]
        assert any(t.term_count() > 1 for g in products for t in split_terms(g, 5))
        runs = spy(monkeypatch, groebner, "_buchberger")
        got = step_of(engine, J, 3)
        assert runs == []
        assert got == Ideal(ring, root_generators(products, 5)) == ideal_of(ring, "x", "y")

    def test_kernel_runs_of_a_perturbed_walk(self, monkeypatch):
        # x^2 + 6y^4 perturbed by 3x^7 + 4x^2*y^5 over F_7: 12 runs before
        # the cut, and 6 before the final carry, the start state and the
        # walk's tau(f^0) became front-end roots; one-row roots skip the kernel
        f = parse_polynomial("3*x^7 + 4*x^2*y^5 + 6*y^4 + x^2", PolyRing(7, ["x", "y"]))
        runs = spy(monkeypatch, groebner, "_buchberger")
        report = jumping_numbers_unit_interval(f, None)
        assert report.jumping_numbers == (0, Fraction(5, 7))
        assert len(runs) == 1


class TestEngineFixedWork:
    @pytest.mark.parametrize("search", ["quartic walk", "cusp fpt at p=101"])
    def test_monomial_transitions_skip_the_kernel(self, monkeypatch, quartic5, search):
        # Every transition of these searches starts from a monomial state
        # and splits into single terms, so none runs Buchberger.  The cusp
        # search runs it once outside a step, so runs are read per step.
        kernel, step = spy(monkeypatch, groebner, "_buchberger"), FrobeniusRootEngine._step
        runs = []

        def bracketed(engine, state, digit):
            before = len(kernel)
            try:
                return step(engine, state, digit)
            finally:
                runs.extend(kernel[before:])

        monkeypatch.setattr(FrobeniusRootEngine, "_step", bracketed)
        if search == "quartic walk":
            assert jumping_numbers_unit_interval(quartic5, 6).candidate_count == 114
        else:
            cusp = parse_polynomial("x^2 + y^3", PolyRing(101, ["x", "y"]))
            assert TestIdealComputer(cusp).fpt() == Fraction(84, 101)
        assert runs == []

    def test_unit_ideal_reduced_once(self, monkeypatch, quartic5):
        # The start state (1) is interned once per engine, not once per
        # evaluation, and a transition whose value is (1) returns it without
        # the kernel.  The start state is the front end's root of (1) at
        # q = 1 and the walk's tau(f^0) is that state, so the kernel never
        # reduces (1) (was 2: the start state and a fresh (1) for tau(f^0)).
        runs = spy(monkeypatch, groebner, "_buchberger")
        report = jumping_numbers_unit_interval(quartic5, None)
        assert report.candidate_count > 100
        unit_runs = [gens for (gens,) in runs if len(gens) == 1 and gens[0].is_one()]
        assert len(unit_runs) == 0

    def test_walk_starts_from_state_zero(self, quartic5):
        report = jumping_numbers_unit_interval(quartic5, 6)
        assert report.test_ideals[0] is report.computer.engine.root_power(0, 0)
        assert report.test_ideals[0].is_unit()

    def test_carry_of_one_row_skips_the_kernel(self, monkeypatch, quartic5):
        # tau(f^1) is the carry f * 1: one front-end row, its own reduced basis
        engine = FrobeniusRootEngine(quartic5)
        runs = spy(monkeypatch, groebner, "_buchberger")
        got = engine.root_power(1, 0)
        assert runs == []
        assert got.basis() == (quartic5.monic(),)
        assert got is state_for(engine, Ideal(quartic5.ring, [quartic5]))

    def test_final_carry_is_formed_once(self, monkeypatch, quartic5):
        # each search of a walk whose level 0 reaches hi = 1 evaluates
        # tau(f^1); a carry taken before is one lookup on the state index
        # and N, like a step
        engine = FrobeniusRootEngine(quartic5)
        roots = spy(monkeypatch, froot, "_root")
        first = engine.root_power(1, 0)
        assert [q for _, _, q in roots] == [1]
        assert engine.root_power(1, 0) is first
        # 6 = 1 + 5: the digit 1 steps from (1) to tau(f^(1/5)) = (1), whose
        # carry 1 is the one kept above
        assert engine.root_power(6, 1) is first
        assert [q for _, _, q in roots] == [1, 5]

    def test_carry_of_single_terms_skips_the_kernel(self, monkeypatch):
        # f^13 = x^26*y^13 over F_5: the digit 3 steps from (1) to (x), and
        # the carry x * f^2 = x^5*y^2 is a single term
        ring = PolyRing(5, ["x", "y"])
        engine = FrobeniusRootEngine(parse_polynomial("x^2*y", ring))
        runs = spy(monkeypatch, groebner, "_buchberger")
        got = engine.root_power(13, 1)
        assert runs == []
        assert [str(g) for g in got.basis()] == ["x^5*y^2"]
        assert engine._ideals[engine._rows[0][3]] == ideal_of(ring, "x")

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
        products = spy(monkeypatch, Polynomial, "__mul__")
        cusp = parse_polynomial("x^2 + y^3", PolyRing(101, ["x", "y"]))
        assert TestIdealComputer(cusp).fpt() == Fraction(84, 101)
        assert len(products) <= 60


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda engine: engine.root_power(-1, 0), "root_power requires N >= 0 and e >= 0"),
        (lambda engine: engine.root_power(0, -1), "root_power requires N >= 0 and e >= 0"),
        (lambda engine: engine.nu(ideal_of(engine.ring, "x", "y"), -1), "nu requires e >= 0"),
    ],
    ids=["negative N", "negative e", "nu"],
)
def test_guards(quartic5, call, message):
    with pytest.raises(DomainError) as err:
        call(FrobeniusRootEngine(quartic5))
    assert str(err.value) == message
