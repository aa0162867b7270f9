import heapq
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptkit import (
    DomainError,
    Ideal,
    InfeasibleError,
    NotMPrimaryError,
    Polynomial,
    PolyRing,
    artinian_length,
    bracket_power,
    constancy_report,
    jacobian,
    maximal_ideal,
    maximal_ideal_power,
    normal_form,
    parse_polynomial,
    power,
)
from fptkit import groebner
from fptkit.groebner import _extend_ring, _lift, _reduce_full, _spoly, radical_member

from conftest import random_poly, spy
from groebner_oracle import _add_multiple as oracle_add_multiple
from groebner_oracle import _spoly as oracle_spoly
from groebner_oracle import grevlex_key, oracle_basis
from root_oracle import split_terms


def ideal_of(ring, *texts):
    return Ideal(ring, tuple(parse_polynomial(t, ring) for t in texts))


def random_ideal(rng, ring, n_gens=2, max_deg=3, max_terms=3, min_deg=1):
    return Ideal(
        ring,
        tuple(random_poly(rng, ring, max_deg, max_terms, min_deg) for _ in range(n_gens)),
    )


@pytest.fixture
def formed_spolys(monkeypatch):
    """The pairs whose S-polynomial the kernel forms while the test runs."""
    formed = []

    def counting_spoly(f, g):
        formed.append((f, g))
        return _spoly(f, g)

    monkeypatch.setattr(groebner, "_spoly", counting_spoly)
    return formed


# In two variables grevlex and graded lex agree; three variables tell them apart.
RING7_XYZ = PolyRing(7, ["x", "y", "z"])


def assert_buchberger_criterion(basis):
    # every S-polynomial of the basis reduces to zero
    for f, g in combinations(basis, 2):
        assert _reduce_full(_spoly(f, g), list(basis)).is_zero()


def assert_reduced_shape(basis):
    # no monomial of a basis element is divisible by another leading monomial
    for i, g in enumerate(basis):
        assert g.leading_coefficient() == 1
        others = [h for j, h in enumerate(basis) if j != i]
        for m, _ in g.terms():
            for h in others:
                lm = h.leading_monomial()
                assert not all(a <= b for a, b in zip(lm, m))


class TestReducedBasis:
    def test_already_reduced(self, ring5):
        J = ideal_of(ring5, "x", "y^2")
        assert [str(g) for g in J.basis()] == ["x", "y^2"]

    def test_linear_span(self, ring5):
        J = ideal_of(ring5, "x + y", "x - y")
        assert [str(g) for g in J.basis()] == ["y", "x"]

    def test_membership_oracle(self, ring5):
        # random combinations of the generators must reduce to zero
        J = ideal_of(ring5, "y - x^2", "x*y - 1")
        rng = random.Random(3)
        for _ in range(50):
            a = random_poly(rng, ring5, 3, 3)
            b = random_poly(rng, ring5, 3, 3)
            h = a * J.generators[0] + b * J.generators[1]
            assert normal_form(h, J).is_zero()
        assert not normal_form(ring5.one(), J).is_zero()

        J = ideal_of(RING7_XYZ, "y - x^2", "x*z - 1", "y*z - x")
        rng = random.Random(3)
        for _ in range(30):
            h = sum(
                (random_poly(rng, RING7_XYZ, 3, 3) * g for g in J.generators),
                RING7_XYZ.zero(),
            )
            assert normal_form(h, J).is_zero()
        assert not normal_form(RING7_XYZ.one(), J).is_zero()

    def test_buchberger_criterion(self, ring5):
        rng = random.Random(9)
        for _ in range(25):
            assert_buchberger_criterion(random_ideal(rng, ring5, n_gens=3).basis())
        rng = random.Random(9)
        for _ in range(25):
            assert_buchberger_criterion(random_ideal(rng, RING7_XYZ, n_gens=3).basis())

    def test_reduced_shape(self, ring5):
        rng = random.Random(10)
        for _ in range(25):
            assert_reduced_shape(random_ideal(rng, ring5).basis())
        rng = random.Random(10)
        for _ in range(25):
            assert_reduced_shape(random_ideal(rng, RING7_XYZ, n_gens=3).basis())

    def test_trivariate_golden(self):
        # graded lex would print x^2*z first
        ring = PolyRing(5, ["x", "y", "z"])
        f = parse_polynomial("x*z^2 + y^3 + x^2*z + y^2*z", ring)
        assert str(f) == "y^3 + x^2*z + y^2*z + x*z^2"
        J = ideal_of(ring, "x + y + z", "x*y + y*z + z*x", "x*y*z")
        assert J.to_json() == ["x + y + z", "y^2 + y*z + z^2", "z^3"]

    def test_heap_key_pops_largest_first(self):
        # the division heap holds negated packed monomials in heapq's min-heap
        ring = PolyRing(5, ["x", "y", "z", "w"])
        monomials = [m for m in product(range(4), repeat=4) if sum(m) < 4]
        heap = [-ring.pack(m) for m in monomials]
        heapq.heapify(heap)
        popped = [ring.unpack(-heapq.heappop(heap)) for _ in monomials]
        assert popped == sorted(monomials, key=grevlex_key, reverse=True)


class TestNormalForm:
    def test_examples(self, ring5):
        J = ideal_of(ring5, "x^2", "y^2")
        assert normal_form(parse_polynomial("x^2", ring5), J).is_zero()
        xy = parse_polynomial("x*y", ring5)
        assert normal_form(xy, J) == xy

    def test_standard_part_untouched(self, ring5):
        from fptkit import Polynomial

        J = ideal_of(ring5, "x^2", "y^2")
        rng = random.Random(5)
        for _ in range(20):
            # support inside the standard monomials {1, x, y, xy}
            f = Polynomial(
                ring5, {m: rng.randrange(5) for m in [(0, 0), (1, 0), (0, 1), (1, 1)]}
            )
            g = random_poly(rng, ring5, 2, 3)
            assert normal_form(f + g * parse_polynomial("x^2", ring5), J) == f


class TestIdealEquality:
    def test_examples(self, ring5):
        assert ideal_of(ring5, "x", "y") == ideal_of(ring5, "y", "x")
        assert ideal_of(ring5, "x") != ideal_of(ring5, "x^2")
        assert ideal_of(ring5, "x + y", "y") == ideal_of(ring5, "x", "y")

    def test_equivalence_relation(self, ring5):
        rng = random.Random(6)
        ideals = [random_ideal(rng, ring5) for _ in range(6)]
        for J in ideals:
            assert J == J
        for J in ideals:
            perm = Ideal(ring5, tuple(reversed(J.generators)))
            assert J == perm
            assert perm.basis() == J.basis()


class TestBracketPower:
    def test_examples(self, ring5):
        m = maximal_ideal(ring5)
        assert bracket_power(m, 1) == ideal_of(ring5, "x^5", "y^5")
        assert bracket_power(m, 0) == m
        r2 = PolyRing(2, ["x", "y"])
        J = Ideal(r2, (parse_polynomial("x + y", r2), parse_polynomial("y", r2)))
        assert bracket_power(J, 1) == ideal_of(r2, "x^2", "y^2")

    def test_generator_independence(self, ring5):
        rng = random.Random(7)
        for _ in range(30):
            J = random_ideal(rng, ring5)
            g1 = J.generators[0]
            g2 = J.generators[-1]
            redundant = Ideal(ring5, J.generators + (g1 + g2 * random_poly(rng, ring5, 2, 2),))
            assert J == redundant
            for e in (1, 2):
                assert bracket_power(J, e) == bracket_power(redundant, e)


class TestLength:
    def test_examples(self, ring5, quartic5):
        assert artinian_length(ideal_of(ring5, "x^2", "y^2")) == 4
        assert artinian_length(jacobian(quartic5)) == 6
        with pytest.raises(NotMPrimaryError):
            artinian_length(ideal_of(ring5, "x"))

    def test_unit_ideal(self, ring5):
        assert artinian_length(Ideal.unit(ring5)) == 0
        assert artinian_length(ideal_of(ring5, "x + 1", "x")) == 0

    def test_supported_off_origin(self, ring5):
        # zero-dimensional but not at the origin
        with pytest.raises(NotMPrimaryError):
            artinian_length(ideal_of(ring5, "x - 1", "y"))

    @pytest.mark.parametrize(
        "gens, message",
        [
            (("x",), "not zero-dimensional"),
            (("x - 1", "y"), "not supported only at the origin"),
            (("x^2 - x", "y"), "not supported only at the origin"),
        ],
    )
    def test_not_m_primary(self, ring5, gens, message):
        # (x) has no pure power of y; (x - 1, y) lies away from the origin;
        # (x^2 - x, y) meets it and the point (1, 0) too
        with pytest.raises(NotMPrimaryError, match=message):
            artinian_length(ideal_of(ring5, *gens))

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
    def test_monomial_box(self, ring5, a, b):
        x, y = ring5.gens()
        assert artinian_length(Ideal(ring5, (power(x, a), power(y, b)))) == a * b


class TestIdealOps:
    def test_sum_product_scale(self, ring5):
        x = ideal_of(ring5, "x")
        y = ideal_of(ring5, "y")
        assert Ideal(ring5, x.generators + y.generators) == ideal_of(ring5, "x", "y")
        product = Ideal(ring5, tuple(a * b for a in x.generators for b in y.generators))
        assert product == ideal_of(ring5, "x*y")
        f = parse_polynomial("x", ring5)
        scaled = Ideal(ring5, tuple(f * g for g in ideal_of(ring5, "x", "y").generators))
        assert scaled == ideal_of(ring5, "x^2", "x*y")

    def test_maximal_ideal_power(self, ring5):
        m3 = maximal_ideal_power(ring5, 3)
        assert [str(g) for g in m3.basis()] == ["y^3", "x*y^2", "x^2*y", "x^3"]
        assert maximal_ideal_power(ring5, 0).is_unit()
        # refused on the degree, before any generator is formed
        with pytest.raises(InfeasibleError):
            maximal_ideal_power(ring5, 2**31)


class TestColonAndRadical:
    def test_radical_member(self, ring5):
        J = ideal_of(ring5, "x^2", "y^3")
        assert radical_member(parse_polynomial("x", ring5), J)
        assert radical_member(parse_polynomial("x + y", ring5), J)
        assert not radical_member(parse_polynomial("x + 1", ring5), J)
        # the auxiliary variable is renamed when the ring already has "_t"
        ring = PolyRing(5, ["_t", "x"])
        J = ideal_of(ring, "_t^2", "x^3")
        assert radical_member(parse_polynomial("_t + x", ring), J)
        assert not radical_member(parse_polynomial("_t + 1", ring), J)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lift_prepends_a_zero_exponent(self, n):
        rng = random.Random(n)
        ring = PolyRing(5, ["x", "y", "z"][:n])
        big = _extend_ring(ring)
        for _ in range(20):
            f = random_poly(rng, ring, 4, 4)
            assert _lift(f, big) == Polynomial(big, {(0,) + m: c for m, c in f.terms()})


@st.composite
def operand_pairs(draw):
    """f and g over F_2, F_3 or F_5 in 1 to 3 variables; g is a random
    polynomial, a multiple of f, or a multiple of f plus a random
    polynomial, so that terms cancel in part or completely."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    ring = PolyRing(p, ["x", "y", "z"][:n])
    exponents = st.tuples(*[st.integers(0, 3)] * n)

    def poly():
        return Polynomial(ring, draw(st.dictionaries(exponents, st.integers(1, p - 1), max_size=4)))

    f = poly()
    kind = draw(st.sampled_from(["random", "multiple", "shared"]))
    if kind == "random":
        return f, poly()
    g = f * draw(st.integers(1, p - 1))
    return f, (g if kind == "multiple" else g + poly())


class TestCoefficientUpdate:
    """Sums, differences and S-polynomials of the packed kernel against the
    oracle's arithmetic on exponent tuples."""

    @given(data=operand_pairs())
    @settings(max_examples=300)
    def test_matches_oracle(self, data):
        f, g = data
        ring = f.ring
        p, origin = ring.prime, (0,) * ring.dimension
        for c, got in ((1, f + g), (-1, f - g)):
            expected = dict(f.terms())
            oracle_add_multiple(expected, dict(g.terms()), c, origin, p)
            assert got == Polynomial(ring, expected)
        if not (f.is_zero() or g.is_zero()):
            f, g = f.monic(), g.monic()
            expected = oracle_spoly(dict(f.terms()), dict(g.terms()), p)
            assert _spoly(f, g) == Polynomial(ring, expected)


# (p, variables, generators, reduced basis, whether the front end's rows
# are final)
FRONT_END_CASES = [
    # a row cut to x^3 by the monomial rows divides x^4: only single terms
    (5, ["x", "y"], ["x^3 + y^5", "y^4", "x^4"], ["x^3", "y^4"], True),
    # 3 is a unit
    (5, ["x", "y"], ["x^2 + y", "2*x^2 + 2*y", "x*y", "3"], ["1"], True),
    (3, ["x", "y", "z"], ["x*y + z^2", "2*x*y + z^3", "z^2", "x*z + y^3"],
     ["z^2", "x*y", "x^2*z", "y^3 + x*z"], False),
    # one row: the second generator is twice the first
    (5, ["x", "y"], ["x^2 + y", "2*x^2 + 2*y"], ["x^2 + y"], True),
    # a single term and a longer row that it does not cut
    (5, ["x", "y"], ["x*y", "2*x^2 + 2*y^2"], ["x*y", "x^2 + y^2", "y^3"], False),
]


class TestPairUpdate:
    """The Gebauer-Moeller kernel against a plain Buchberger that skips no pair."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_random_ideals_match_oracle(self, p):
        rng = random.Random(100 + p)
        for names, draws in ((["x", "y"], 40), (["x", "y", "z"], 20)):
            ring = PolyRing(p, names)
            for _ in range(draws):
                gens = [
                    random_poly(rng, ring, 3, 3, 1) for _ in range(rng.randint(2, 4))
                ]
                assert list(Ideal(ring, gens).basis()) == oracle_basis(gens)

    @pytest.mark.parametrize("names", [["x", "y"], ["x", "y", "z"]])
    def test_engine_generator_sets(self, names):
        rng = random.Random(len(names))
        for p in (2, 3, 5, 7):
            ring = PolyRing(p, names)
            for _ in range(6):
                f = random_poly(rng, ring, 4, 3, 2)
                g = random_poly(rng, ring, 2, 2)
                J = [random_poly(rng, ring, 3, 3, 1) for _ in range(2)]
                m_k = list(maximal_ideal_power(ring, rng.randint(2, 4)).generators)
                lead = f.leading_monomial()
                cases = [
                    m_k + J,  # what local_ideal_equal compares
                    split_terms(power(f, p - 1) * g, p),  # a digit step's root
                    J + J,  # duplicate generators
                    [f, f + ring.one()],  # equal leading monomials
                    [f, f * ring.variable(0) + g],  # lm(f) divides the other's
                    J + [ring.constant(rng.randrange(1, p))],  # a constant
                    m_k + [ring.constant(rng.randrange(1, p))],  # a constant among monomials
                    [ring.monomial(lead), f] + m_k,  # a monomial equal to lm(f)
                    [f, f * 2, f + g, g],  # linearly dependent: f, 2f, f+g, g
                    J + [J[0] - J[1], J[1] * 3],  # dependent on earlier generators
                ]
                for gens in cases:
                    assert list(Ideal(ring, gens).basis()) == oracle_basis(gens), gens

    def test_radical_member_matches_oracle(self):
        rng = random.Random(11)
        for p in (2, 3, 5, 7):
            ring = PolyRing(p, ["x", "y"])
            big = _extend_ring(ring)
            t = big.variable(0)
            for _ in range(8):
                J = random_ideal(rng, ring, n_gens=2)
                g = random_poly(rng, ring, 2, 2)
                system = [_lift(f, big) for f in J.generators] + [big.one() - t * _lift(g, big)]
                assert radical_member(g, J) == (oracle_basis(system) == [big.one()])

    @pytest.mark.parametrize("names", [["x", "y"], ["x", "y", "z"]])
    def test_monomial_radical_matches_oracle(self, names):
        # a monomial J is decided on the supports of its generators; the
        # Rabinowitsch basis from the plain Buchberger must agree, with
        # coefficients other than 1 and now and then a unit generator
        rng = random.Random(len(names))
        decided = []
        for p in (2, 3, 5, 7):
            ring = PolyRing(p, names)
            big = _extend_ring(ring)
            t = big.variable(0)
            for _ in range(36):
                gens = [
                    Polynomial(ring, {tuple(rng.randint(0, 3) for _ in names): rng.randrange(1, p)})
                    for _ in range(rng.randint(1, 3))
                ]
                if rng.random() < 0.1:
                    gens.append(ring.constant(rng.randrange(1, p)))
                J = Ideal(ring, gens)
                g = random_poly(rng, ring, 3, 3)
                system = [_lift(f, big) for f in J.generators] + [big.one() - t * _lift(g, big)]
                decided.append(radical_member(g, J))
                assert decided[-1] == (oracle_basis(system) == [big.one()]), (g, J)
        assert 0 < sum(decided) < len(decided)

    def test_monomial_radical_builds_no_extended_ring(self, monkeypatch, ring5):
        extended = spy(monkeypatch, groebner, "_extend_ring")
        J = ideal_of(ring5, "3*x^2*y", "y^3")
        assert radical_member(parse_polynomial("x*y + 2*y^2", ring5), J)
        assert not radical_member(parse_polynomial("x + y", ring5), J)
        assert extended == []
        # any other ideal keeps the Rabinowitsch basis
        assert radical_member(parse_polynomial("x", ring5), ideal_of(ring5, "x^2 + y^3", "y"))
        assert len(extended) == 1

    @pytest.mark.parametrize("p, names, gens, expected", [c[:4] for c in FRONT_END_CASES])
    def test_front_end_cases(self, p, names, gens, expected):
        ring = PolyRing(p, names)
        polys = [parse_polynomial(t, ring) for t in gens]
        basis = Ideal(ring, polys).basis()
        assert [str(g) for g in basis] == expected
        assert list(basis) == oracle_basis(polys)

    @pytest.mark.parametrize("p, names, gens, final", [c[:3] + c[4:] for c in FRONT_END_CASES])
    def test_front_end_final(self, p, names, gens, final):
        # final rows are the reduced basis as they stand
        ring = PolyRing(p, names)
        polys = [parse_polynomial(t, ring) for t in gens]
        rows, got = groebner._front_end(ring, [g._packed for g in polys])
        assert got == final
        if got:
            assert rows == oracle_basis(polys)

    @pytest.mark.parametrize(
        "gens, expected",
        [
            # x^3 + y^5 is cut to x^3, which cuts x^4 + x^2*y to x^2*y
            (["y^4", "x^3 + y^5", "x^4 + x^2*y"], ["x^2*y", "x^3", "y^4"]),
            # x^3 and then x^2*y cut the last generator to x*y^3
            (["y^4", "x^3 + y^5", "x^4 + x^2*y", "x*y^3 + x^2*y^2 + x^3*y"],
             ["x^2*y", "x^3", "y^4", "x*y^3"]),
        ],
        ids=["one new monomial", "two new monomials"],
    )
    def test_repeated_cut_forms_no_s_polynomial(self, formed_spolys, gens, expected):
        # a cut that stops after one pass leaves a longer row to the pair loop
        ring = PolyRing(5, ["x", "y"])
        polys = [parse_polynomial(t, ring) for t in gens]
        basis = Ideal(ring, polys).basis()
        assert [str(g) for g in basis] == expected
        assert list(basis) == oracle_basis(polys)
        assert formed_spolys == []

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_generators_stay_unchanged(self, p):
        # the front end may keep a caller's term dict as a row, so a row it
        # reduces or scales must be a copy
        rng = random.Random(f"inputs/{p}")
        for names in (["x", "y"], ["x", "y", "z"]):
            ring = PolyRing(p, names)
            x, y = ring.variable(0), ring.variable(1)
            cases = [[x + y, x + 2 * y], [2 * x + y, x * y + y, x + y + 1]]
            for _ in range(20):
                cases.append(
                    [random_poly(rng, ring, 4, 3) for _ in range(rng.randint(2, 4))]
                    + [random_poly(rng, ring, 3, 1, 1) for _ in range(rng.randint(0, 2))]
                )
            for gens in cases:
                before = [dict(g._packed) for g in gens]
                Ideal(ring, gens).basis()
                assert [g._packed for g in gens] == before, gens

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_one_row_is_its_basis(self, monkeypatch, formed_spolys, p):
        # g, g with c*g, and single terms each leave one front-end row,
        # which is returned as it is: no pair and no interreduction
        interreduced = []
        monkeypatch.setattr(groebner, "_interreduce", lambda G: interreduced.append(G))
        rng = random.Random(f"one row/{p}")
        for names in (["x", "y"], ["x", "y", "z"]):
            ring = PolyRing(p, names)
            for _ in range(10):
                g = random_poly(rng, ring, 4, 4, 1)
                c = ring.constant(rng.randrange(1, p))
                for gens in ([g], [g, c * g], [c * ring.monomial(g.leading_monomial())]):
                    basis = groebner._buchberger(gens)
                    assert len(basis) == 1
                    assert basis == oracle_basis(gens), gens
        assert formed_spolys == [] and interreduced == []

    def test_no_generators(self, ring5):
        assert groebner._buchberger([]) == []
        assert groebner._buchberger([ring5.zero(), ring5.zero()]) == []
        assert Ideal(ring5, (ring5.zero(),)).basis() == ()

    def test_constancy_s_polynomial_count(self, formed_spolys, cusp7):
        # 75 are formed; without the linear front end it takes 846
        constancy_report(cusp7, [5, 6], 2, seed=3)
        assert len(formed_spolys) <= 150

    def test_monomial_ideals_form_no_s_polynomials(self, formed_spolys):
        # every pair of single terms has S-polynomial 0, so none is formed
        xy = PolyRing(5, ["x", "y"])
        assert len(maximal_ideal_power(xy, 12).basis()) == 13
        xyz = PolyRing(5, ["x", "y", "z"])
        assert len(maximal_ideal_power(xyz, 5).basis()) == 21
        assert formed_spolys == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda ring: Ideal(ring, ["x"]), "ideal generators must be polynomials"),
        (lambda ring: bracket_power(maximal_ideal(ring), -1),
         "bracket power exponent must be >= 0"),
        (lambda ring: maximal_ideal_power(ring, -1), "power must be >= 0"),
    ],
    ids=["Ideal", "bracket_power", "maximal_ideal_power"],
)
def test_guards(ring5, call, message):
    with pytest.raises(DomainError) as err:
        call(ring5)
    assert str(err.value) == message
