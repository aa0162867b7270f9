import random
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptkit import (
    DomainError,
    FrobeniusRootEngine,
    Ideal,
    InfeasibleError,
    ParseError,
    Polynomial,
    PolyRing,
    TestIdealComputer,
    local_ideal_equal,
    maximal_ideal_power,
    normal_form,
    parse_polynomial,
    partial_derivative,
    power,
)
from fptkit.cli import main

from conftest import random_poly, src_env
from groebner_oracle import grevlex_key

RING_MISMATCH = "^ring mismatch: the operands live in different rings$"


@st.composite
def ring_and_polys(draw, count=2, max_deg=4, max_terms=4):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ring = PolyRing(p, ["x", "y"])
    polys = []
    for _ in range(count):
        n_terms = draw(st.integers(0, max_terms))
        terms = {}
        for _ in range(n_terms):
            a = draw(st.integers(0, max_deg))
            b = draw(st.integers(0, max_deg - a))
            c = draw(st.integers(1, p - 1)) if p > 2 else 1
            terms[(a, b)] = c
        polys.append(Polynomial(ring, terms))
    return ring, polys


class TestRing:
    def test_validation(self):
        with pytest.raises(DomainError):
            PolyRing(6, ["x"])
        with pytest.raises(DomainError):
            PolyRing(5, ["x", "x"])
        with pytest.raises(DomainError):
            PolyRing(5, [])
        with pytest.raises(DomainError):
            PolyRing(5, ["2x"])

    def test_monomials_of_degree(self):
        # m^2's generators, in the order combinations_with_replacement gives
        ring = PolyRing(5, ["x", "y"])
        got = [g.leading_monomial() for g in maximal_ideal_power(ring, 2).generators]
        assert got == [(2, 0), (1, 1), (0, 2)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_monomials_of_degree_all(self, n):
        # m^d is generated by the degree-d monomials, each once
        ring = PolyRing(5, [f"x{i}" for i in range(n)])
        for d in range(7):
            got = [g.leading_monomial() for g in maximal_ideal_power(ring, d).generators]
            expected = {m for m in product(range(d + 1), repeat=n) if sum(m) == d}
            assert len(got) == len(expected) and set(got) == expected


class TestArithmetic:
    def test_square_over_f3(self):
        ring = PolyRing(3, ["x", "y"])
        x, y = ring.gens()
        assert (x + y) * (x + y) == x * x + 2 * x * y + y * y

    def test_zero_and_one(self, ring5, quartic5):
        assert (quartic5 * ring5.zero()).is_zero()
        assert quartic5 * ring5.one() == quartic5

    def test_ring_mismatch(self):
        a = PolyRing(5, ["x", "y"]).one()
        b = PolyRing(7, ["x", "y"]).one()
        with pytest.raises(DomainError, match=RING_MISMATCH):
            a * b

    @pytest.mark.parametrize(
        "call",
        [
            lambda f5, f7: f5 + f7,
            lambda f5, f7: Ideal(f5.ring, (f5, f7)),
            lambda f5, f7: Ideal(f5.ring, (f5,)).contains_ideal(Ideal(f7.ring, (f7,))),
            lambda f5, f7: Ideal(f5.ring, (f5,)).contains(f7),
            lambda f5, f7: normal_form(f7, Ideal(f5.ring, (f5,))),
            lambda f5, f7: FrobeniusRootEngine(f5).nu(Ideal(f7.ring, (f7,)), 1),
            lambda f5, f7: TestIdealComputer(f5, 2).f_threshold(Ideal(f7.ring, (f7,))),
            lambda f5, f7: local_ideal_equal(Ideal(f5.ring, (f5,)), Ideal(f7.ring, (f7,)), 1),
        ],
        ids=["add", "Ideal", "contains_ideal", "contains", "normal_form", "nu",
             "f_threshold", "local_ideal_equal"],
    )
    def test_ring_mismatch_at_every_entry_point(self, call):
        # one check and one message wherever two rings meet; * is above
        f5 = PolyRing(5, ["x", "y"]).variable("x")
        f7 = PolyRing(7, ["x", "y"]).variable("x")
        with pytest.raises(DomainError, match=RING_MISMATCH):
            call(f5, f7)

    def test_subtraction(self, ring5, quartic5):
        x = ring5.variable("x")
        assert x - 1 == x + ring5.constant(-1)
        assert 1 - x == ring5.constant(1) + ring5.constant(-1) * x
        assert (x - x).is_zero()
        assert quartic5 - 0 == quartic5 + ring5.constant(0) == quartic5

    def test_coefficients_normalized(self):
        ring = PolyRing(5, ["x"])
        f = parse_polynomial("7x", ring)
        assert f == 2 * ring.variable(0)
        assert str(f) == "2x"

    @given(data=ring_and_polys(count=3))
    @settings(max_examples=100)
    def test_ring_axioms(self, data):
        _, (a, b, c) = data
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a

    @given(data=ring_and_polys(count=2))
    @settings(max_examples=100)
    def test_hash_agrees_with_equality(self, data):
        ring, (a, b) = data
        assert hash(a * b) == hash(b * a)
        reordered = Polynomial(ring, dict(reversed(list(a._terms.items()))))
        assert reordered == a and hash(reordered) == hash(a)
        # an int is never equal to a polynomial, whose hash it need not share
        three = ring.constant(3)
        assert three != 3 and 3 != three and len({three, 3}) == 2

    def test_hash_ignores_hash_seed(self):
        code = (
            "from fptkit import PolyRing, parse_polynomial;"
            "print(hash(parse_polynomial('x^4 + 3x*y^2 + y^3', PolyRing(5, ['x', 'y']))))"
        )
        printed = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={**src_env(), "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "1", "2")
        }
        assert len(printed) == 1


class TestPower:
    def test_frobenius_examples(self):
        r2 = PolyRing(2, ["x", "y"])
        x, y = r2.gens()
        assert power(x + y, 2) == x * x + y * y
        r5 = PolyRing(5, ["x", "y"])
        f = parse_polynomial("x^2 + y^3", r5)
        assert power(f, 5) == parse_polynomial("x^10 + y^15", r5)

    def test_power_zero(self, quartic5, ring5):
        assert power(quartic5, 0) == ring5.one()

    @given(data=ring_and_polys(count=1), n=st.integers(0, 12))
    @settings(max_examples=80)
    def test_matches_iterated_multiply(self, data, n):
        ring, (f,) = data
        expected = ring.one()
        for _ in range(n):
            expected = expected * f
        assert power(f, n) == expected

    @given(data=ring_and_polys(count=2))
    @settings(max_examples=100)
    def test_freshmans_dream(self, data):
        ring, (a, b) = data
        p = ring.prime
        assert power(a + b, p) == power(a, p) + power(b, p)

    def test_negative_power_rejected(self, quartic5):
        with pytest.raises(DomainError):
            power(quartic5, -1)


class TestDerivative:
    def test_examples(self, ring5):
        f = parse_polynomial("x^4 + y^3 + x^2*y^2", ring5)
        assert partial_derivative(f, 0) == parse_polynomial("4x^3 + 2x*y^2", ring5)
        assert partial_derivative(f, 1) == parse_polynomial("3y^2 + 2x^2*y", ring5)
        assert partial_derivative(power(ring5.variable(0), 5), 0).is_zero()

    def test_index_range(self, quartic5):
        with pytest.raises(DomainError):
            partial_derivative(quartic5, 2)

    @given(data=ring_and_polys(count=2), i=st.integers(0, 1))
    @settings(max_examples=100)
    def test_leibniz(self, data, i):
        _, (f, g) = data
        lhs = partial_derivative(f * g, i)
        rhs = f * partial_derivative(g, i) + g * partial_derivative(f, i)
        assert lhs == rhs


def grevlex_greater(a, b) -> bool:
    """Textbook grevlex: higher total degree wins; on a tie, a > b iff the
    last nonzero entry of a - b is negative."""
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    diff = [x - y for x, y in zip(a, b) if x != y]
    return bool(diff) and diff[-1] < 0


class TestTermOrder:
    @pytest.mark.parametrize("n", [3, 4])
    def test_grevlex_key_matches_definition(self, n):
        # the packed ints of the kernel, and the oracle's tuple key
        ring = PolyRing(5, [f"x{i}" for i in range(n)])
        monomials = [m for m in product(range(4), repeat=n) if sum(m) < 4]
        for a in monomials:
            for b in monomials:
                assert (ring.pack(a) > ring.pack(b)) == grevlex_greater(a, b), (a, b)
                assert (grevlex_key(a) > grevlex_key(b)) == grevlex_greater(a, b), (a, b)


@st.composite
def monomials(draw, n, limit):
    """An exponent tuple in n variables of total degree at most limit."""
    d = draw(st.integers(0, limit))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))


@st.composite
def ring_and_monomials(draw):
    """A ring in 1 to 4 variables, a monomial a, and a monomial b with
    deg a + deg b within the packed limit."""
    n = draw(st.integers(1, 4))
    ring = PolyRing(5, [f"x{i}" for i in range(n)])
    a = draw(monomials(n, ring.max_degree))
    b = draw(monomials(n, ring.max_degree - sum(a)))
    return ring, a, b


class TestPackedMonomials:
    """The packed kernel's monomials against their definition on tuples."""

    @given(data=ring_and_monomials())
    @settings(max_examples=200)
    def test_order_is_grevlex(self, data):
        ring, a, b = data
        assert (ring.pack(a) > ring.pack(b)) == grevlex_greater(a, b)
        assert (ring.pack(a) == ring.pack(b)) == (a == b)

    @given(data=ring_and_monomials())
    @settings(max_examples=200)
    def test_product_is_addition(self, data):
        ring, a, b = data
        assert ring.pack(tuple(x + y for x, y in zip(a, b))) == ring.pack(a) + ring.pack(b)

    @given(data=ring_and_monomials(), multiple=st.booleans())
    @settings(max_examples=200)
    def test_divisibility_is_componentwise(self, data, multiple):
        ring, a, b = data
        if multiple:  # b = a * b, so that about half the pairs divide
            b = tuple(x + y for x, y in zip(a, b))
        assert ring.divides(ring.pack(a), ring.pack(b)) == all(x <= y for x, y in zip(a, b))
        assert ring.divides(ring.pack(b), ring.pack(a)) == all(y <= x for x, y in zip(a, b))

    @given(data=ring_and_monomials())
    @settings(max_examples=200)
    def test_unpack_inverts_pack(self, data):
        ring, a, b = data
        assert ring.unpack(ring.pack(a)) == a
        assert ring.unpack(ring.pack(b)) == b

    @given(data=ring_and_monomials())
    @settings(max_examples=200)
    def test_lcm_is_componentwise_max(self, data):
        ring, a, b = data
        assert ring.lcm(ring.pack(a), ring.pack(b)) == ring.pack(tuple(map(max, a, b)))


    def test_public_views_speak_tuples(self, quartic5):
        view = quartic5._terms  # read as a tuple-keyed dict by perfbench/build_reference.py
        assert dict(view) == {(4, 0): 1, (0, 3): 1, (2, 2): 1}
        with pytest.raises(TypeError):
            view[(1, 1)] = 1
        assert quartic5.terms() == (((4, 0), 1), ((2, 2), 1), ((0, 3), 1))
        assert quartic5.leading_monomial() == (4, 0)
        assert quartic5.coefficient((2, 2)) == 1 and quartic5.coefficient((1, 1)) == 0


class TestDegreeLimit:
    """A degree past the packed limit raises InfeasibleError; nothing wraps."""

    def test_limit(self):
        ring = PolyRing(5, ["x", "y"])
        assert ring.max_degree == 2**31 - 1
        top = ring.monomial((2**31 - 1, 0))
        assert top.leading_monomial() == (2**31 - 1, 0)
        with pytest.raises(InfeasibleError):
            ring.monomial((2**31, 0))
        with pytest.raises(InfeasibleError):
            ring.monomial((2**30, 2**30))

    def test_parsed_exponent(self, ring5):
        assert parse_polynomial("x^2147483647", ring5).total_degree() == 2**31 - 1
        with pytest.raises(InfeasibleError):
            parse_polynomial(f"x^{2**40} + y", ring5)
        with pytest.raises(InfeasibleError):
            parse_polynomial("x^1073741824 * y^1073741824", ring5)

    def test_cli_exit_code(self, capsys):
        assert main(["fpt", "--char", "5", "--vars", "x,y", f"x^{2**40} + y^3"]) == 4
        assert "infeasible" in capsys.readouterr().err

    def test_exponent_past_the_int_conversion_limit(self, ring5, capsys):
        # 5,000 digits is past Python's default limit of 4,300 for int()
        with pytest.raises(InfeasibleError):
            parse_polynomial("x^" + "9" * 5000, ring5)
        assert parse_polynomial("x^" + "0" * 5000 + "2", ring5) == power(ring5.variable("x"), 2)
        assert main(["fpt", "--char", "5", "--vars", "x,y", "x^" + "9" * 5000 + " + y^3"]) == 4
        assert capsys.readouterr().err == (
            "infeasible: exponent of 5000 digits exceeds the packed-monomial limit 2147483647\n"
        )

    def test_product(self, ring5):
        x, y = ring5.gens()
        half = power(x, 2**30)
        assert (half * power(y, 2**30 - 1)).total_degree() == 2**31 - 1
        with pytest.raises(InfeasibleError):
            half * power(y, 2**30)
        with pytest.raises(InfeasibleError):
            (half + y) * (half + 1)

    def test_power_and_frobenius(self, ring5):
        x, y = ring5.gens()
        with pytest.raises(InfeasibleError):
            power(x + y, 2**31)
        with pytest.raises(InfeasibleError):
            power(x * y + 1, 2**30)
        with pytest.raises(InfeasibleError):
            power(x, 2**29).frobenius(1)
        assert power(x, 5**13).frobenius(0).total_degree() == 5**13
        with pytest.raises(InfeasibleError):
            power(x, 5**13).frobenius(1)

    def test_lcm(self, ring5):
        big = ring5.pack((2**30, 0))
        assert ring5.lcm(big, ring5.pack((2**30, 2**30 - 1))) == ring5.pack((2**30, 2**30 - 1))
        with pytest.raises(InfeasibleError):
            ring5.lcm(big, ring5.pack((0, 2**30)))


class TestPrinting:
    def test_canonical_form(self, ring5):
        f = parse_polynomial("y^3+x^4+x^2*y^2", ring5)
        assert str(f) == "x^4 + x^2*y^2 + y^3"
        assert str(ring5.zero()) == "0"
        assert str(ring5.constant(3)) == "3"

    def test_round_trip_corpus(self, ring5):
        rng = random.Random(11)
        for _ in range(100):
            f = random_poly(rng, ring5, 6, 5)
            assert parse_polynomial(str(f), ring5) == f


# The golden parser corpus: each input with the polynomial it prints as, or
# the (message, offset) of the ParseError it raises.  Digits are ASCII, so a
# superscript or Arabic-Indic digit is an unknown symbol or a missing number.
F5 = PolyRing(5, ["x", "y"])
F3 = PolyRing(3, ["x", "xy", "y", "y_1"])
GOLDEN = [
    (F5, "x^4 + y^3 + x^2*y^2", "x^4 + x^2*y^2 + y^3"),
    (F5, "x y", "x*y"),
    (F5, "x*y", "x*y"),
    (F5, "*x", "x"),
    (F5, " x ^ 2 * y ^ 3 ", "x^2*y^3"),
    (F5, "x\t^\n2", "x^2"),
    (F5, "-x + y", "4x + y"),
    (F5, "+x", "x"),
    (F5, "- 3x", "2x"),
    (F5, "7x", "2x"),
    (F5, "x - 6x", "0"),
    (F5, "5x^2 + y", "y"),
    (F5, "3x^2y + 2x^2y", "0"),
    (F5, "x^2x^3", "x^5"),
    (F5, "x^0", "1"),
    (F5, "0", "0"),
    (F5, "13", "3"),
    (F5, "x^10 + 12x*y - 2", "x^10 + 2x*y + 3"),
    (F3, "xy", "xy"),
    (F3, "x y", "x*y"),
    (F3, "xyy", "xy*y"),
    (F3, "x*xy", "x*xy"),
    (F3, "y_1y + xy^2", "xy^2 + y*y_1"),
    (F5, None, ("polynomial input must be a string", 0)),
    (F5, b"x", ("polynomial input must be a string", 0)),
    (F5, "", ("empty polynomial", 0)),
    (F5, " \t\n", ("empty polynomial", 3)),
    (F5, "x+", ("expected a term", 2)),
    (F5, "x + -y", ("expected a term", 4)),
    (F5, "-", ("expected a term", 1)),
    (F5, "+ ", ("expected a term", 2)),
    (F5, "x^", ("expected a number", 2)),
    (F5, "x^ y", ("expected a number", 3)),
    (F5, "x^-2", ("expected a number", 2)),
    (F5, "2 ** x", ("expected a variable after '*'", 3)),
    (F5, "x*", ("expected a variable after '*'", 2)),
    (F5, "x*3", ("expected a variable after '*'", 2)),
    (F5, "*", ("expected a variable after '*'", 1)),
    (F5, "x + w", ("unknown variable or symbol 'w'", 4)),
    (F5, "3 4", ("unknown variable or symbol '4'", 2)),
    (F5, "x 2", ("unknown variable or symbol '2'", 2)),
    (F5, "x2", ("unknown variable or symbol '2'", 1)),
    (F5, "x^2^3", ("unknown variable or symbol '^'", 3)),
    (F5, "3^2", ("unknown variable or symbol '^'", 1)),
    (F5, "(x)", ("unknown variable or symbol '('", 0)),
    (F3, "xy_1", ("unknown variable or symbol '_'", 2)),
    (F5, "\u00b2x", ("unknown variable or symbol '\u00b2'", 0)),
    (F5, "x^\u00b2", ("expected a number", 2)),
    (F5, "\u0663x", ("unknown variable or symbol '\u0663'", 0)),
    (F5, "x^\u0663", ("expected a number", 2)),
]


class TestParsing:
    def test_reference_quartic(self, ring5, quartic5):
        assert parse_polynomial("x^4 + y^3 + x^2*y^2", ring5) == quartic5
        assert parse_polynomial("x^4+y^3+x^2*y^2", ring5) == quartic5

    def test_coefficient_reduction(self):
        ring = PolyRing(5, ["x"])
        assert parse_polynomial("7x", ring) == parse_polynomial("2x", ring)
        assert parse_polynomial("x - 6x", ring).is_zero()

    def test_long_coefficient(self, capsys):
        # 5,000 digits is past Python's default limit of 4,300 for int()
        ring = PolyRing(7, ["x", "y"])
        big = "1" + "0" * 4999
        expected = parse_polynomial(f"{pow(10, 4999, 7)}x - y", ring)
        assert parse_polynomial(f"{big}x - y", ring) == expected
        assert parse_polynomial(f"-{big}x", ring) == parse_polynomial(f"{-pow(10, 4999, 7)}x", ring)
        # 10^5000 + 1 is 1 mod 5, so the CLI answers as for x^2 + y^3
        assert main(["fpt", "--char", "5", f"{big}1x^2 + y^3"]) == 0
        long_out = capsys.readouterr()
        assert main(["fpt", "--char", "5", "x^2 + y^3"]) == 0
        assert long_out == capsys.readouterr()

    def test_signs_and_whitespace(self, ring5):
        assert parse_polynomial("- x + y", ring5) == parse_polynomial("4x + y", ring5)
        assert parse_polynomial("x y", ring5) == parse_polynomial("x*y", ring5)

    @pytest.mark.parametrize(
        "ring, text, expected", GOLDEN, ids=[repr(text) for _, text, _ in GOLDEN]
    )
    def test_golden_corpus(self, ring, text, expected):
        if isinstance(expected, str):
            assert str(parse_polynomial(text, ring)) == expected
            return
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, ring)
        message, offset = expected
        assert str(err.value) == f"{message} (offset {offset})"
        assert (err.value.message, err.value.position) == expected

    def test_error_positions(self, ring5):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x^", ring5)
        assert err.value.position == 2
        with pytest.raises(ParseError):
            parse_polynomial("", ring5)
        with pytest.raises(ParseError):
            parse_polynomial("x + z", ring5)
        with pytest.raises(ParseError):
            parse_polynomial("x + ", ring5)
        with pytest.raises(ParseError):
            parse_polynomial("2 ** x", ring5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: f.ring.pack((1, 2, 3)), "bad exponent vector (1, 2, 3)"),
        (lambda f: f.ring.variable("q"), "unknown variable 'q'"),
        (lambda f: f.ring.variable(5), "variable index 5 out of range"),
        (lambda f: f.ring.zero().leading_monomial(), "the zero polynomial has no leading monomial"),
        (lambda f: f.frobenius(-1), "frobenius exponent must be >= 0"),
    ],
    ids=["pack", "variable name", "variable index", "leading_monomial", "frobenius"],
)
def test_guards(quartic5, call, message):
    with pytest.raises(DomainError) as err:
        call(quartic5)
    assert str(err.value) == message
