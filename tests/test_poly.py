import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptkit import (
    DomainError,
    ParseError,
    Polynomial,
    PolyRing,
    parse_polynomial,
    partial_derivative,
    power,
)
from fptkit.poly import grevlex_key

from conftest import random_poly, src_env


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
        ring = PolyRing(5, ["x", "y"])
        assert sorted(ring.monomials_of_degree(2)) == [(0, 2), (1, 1), (2, 0)]


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
        with pytest.raises(DomainError):
            a * b

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
        reordered = Polynomial(ring, dict(reversed(list(a._terms.items()))), _normalized=True)
        assert reordered == a and hash(reordered) == hash(a)

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
        ring = PolyRing(5, [f"x{i}" for i in range(n)])
        monomials = [m for d in range(4) for m in ring.monomials_of_degree(d)]
        for a in monomials:
            for b in monomials:
                assert (grevlex_key(a) > grevlex_key(b)) == grevlex_greater(a, b), (a, b)


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


class TestParsing:
    def test_reference_quartic(self, ring5, quartic5):
        assert parse_polynomial("x^4 + y^3 + x^2*y^2", ring5) == quartic5
        assert parse_polynomial("x^4+y^3+x^2*y^2", ring5) == quartic5

    def test_coefficient_reduction(self):
        ring = PolyRing(5, ["x"])
        assert parse_polynomial("7x", ring) == parse_polynomial("2x", ring)
        assert parse_polynomial("x - 6x", ring).is_zero()

    def test_signs_and_whitespace(self, ring5):
        assert parse_polynomial("- x + y", ring5) == parse_polynomial("4x + y", ring5)
        assert parse_polynomial("x y", ring5) == parse_polynomial("x*y", ring5)

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
