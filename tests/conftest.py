import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fptkit import Ideal, Polynomial, PolyRing, parse_polynomial

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    """The environment for a child interpreter, with this checkout's src
    first on PYTHONPATH, so that it imports the fptkit under test."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def unit_ideal(ring: PolyRing) -> Ideal:
    """The unit ideal (1) of ring."""
    return Ideal(ring, (ring.one(),))


def spy(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that appends each call's argument
    tuple to the returned list and then makes the call as before."""
    real = getattr(owner, name)
    calls = []

    def spied(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spied)
    return calls


@pytest.fixture(scope="session")
def ring5():
    return PolyRing(5, ["x", "y"])


@pytest.fixture(scope="session")
def ring7():
    return PolyRing(7, ["x", "y"])


@pytest.fixture(scope="session")
def quartic5(ring5):
    return parse_polynomial("x^4 + y^3 + x^2*y^2", ring5)


@pytest.fixture(scope="session")
def cusp7(ring7):
    return parse_polynomial("x^2 + y^3", ring7)


@pytest.fixture(scope="session")
def quartic5_report(quartic5):
    from fptkit import jumping_numbers_unit_interval

    return jumping_numbers_unit_interval(quartic5, 6)


def random_poly(rng: random.Random, ring: PolyRing, max_deg: int, max_terms: int,
                min_deg: int = 0) -> Polynomial:
    """Random nonzero polynomial with total degree in [min_deg, max_deg].

    Each monomial of degree d takes its first n-1 exponents one randint at a
    time from what is left of d, so bivariate draws make the same calls,
    and give the same polynomials, as they always have.
    """
    p = ring.prime
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            d = rng.randint(min_deg, max_deg)
            m = []
            for _ in range(ring.dimension - 1):
                a = rng.randint(0, d)
                m.append(a)
                d -= a
            m = (*m, d)
            c = rng.randrange(1, p)
            terms[m] = (terms.get(m, 0) + c) % p
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            return Polynomial(ring, terms)


def random_fraction(rng: random.Random, max_num: int = 60, max_den: int = 60) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))
