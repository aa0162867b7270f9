"""The fpt in 3 and 4 variables against nu(p) from brute-force expansion.

Every closed form elsewhere in the suite is bivariate.  Here nu_oracle,
which shares no code with fptkit, gives nu(p); the fpt must satisfy the
bracket nu(p)/p < fpt <= (nu(p) + 1)/p (Mustata-Takagi-Watanabe), and it is
1 exactly when nu(p) = p - 1 (Fedder's criterion: f^(p-1) outside m^[p]).
For Calabi-Yau hypersurfaces the bracket closes to an exact form; see
_check_calabi_yau.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from fptkit import PolyRing, Polynomial, TestIdealComputer
from fptkit.testideal import isolated_jacobian

from nu_oracle import nu_p

F = Fraction


def _monomials(n, d):
    return [tuple(c.count(i) for i in range(n)) for c in combinations_with_replacement(range(n), d)]


def _check_bracket(terms, p):
    ring = PolyRing(p, ["x", "y", "z", "w"][: len(next(iter(terms)))])
    fpt = TestIdealComputer(Polynomial(ring, terms)).fpt()
    nu = nu_p(terms, p)
    assert F(nu, p) < fpt <= F(nu + 1, p), (terms, p, fpt, nu)
    assert (fpt == 1) == (nu == p - 1), (terms, p, fpt, nu)
    return fpt, nu


def _check_calabi_yau(terms, p):
    """The exact fpt of a Calabi-Yau hypersurface.

    Bhatt-Singh, "The F-pure threshold of a Calabi-Yau hypersurface" (Math.
    Ann., 2015): let f be homogeneous of degree n in n variables with an
    isolated singularity at the origin.  For p large enough, fpt(f) = 1 - a/p
    with a in 0..n-2, so p*fpt is an integer and fpt = (nu(p) + 1)/p.  The
    hypothesis p >= n^2 - n - 1 is as recalled; it could not be checked
    against the paper offline.  Every case here has p >= 11 >= n^2 - n - 1.
    """
    n = len(next(iter(terms)))
    assert p >= n * n - n - 1
    fpt, nu = _check_bracket(terms, p)
    assert (p * fpt).denominator == 1, (terms, p, fpt)
    assert fpt == F(nu + 1, p), (terms, p, fpt, nu)
    assert 1 - fpt <= F(n - 2, p), (terms, p, fpt)
    return fpt


def _isolated(terms, p, n):
    ring = PolyRing(p, ["x", "y", "z", "w"][:n])
    return isolated_jacobian(Polynomial(ring, terms))[1] is not None


@pytest.mark.parametrize("p", [5, 7])
def test_smooth_plane_cubics(p):
    # cones over smooth plane cubics: f homogeneous of degree 3 in x, y, z
    # with an m-primary Jacobian ideal
    rng = random.Random(p)
    found = []
    while len(found) < 6:
        terms = {m: rng.randrange(p) for m in _monomials(3, 3)}
        terms = {m: c for m, c in terms.items() if c}
        if terms and _isolated(terms, p, 3):
            found.append(_check_bracket(terms, p)[0])
    # both answers occur: ordinary (1) and supersingular (1 - 1/p) curves
    assert set(found) == {1, 1 - F(1, p)}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_fermat_cubic(p):
    # x^3 + y^3 + z^3 is supersingular exactly when p = 2 mod 3
    fpt, _ = _check_bracket({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, p)
    assert fpt == (1 - F(1, p) if p % 3 == 2 else 1)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_fermat_quartic(p):
    _check_bracket({(4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1}, p)


def _sparse_quartics(p, rng, count):
    """count quartics in four variables: the Fermat quartic plus four random
    terms, kept when the singularity at the origin is isolated."""
    found = []
    while len(found) < count:
        terms = {(4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1}
        for m in rng.sample(_monomials(4, 4), 4):
            terms[m] = (terms.get(m, 0) + rng.randrange(1, p)) % p
        terms = {m: c for m, c in terms.items() if c}
        if _isolated(terms, p, 4):
            found.append(terms)
    return found


def test_sparse_quartics_in_four_variables():
    for terms in _sparse_quartics(5, random.Random(4), 3):
        _check_bracket(terms, 5)


class TestCalabiYauExactForm:
    @pytest.mark.parametrize("p", [11, 13])
    def test_smooth_plane_cubics(self, p):
        rng, checked = random.Random(p), 0
        while checked < 4:
            terms = {m: rng.randrange(p) for m in _monomials(3, 3)}
            terms = {m: c for m, c in terms.items() if c}
            if terms and _isolated(terms, p, 3):
                _check_calabi_yau(terms, p)
                checked += 1

    def test_fermat_cubic(self):
        # 11 = 2 mod 3: supersingular, so a = 1
        assert _check_calabi_yau({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, 11) == F(10, 11)

    def test_sparse_quartic_surfaces(self):
        for terms in _sparse_quartics(11, random.Random(11), 2):
            _check_calabi_yau(terms, 11)


def test_oracle_on_small_cases():
    # x*y: f^N = x^N y^N stays outside m^[p] up to N = p - 1
    assert nu_p({(1, 1): 1}, 5) == 4
    # x^2: f^N lies in m^[p] once 2N >= p
    assert nu_p({(2, 0): 1}, 5) == 2
    assert nu_p({(2, 0): 1}, 7) == 3
    # x^2 + y^3 at p = 7: nu(7) = 5, so 5/7 < fpt = 5/6 <= 6/7
    assert nu_p({(2, 0): 1, (0, 3): 1}, 7) == 5
    with pytest.raises(ValueError):
        nu_p({(0, 0): 1, (1, 0): 1}, 5)
