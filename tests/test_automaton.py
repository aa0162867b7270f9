"""The closed digit automaton (FrobeniusRootEngine.close and jumps), and the
jn report read off it (testideal.jumping_numbers_closed).

check_automaton is a certificate checker that trusts none of the engine's
work: it recomputes every transition delta(J, d) = root_1(f^d * J) with the
Frobenius-root and Groebner oracles, which share no code with the engine,
and checks the jumps against the min-equations x_(1) = 0 and
x_J = min over edges I ->d J of (x_I + d)/p.  Each map contracts by 1/p, so
the solution is unique, and it is the infimum over the digit words that
reach each state: the jumps, by Blickle-Mustata-Smith.
"""

import random

import pytest

from fptkit import InfeasibleError, PolyRing, froot, jumping_numbers_unit_interval
from fptkit import parse_polynomial
from fptkit.testideal import jumping_numbers_closed

from conftest import random_poly
from diagonal_oracle import diagonal_hypersurface_fpt
from groebner_oracle import oracle_basis
from root_oracle import root_generators


def canonical(polys) -> tuple:
    """The oracle's reduced basis of the ideal of polys, as hashable terms."""
    return tuple(g.terms() for g in oracle_basis(list(polys)))


def check_automaton(f) -> None:
    """Close the automaton of f and check it against the oracles."""
    engine = froot.FrobeniusRootEngine(f)
    jumps = engine.jumps()
    p = f.ring.prime
    states = [canonical(J.generators) for _, J in jumps]
    assert len(set(states)) == len(states), "two states are one ideal"
    assert states[0] == canonical([f.ring.one()]) and jumps[0][0] == 0
    index = {J: k for k, (_, J) in enumerate(jumps)}
    powers = [f.ring.one()]
    while len(powers) < p:
        powers.append(powers[-1] * f)
    edges = []  # (I, d, J) by position in jumps, recomputed by the oracles
    for k, (_, state) in enumerate(jumps):
        row = engine._rows[engine._states[state]]
        for d in range(p):
            target = canonical(root_generators([powers[d] * g for g in state.generators], p))
            assert target in states, f"delta({state}, {d}) is no state"
            j = states.index(target)
            assert index[engine._ideals[row[d]]] == j, f"row of {state} is wrong at {d}"
            edges.append((k, d, j))
    for j, (x, _) in enumerate(jumps[1:], start=1):
        assert x == min((jumps[i][0] + d) / p for i, d, t in edges if t == j)


def assert_matches_the_walk(f) -> None:
    closed = jumping_numbers_closed(f, None)
    walk = jumping_numbers_unit_interval(f, None)
    assert closed.jumping_numbers == walk.jumping_numbers
    assert closed.test_ideals == walk.test_ideals
    assert closed.fpt == walk.fpt
    assert closed.bound == walk.bound


NAMED = [
    (5, "x^4 + y^3 + x^2*y^2"),
    (101, "x^2 + y^3"),
    (5, "x^12 + y^13"),
    (3, "x^2*y^2 + x^3"),
]


@pytest.mark.parametrize("p, text", NAMED, ids=[f"{t.replace(' ', '')}-at-{p}" for p, t in NAMED])
def test_named_cases(p, text):
    f = parse_polynomial(text, PolyRing(p, ["x", "y"]))
    assert_matches_the_walk(f)
    check_automaton(f)


def test_random_polynomials():
    rng = random.Random(15)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        ring = PolyRing(p, ["x", "y", "z"][: rng.choice([2, 3])])
        f = random_poly(rng, ring, 6, 4, min_deg=2)
        assert_matches_the_walk(f)
        check_automaton(f)


@pytest.mark.parametrize("exponents, p", [((20, 23), 7), ((3, 4, 5), 7)])
def test_diagonal_fpt(exponents, p):
    # the walk of x^20 + y^23 at p = 7 makes some 176,000 evaluations; the
    # closure computes 693 transitions
    ring = PolyRing(p, ["x", "y", "z"][: len(exponents)])
    f = sum((ring.variable(i) ** a for i, a in enumerate(exponents)), ring.zero())
    assert jumping_numbers_closed(f, None).fpt == diagonal_hypersurface_fpt(exponents, p)


def test_states_past_the_cap(monkeypatch, quartic5):
    # the quartic's automaton has 4 states
    monkeypatch.setattr(froot, "MAX_STATES", 3)
    with pytest.raises(InfeasibleError, match="limit of 3 states"):
        jumping_numbers_closed(quartic5, None)
