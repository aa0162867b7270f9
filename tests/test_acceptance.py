"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The final check also runs in its long variant, at perturbation
order M instead of N.
"""

import random
import time
from fractions import Fraction

import pytest

from fptkit import (
    FrobeniusRootEngine,
    Ideal,
    PolyRing,
    TestIdealComputer,
    candidate_set,
    canonical_pair,
    constancy_report,
    default_bound,
    frobenius_root,
    frobenius_root_ideal,
    jacobian,
    jumping_numbers_unit_interval,
    maximal_ideal,
    parse_polynomial,
    power,
    singularity_profile,
)

from conftest import random_poly

F = Fraction


def report(number: int, passed: bool, detail: str):
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def ideal_of(ring, *texts):
    return Ideal(ring, tuple(parse_polynomial(t, ring) for t in texts))


@pytest.fixture(scope="module")
def reference_case():
    ring = PolyRing(5, ["x", "y"])
    f = parse_polynomial("x^4 + y^3 + x^2*y^2", ring)
    start = time.perf_counter()
    walk = jumping_numbers_unit_interval(f, 6)
    elapsed = time.perf_counter() - start
    return ring, f, walk, elapsed


@pytest.fixture(scope="module")
def fuzz_corpus():
    """200+ random polynomials in m, degree <= 4, over F_2, F_3, F_5."""
    rng = random.Random(987123)
    corpus = []
    for p in (2, 3, 5):
        ring = PolyRing(p, ["x", "y"])
        for _ in range(67):
            corpus.append(random_poly(rng, ring, 4, 5, min_deg=1))
    return corpus


@pytest.fixture(scope="module")
def corpus_fpts(fuzz_corpus, reference_case):
    _, f, walk, _ = reference_case
    values = [(f, walk.fpt)]
    for g in fuzz_corpus:
        values.append((g, TestIdealComputer(g).fpt()))
    return values


def test_criterion_1_worked_example(reference_case):
    ring, f, walk, elapsed = reference_case
    ell = singularity_profile(f).ell
    ok = (
        ell == 6
        and walk.jumping_numbers == (F(0), F(7, 12), F(4, 5), F(11, 12))
        and walk.fpt == F(7, 12)
        and walk.test_ideals[1] == ideal_of(ring, "x", "y")
        and walk.test_ideals[2] == ideal_of(ring, "x^2", "y")
        and walk.test_ideals[3] == ideal_of(ring, "x^2", "x*y", "y^2")
        and elapsed < 300
    )
    report(
        1,
        ok,
        f"worked quartic reproduced exactly (ell=6, three jumps, fpt=7/12) "
        f"in {elapsed:.1f}s with {walk.candidate_count} ideal evaluations",
    )


def test_criterion_2_oracle_equivalence(fuzz_corpus):
    rng = random.Random(55)
    start = time.perf_counter()
    checked = 0
    ok = True
    for f in fuzz_corpus:
        p = f.ring.prime
        e = rng.randint(1, 2)
        q = p**e
        lam = F(rng.randint(1, 2 * q), q)
        via_engine = TestIdealComputer(f, default_bound(f)).ideal_at(lam).ideal
        via_expansion = frobenius_root(power(f, int(q * lam)), e)
        if via_engine != via_expansion:
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked >= 200 and elapsed < 120
    report(2, ok, f"engine matched brute-force expansion on {checked} instances in {elapsed:.1f}s")


def test_criterion_3_nu_sandwich(corpus_fpts):
    failures = 0
    checked = 0
    for f, value in corpus_fpts:
        p = f.ring.prime
        m = maximal_ideal(f.ring)
        engine = FrobeniusRootEngine(f)
        for e in (1, 2, 3, 4):
            v = engine.nu(m, e)
            q = p**e
            checked += 1
            if not (F(v, q) < value <= F(v + 1, q)):
                failures += 1
    report(
        3,
        failures == 0,
        f"nu/p^e < fpt <= (nu+1)/p^e held on {checked} (f, e) instances "
        f"({len(corpus_fpts)} thresholds)",
    )


def test_criterion_4_structural_invariants(reference_case, fuzz_corpus):
    _, quartic5, reference_walk, _ = reference_case
    cases = [(quartic5, reference_walk)]
    for g in fuzz_corpus:
        bound = default_bound(g)
        if bound <= 4:
            cases.append((g, jumping_numbers_unit_interval(g, bound)))
    ok = True
    for f, walk in cases:
        p = f.ring.prime
        bound = walk.bound
        jn = set(walk.jumping_numbers)
        positive = [x for x in walk.jumping_numbers if x > 0]
        # containment in the candidate set
        for lam in positive:
            u, v = canonical_pair(lam, p)
            ok = ok and (u + v <= bound)
        # closure under lam -> frac(p*lam)
        for lam in positive:
            scaled = p * lam
            ok = ok and (scaled - scaled.numerator // scaled.denominator) in jn
        # strictly descending ideals
        for a, b in zip(walk.test_ideals, walk.test_ideals[1:]):
            ok = ok and a.contains_ideal(b) and a != b
        # jacobian containment when the jacobian is primary to the origin
        if singularity_profile(f).is_isolated:
            jac = jacobian(f)
            for ideal in walk.test_ideals:
                ok = ok and ideal.contains_ideal(jac)
        if not ok:
            break
    report(4, ok, f"shape, closure, descent, jacobian containment on {len(cases)} walks")


def test_criterion_5_candidate_gap():
    checked = 0
    ok = True
    for p in (2, 3, 5):
        for bound in (1, 2, 3):
            values = candidate_set(p, bound, (F(0), F(1))).values
            floor = F(1, p ** (2 * bound))
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    checked += 1
                    if values[j] - values[i] <= floor:
                        ok = False
    report(5, ok, f"pairwise spacing above p^-2B verified on {checked} pairs exhaustively")


def test_criterion_6_root_algebra():
    rng = random.Random(77)
    rings = {p: PolyRing(p, ["x", "y"]) for p in (2, 3, 5)}
    composition = scaling = recursion = independence = 0
    ok = True
    for trial in range(105):
        p = (2, 3, 5)[trial % 3]
        ring = rings[p]
        # composition
        J = Ideal(ring, tuple(random_poly(rng, ring, 5, 3) for _ in range(2)))
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        ok = ok and (
            frobenius_root_ideal(frobenius_root_ideal(J, a), b) == frobenius_root_ideal(J, a + b)
        )
        composition += 1
        # scaling rule
        g = random_poly(rng, ring, 3, 3)
        h = random_poly(rng, ring, 3, 3)
        ok = ok and (
            frobenius_root_ideal(Ideal(ring, (power(g, p) * h,)), 1)
            == Ideal(ring, tuple(g * r for r in frobenius_root(h, 1).generators))
        )
        scaling += 1
        # recursion against direct expansion
        f = random_poly(rng, ring, 3, 3)
        n, e = rng.randint(1, 40), rng.randint(1, 3)
        ok = ok and FrobeniusRootEngine(f).root_power(n, e) == frobenius_root(power(f, n), e)
        recursion += 1
        # generating-set independence
        g1 = random_poly(rng, ring, 4, 3)
        g2 = random_poly(rng, ring, 4, 3)
        J1 = Ideal(ring, (g1, g2))
        J2 = Ideal(ring, (g1, g2, g1 + g2 * random_poly(rng, ring, 2, 2)))
        e = rng.randint(1, 2)
        ok = ok and frobenius_root_ideal(J1, e) == frobenius_root_ideal(J2, e)
        independence += 1
        if not ok:
            break
    ok = ok and min(composition, scaling, recursion, independence) >= 100
    report(
        6,
        ok,
        f"composition/scaling/recursion/independence on "
        f"{composition}/{scaling}/{recursion}/{independence} instances",
    )


def test_criterion_7_fpt_constancy_at_full_order():
    ring = PolyRing(7, ["x", "y"])
    f = parse_polynomial("x^2 + y^3", ring)
    profile = singularity_profile(f)
    start = time.perf_counter()
    base = jumping_numbers_unit_interval(f, 2)
    perturbed = jumping_numbers_unit_interval(f + ring.monomial((4802, 0)), 2)
    elapsed = time.perf_counter() - start
    ok = (
        profile.ell == 2
        and profile.bound_fpt == 4802
        and base.fpt == F(5, 6)
        and perturbed.fpt == base.fpt
        and elapsed < 600
    )
    report(
        7,
        ok,
        f"fpt(x^2+y^3) = fpt(x^2+y^3+x^4802) = {base.fpt} at p=7, "
        f"full walks in {elapsed:.1f}s",
    )


def test_criterion_8_perturbation_harness():
    ring = PolyRing(5, ["x", "y"])
    f = parse_polynomial("x^4 + y^3 + x^2*y^2", ring)
    start = time.perf_counter()
    result = constancy_report(f, [9], 10, seed=20260809)
    elapsed = time.perf_counter() - start
    stable = all(r.jacobian_stable for r in result.records)
    gaps = all(r.fpt_gap <= F(2, 9) for r in result.records)
    equal_count = sum(1 for r in result.records if r.fpt_equal)
    ok = stable and gaps and len(result.records) == 10 and elapsed < 1800
    report(
        8,
        ok,
        f"10 samples in m^9: jacobian stable, |gap| <= 2/9; fpt equality held on "
        f"{equal_count}/10 (recorded, not required) in {elapsed:.1f}s",
    )


def _test_ideal_constancy_for(h_exponent: int) -> tuple[bool, int]:
    ring = PolyRing(7, ["x", "y"])
    f = parse_polynomial("x^2 + y^3", ring)
    base = jumping_numbers_unit_interval(f, 2)
    perturbed_poly = f + ring.monomial((h_exponent, 0))
    checked = 0
    ok = True
    from fptkit import local_ideal_equal

    for lam in base.jumping_numbers:
        a = TestIdealComputer(f, 2).ideal_at(lam).ideal
        b = TestIdealComputer(perturbed_poly, 2).ideal_at(lam).ideal
        ok = ok and local_ideal_equal(a, b, 2)
        checked += 1
    return ok, checked


def test_criterion_9_test_ideal_constancy():
    ok, checked = _test_ideal_constancy_for(4802)
    report(
        9,
        ok,
        f"tau(f^lam) = tau((f+x^4802)^lam) locally at every jumping number "
        f"in [0,1) ({checked} parameters)",
    )


def test_criterion_9_full_m_exponent():
    ok, checked = _test_ideal_constancy_for(100842)
    report(9, ok, f"order-M variant (h = x^100842) agreed on {checked} parameters")
