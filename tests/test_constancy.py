import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from fptkit import (
    DomainError,
    Ideal,
    PolyRing,
    Polynomial,
    StabilityError,
    artinian_length,
    canonical_pair,
    constancy_report,
    jacobian,
    jumping_numbers_unit_interval,
    local_ideal_equal,
    parse_polynomial,
    power,
    random_perturbation,
    singularity_profile,
)

from fptkit import constancy, groebner
from fptkit.constancy import _equal_mod_m_power

from conftest import random_poly, spy
from consistency_oracle import threshold_ideal_consistency

F = Fraction


def ideal_of(ring, *texts):
    return Ideal(ring, tuple(parse_polynomial(t, ring) for t in texts))


def brute_length(J: Ideal) -> int:
    """Independent oracle: dim of R/(J + m^c) by row reduction, stabilized over c.

    Uses only polynomial multiplication, no Groebner machinery.
    """
    ring = J.ring
    p = ring.prime
    n = ring.dimension

    def monomials_below(c):
        return [m for m in product(range(c), repeat=n) if sum(m) < c]

    def dim_mod(c):
        mons = monomials_below(c)
        index = {m: i for i, m in enumerate(mons)}
        rows = []
        for g in J.generators:
            for alpha in mons:
                shifted = {}
                for m, coeff in g._terms.items():
                    mm = tuple(a + b for a, b in zip(m, alpha))
                    if sum(mm) < c:
                        shifted[mm] = coeff
                if shifted:
                    row = [0] * len(mons)
                    for m, coeff in shifted.items():
                        row[index[m]] = coeff
                    rows.append(row)
        rank = 0
        for col in range(len(mons)):
            pivot = None
            for r in range(rank, len(rows)):
                if rows[r][col] % p:
                    pivot = r
                    break
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = pow(rows[rank][col], p - 2, p)
            rows[rank] = [v * inv % p for v in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col] % p:
                    factor = rows[r][col]
                    rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
            rank += 1
        return len(mons) - rank

    prev = None
    for c in range(1, 40):
        cur = dim_mod(c)
        if prev is not None and cur == prev:
            return cur
        prev = cur
    raise AssertionError("length oracle failed to stabilize")


class TestJacobian:
    def test_examples(self, ring5, ring7):
        f = parse_polynomial("x^4 + y^3 + x^2*y^2", ring5)
        expected = ideal_of(ring5, "x^4 + y^3 + x^2*y^2", "4x^3 + 2x*y^2", "3y^2 + 2x^2*y")
        assert jacobian(f) == expected
        g = parse_polynomial("x^2 + y^3", ring7)
        assert jacobian(g) == ideal_of(ring7, "x", "y^2")
        assert jacobian(ring5.variable("x")).is_unit()


class TestSingularityProfile:
    def test_reference_quartic(self, quartic5):
        prof = singularity_profile(quartic5)
        assert prof.is_isolated
        assert prof.ell == 6
        assert prof.bound_fpt == 2 * 5**12 == 488281250
        assert prof.bound_test_ideals == 14 * 5**13 == 17089843750

    def test_cusp_char7(self, cusp7):
        prof = singularity_profile(cusp7)
        assert prof.ell == 2
        assert prof.bound_fpt == 2 * 7**4 == 4802
        assert prof.bound_test_ideals == 6 * 7**5 == 100842

    def test_non_isolated(self, ring5):
        prof = singularity_profile(parse_polynomial("x^2", ring5))
        assert not prof.is_isolated
        assert prof.ell is None and prof.bound_fpt is None

    def test_rejects_bad_inputs(self, ring5):
        with pytest.raises(DomainError):
            singularity_profile(ring5.zero())
        with pytest.raises(DomainError):
            singularity_profile(parse_polynomial("x + 1", ring5))

    def test_length_against_linear_algebra(self, ring5, ring7, quartic5, cusp7):
        assert brute_length(jacobian(quartic5)) == 6
        assert brute_length(jacobian(cusp7)) == 2
        rng = random.Random(41)
        found = 0
        while found < 8:
            ring = random.Random(found).choice([ring5, ring7])
            f = random_poly(rng, ring, 4, 4, min_deg=1)
            prof = singularity_profile(f)
            if not prof.is_isolated:
                continue
            assert brute_length(jacobian(f)) == prof.ell
            found += 1

    @pytest.mark.parametrize("names", ["x,y", "x,y,z"])
    def test_artinian_length_against_linear_algebra(self, names):
        # pure powers make each ideal primary to the origin; the other
        # generators cut the box x^a * y^b (* z^c) down
        rng = random.Random(17)
        for p in (2, 3, 5, 7) * 4:
            ring = PolyRing(p, names.split(","))
            caps = 4 if ring.dimension == 2 else 2
            pure = [power(x, rng.randint(1, caps)) for x in ring.gens()]
            extra = [random_poly(rng, ring, 3, 3, min_deg=1) for _ in range(rng.randint(0, 2))]
            J = Ideal(ring, (*pure, *extra))
            assert artinian_length(J) == brute_length(J)


class TestLocalIdealEqual:
    def test_examples(self, ring5):
        assert local_ideal_equal(ideal_of(ring5, "x"), ideal_of(ring5, "x + x^2"), 1)
        assert not local_ideal_equal(ideal_of(ring5, "x"), ideal_of(ring5, "y"), 1)
        J = ideal_of(ring5, "x", "y^3")
        assert local_ideal_equal(J, J, 2)

    def test_unit_multiple(self, ring5):
        # (f) and (u*f) agree locally for a unit u at the origin
        f = parse_polynomial("x^2 + y^3", ring5)
        u = parse_polynomial("1 + x + y^2", ring5)
        assert local_ideal_equal(Ideal(ring5, (f,)), Ideal(ring5, (u * f,)), 3)

    def test_stability_guard(self, ring5):
        # (x) vs (x + y^3): identical mod m^3, different mod m^4
        with pytest.raises(StabilityError):
            local_ideal_equal(ideal_of(ring5, "x"), ideal_of(ring5, "x + y^3"), 1)

    def test_equal_ideals_form_no_maximal_ideal_power(self, monkeypatch, ring5):
        # equal reduced bases stay equal after adding any m^k
        formed = []
        monkeypatch.setattr(
            constancy, "maximal_ideal_power", lambda *args: formed.append(args)
        )
        J = ideal_of(ring5, "x + y^2", "y^3")
        assert local_ideal_equal(J, J, 2)
        assert local_ideal_equal(J, ideal_of(ring5, "x + y^2", "y^3 + x*y^2 + y^4"), 4)
        assert formed == []

    def test_equivalence_on_valid_inputs(self, ring5):
        a = ideal_of(ring5, "x", "y")
        b = ideal_of(ring5, "x + x^2", "y + x*y")
        c = ideal_of(ring5, "x + y^4", "y")
        assert local_ideal_equal(a, b, 2)
        assert local_ideal_equal(b, c, 2)
        assert local_ideal_equal(a, c, 2)


# 15 draws of degree 2..5, at most 3 terms each, over F_5 in x, y
CUT_DRAWS = [
    "4x^4*y + 2x^2*y + 3x*y^2", "3y^5 + 4x*y^3 + x*y^2", "3x^2*y^3 + 3y^5 + 3x*y^3",
    "x^3*y^2 + y^3 + 4y^2", "y^4 + 2x^3 + 4x^2", "4x^4 + 3x^2*y + 3x*y", "3x^2 + 2y^2",
    "4x^4*y + 4x^3*y^2 + 4x^2*y", "3x^2*y + 2y^3 + 4x^2", "2x^2*y^3 + 3x^3*y + 4x^2*y^2",
    "3x^3 + 2x*y^2 + 2x*y", "x^2 + x*y", "2x*y^3 + x^3", "2x^2*y^2 + 4x^3 + 4x^2",
    "3x*y^4 + x^2*y^2 + 4x^2*y",
]


class TestJacobianStability:
    @pytest.mark.parametrize(
        "p, text",
        [
            (2, "x^2 + x*y + y^3"),
            (2, "x^3 + y^5"),
            (3, "x^2 + y^4"),
            (5, "x^4 + y^3 + x^2*y^2"),
            (7, "x^2 + y^3"),
            (11, "x^3 + y^4"),
            (2, "x*y + z^3"),
            (3, "x^2 + y^2 + z^4"),
            (5, "x^2 + y^3 + z^4"),
            (7, "x^2 + y^3 + z^3"),
            (11, "x^2 + y^2 + z^2"),
            (11, "x^2 + y^3 + z^4"),
        ],
    )
    def test_matches_global_basis_comparison(self, p, text):
        # the theorem behind jacobianStable: Jac(f+h) = Jac(f) at the
        # origin, by the global-basis comparison, at k = ell+3 and ell+4;
        # some draws put terms in the lowest degree the harness admits
        ring = PolyRing(p, ["x", "y", "z"] if "z" in text else ["x", "y"])
        f = parse_polynomial(text, ring)
        profile = singularity_profile(f)
        ell, lowest = profile.ell, 0
        for k in (ell + 3, ell + 4):
            for idx in range(4):
                h = random_perturbation(ring, k, (text, k, idx))
                lowest += any(sum(m) == ell + 3 for m, _ in h.terms())
                assert local_ideal_equal(profile.jacobian, jacobian(f + h), ell), (str(h), k)
        assert lowest > 0

    def test_cut_generators_at_every_order(self, quartic5, ring5):
        # Jac(f+h) + m^k from the generators cut below degree k equals it
        # from the global basis; h of low order makes both answers occur
        jac_f = jacobian(quartic5)
        seen = set()
        for idx, text in enumerate(CUT_DRAWS):
            k = 2 + idx % 5
            h = parse_polynomial(text, ring5)
            jac = jacobian(quartic5 + h)
            cut = Ideal(ring5, tuple(
                Polynomial(ring5, {m: c for m, c in g._terms.items() if sum(m) < k})
                for g in jac.generators
            ))
            equal = _equal_mod_m_power(jac_f, jac, k)
            assert _equal_mod_m_power(jac_f, cut, k) == equal
            seen.add(equal)
        assert seen == {True, False}


class TestRandomPerturbation:
    def test_shape(self):
        # at most 3 terms, each of degree k or k+1, never 0
        for p, names in product((2, 3, 5, 7), (["x"], ["x", "y"], ["x", "y", "z"])):
            ring = PolyRing(p, names)
            for k in (0, 1, 4):
                for seed in range(20):
                    h = random_perturbation(ring, k, seed)
                    assert 1 <= h.term_count() <= 3
                    assert all(sum(m) in (k, k + 1) for m, _ in h.terms())

    def test_determinism(self, ring5):
        a = random_perturbation(ring5, 5, seed=("s", 5, 0))
        b = random_perturbation(ring5, 5, seed=("s", 5, 0))
        assert a == b

    @pytest.mark.parametrize(
        "p, names, k, seed, expected",
        [
            # 2y*z^2 of the first draw vanishes mod 2; x*y*z stays
            (2, "x,y,z", 2, 2, "x*y*z"),
            (3, "x,y", 4, ("s", 4, 0), "x^3*y^2 + 2y^5 + x*y^3"),
            # the first draw, three terms on x^2 summing to 6x^2, cancels mod 3
            # and is redrawn
            (3, "x", 2, 4, "2x^3 + x^2"),
        ],
    )
    def test_golden_draws(self, p, names, k, seed, expected):
        # every draw is pinned: constancy records print h
        ring = PolyRing(p, names.split(","))
        assert str(random_perturbation(ring, k, seed)) == expected


class TestConstancyReport:
    def test_cusp_records(self, cusp7):
        report = constancy_report(cusp7, [5, 7], 2, seed=42)
        assert len(report.records) == 4
        for r in report.records:
            assert r.jacobian_stable
            assert r.fpt_gap <= r.gap_bound
            assert not r.theorem_violation
            assert r.gap_bound == F(2, r.exponent)

    def test_kernel_runs(self, monkeypatch, cusp7):
        # 97 runs and 24 powers m^k before the monomial cut and the equality
        # exit; 36 before the final carries and the start states became
        # front-end roots, which skip the kernel when one row is left; 11
        # before the Jacobian check stopped forming Jac(f+h)'s basis
        runs = spy(monkeypatch, groebner, "_buchberger")
        report = constancy_report(cusp7, [5, 6], 2, seed=3)
        assert len(report.records) == 4
        assert len(runs) == 7

    def test_zero_gap_implies_flags(self, cusp7):
        report = constancy_report(cusp7, [6], 3, seed=7)
        for r in report.records:
            if r.fpt_equal:
                assert r.fpt_gap == 0

    def test_bound_sharing(self, cusp7):
        # every jumping number of f + h stays inside the candidate set for ell
        prof = singularity_profile(cusp7)
        for text in ("x*y^5 + 3y^6", "x^3*y^3 + 4x^3*y^2", "6x^6 + 3y^5", "3x^4*y^2 + 6y^5"):
            h = parse_polynomial(text, cusp7.ring)
            rep = jumping_numbers_unit_interval(cusp7 + h, prof.ell)
            for lam in rep.jumping_numbers:
                if lam > 0:
                    u, v = canonical_pair(lam, 7)
                    assert u + v <= prof.ell

    def test_full_guaranteed_order(self, ring7, cusp7):
        # at k = N the threshold can no longer move, so a theorem violation
        # is exactly an fpt change; a single-monomial perturbation keeps the
        # perturbed walk sparse
        prof = singularity_profile(cusp7)
        N = prof.bound_fpt
        h = parse_polynomial("4x^1864*y^2938", ring7)
        assert N == 4802 and h.total_degree() == N
        base = jumping_numbers_unit_interval(cusp7, prof.ell)
        assert jumping_numbers_unit_interval(cusp7 + h, prof.ell).fpt == base.fpt

    @pytest.mark.xfail(strict=True, raises=DomainError, reason="global walk of f + h")
    def test_perturbation_with_singular_points_off_the_origin(self):
        # fptkit constancy --char 2 --vars x,y "x^3+y^3+x*y" --exponents 8
        # --samples 3 --seed 0 (the CLI passes the seed as text): an h in m^8
        # gives f + h singular points away from the origin, whose global jumps
        # are no candidates for B = ell = 1, so the perturbed walk raises; the
        # fpt at the origin stays 1
        f = parse_polynomial("x^3+y^3+x*y", PolyRing(2, ["x", "y"]))
        report = constancy_report(f, [8], 3, seed="0")
        assert all(r.fpt_equal and not r.theorem_violation for r in report.records)

    def test_rejects_low_exponent(self, cusp7):
        with pytest.raises(DomainError):
            constancy_report(cusp7, [4], 1, seed=0)

    def test_rejects_non_isolated(self, ring5):
        with pytest.raises(DomainError):
            constancy_report(parse_polynomial("x^2", ring5), [9], 1, seed=0)

    def test_serialization(self, cusp7):
        report = constancy_report(cusp7, [5], 1, seed=3)
        doc = report.to_json()
        assert doc["prime"] == 7
        assert doc["poly"] == "y^3 + x^2"
        assert doc["bound"] == 2  # ell of the cusp
        assert doc["seed"] == "3"
        assert doc["records"][0]["k"] == 5
        assert "fptF" in doc["records"][0]
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0].startswith("k,sample,fptF,fptFh,gap")
        assert len(csv_text.splitlines()) == 2

    def test_csv_golden(self, cusp7):
        rows = [
            "k,sample,fptF,fptFh,gap,gapBound,fptEqual,jumpingNumbersEqual,"
            "testIdealsEqualLocally,jacobianStable,theoremViolation",
            "5,0,5/6,5/6,0,2/5,True,True,True,True,False",
            "5,1,5/6,5/6,0,2/5,True,True,True,True,False",
            "6,0,5/6,5/6,0,1/3,True,True,True,True,False",
            "6,1,5/6,5/6,0,1/3,True,True,True,True,False",
        ]
        report = constancy_report(cusp7, [5, 6], 2, seed=3)
        assert report.to_csv() == "".join(row + "\r\n" for row in rows)


class TestThresholdIdealConsistency:
    def test_reflexive(self, quartic5):
        assert threshold_ideal_consistency(quartic5, quartic5, F(7, 12), 6)

    def test_perturbed(self, ring5, quartic5):
        g = quartic5 + ring5.monomial((9, 0))
        assert threshold_ideal_consistency(quartic5, g, F(7, 12), 6)

    def test_each_threshold_asks_for_the_radical(self, monkeypatch, ring5, quartic5):
        # nothing keeps a radical check: for each of a and b the instance asks
        # whether f and g lie in its radical, and each of the two f_threshold
        # calls asks again for itself, so 4 checks per target; here
        # tau(f^(7/12)) = tau(g^(7/12)), so a and b are one target asked twice.
        # Every binding of radical_member in the package is spied.
        real = groebner.radical_member
        runs = [
            spy(monkeypatch, module, "radical_member")
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "fptkit" and getattr(module, "radical_member", None) is real
        ]
        g = quartic5 + ring5.monomial((9, 0))
        assert threshold_ideal_consistency(quartic5, g, F(7, 12), 6)
        assert sum(map(len, runs)) == 8

    def test_vacuous_instance(self, ring5):
        x = ring5.variable("x")
        y = ring5.variable("y")
        assert threshold_ideal_consistency(x, y * y, F(1, 2), 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: local_ideal_equal(jacobian(f), jacobian(f), -1), "ell must be >= 0"),
        (lambda f: random_perturbation(f.ring, -1, 0), "k must be >= 0"),
        (lambda f: constancy_report(f, None, 0, 1), "samples_per_exponent must be >= 1"),
        (lambda f: threshold_ideal_consistency(f + 1, f, F(7, 12), 6),
         "both polynomials must vanish at the origin"),
    ],
    ids=["local_ideal_equal", "random_perturbation", "constancy_report",
         "threshold_ideal_consistency"],
)
def test_guards(cusp7, call, message):
    with pytest.raises(DomainError) as err:
        call(cusp7)
    assert str(err.value) == message
