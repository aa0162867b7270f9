import random
from fractions import Fraction

import pytest

from fptkit import (
    DomainError,
    Ideal,
    StabilityError,
    canonical_pair,
    constancy_report,
    jacobian,
    jacobian_stability_check,
    jumping_numbers_unit_interval,
    local_ideal_equal,
    parse_polynomial,
    random_perturbation,
    singularity_profile,
    threshold_ideal_consistency,
)

from conftest import random_poly

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
        out = []
        for d in range(c):
            out.extend(ring.monomials_of_degree(d))
        return out

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

    def test_equivalence_on_valid_inputs(self, ring5):
        a = ideal_of(ring5, "x", "y")
        b = ideal_of(ring5, "x + x^2", "y + x*y")
        c = ideal_of(ring5, "x + y^4", "y")
        assert local_ideal_equal(a, b, 2)
        assert local_ideal_equal(b, c, 2)
        assert local_ideal_equal(a, c, 2)


class TestJacobianStability:
    def test_examples(self, ring7, ring5, cusp7, quartic5):
        cusp = singularity_profile(cusp7)
        assert jacobian_stability_check(cusp, ring7.monomial((5, 0)))
        assert jacobian_stability_check(cusp, ring7.zero())
        assert jacobian_stability_check(singularity_profile(quartic5), ring5.monomial((9, 0)))

    def test_low_order_rejected(self, cusp7, ring7):
        with pytest.raises(DomainError) as err:
            jacobian_stability_check(singularity_profile(cusp7), ring7.monomial((4, 0)))
        assert "5" in str(err.value)

    def test_non_isolated_rejected(self, ring5):
        profile = singularity_profile(parse_polynomial("x^2", ring5))
        with pytest.raises(DomainError):
            jacobian_stability_check(profile, ring5.monomial((9, 0)))


class TestRandomPerturbation:
    def test_shape(self, ring5):
        h = random_perturbation(ring5, 3, 3, 1, seed=1)
        assert h.term_count() == 1
        assert h.total_degree() == 3

    def test_degree_window(self, ring5):
        h = random_perturbation(ring5, 5, 8, 4, seed=9)
        degrees = sorted(sum(m) for m, _ in h.terms())
        assert all(5 <= d <= 8 for d in degrees)

    def test_determinism(self, ring5):
        a = random_perturbation(ring5, 5, 7, 3, seed=("s", 5, 0))
        b = random_perturbation(ring5, 5, 7, 3, seed=("s", 5, 0))
        assert a == b

    def test_empty(self, ring5):
        assert random_perturbation(ring5, 3, 3, 0, seed=1).is_zero()

    def test_rejects_bad_window(self, ring5):
        with pytest.raises(DomainError):
            random_perturbation(ring5, 4, 3, 1, seed=1)


class TestConstancyReport:
    def test_cusp_records(self, cusp7):
        report = constancy_report(cusp7, [5, 7], 2, seed=42)
        assert len(report.records) == 4
        for r in report.records:
            assert r.jacobian_stable
            assert r.fpt_gap <= r.gap_bound
            assert not r.theorem_violation
            assert r.gap_bound == F(2, r.exponent)

    def test_zero_gap_implies_flags(self, cusp7):
        report = constancy_report(cusp7, [6], 3, seed=7)
        for r in report.records:
            if r.fpt_equal:
                assert r.fpt_gap == 0

    def test_bound_sharing(self, cusp7):
        # every jumping number of f + h stays inside the candidate set for ell
        prof = singularity_profile(cusp7)
        rng = random.Random(43)
        for i in range(4):
            h = random_perturbation(cusp7.ring, prof.ell + 3, prof.ell + 4, 2, seed=i)
            rep = jumping_numbers_unit_interval(cusp7 + h, prof.ell)
            for lam in rep.jumping_numbers:
                if lam > 0:
                    u, v = canonical_pair(lam, 7)
                    assert u + v <= prof.ell

    def test_full_guaranteed_order(self, cusp7):
        # at k = N the threshold can no longer move; a single-monomial
        # perturbation keeps the perturbed walk sparse
        prof = singularity_profile(cusp7)
        report = constancy_report(cusp7, [prof.bound_fpt], 1, seed=11, term_count=1)
        (record,) = report.records
        assert record.h.term_count() == 1
        assert record.fpt_equal
        assert not record.theorem_violation

    def test_rejects_low_exponent(self, cusp7):
        with pytest.raises(DomainError):
            constancy_report(cusp7, [4], 1, seed=0)

    def test_rejects_non_isolated(self, ring5):
        with pytest.raises(DomainError):
            constancy_report(parse_polynomial("x^2", ring5), [9], 1, seed=0)

    def test_serialization(self, cusp7):
        report = constancy_report(cusp7, [5], 1, seed=3)
        doc = report.to_json()
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

    def test_vacuous_instance(self, ring5):
        x = ring5.variable("x")
        y = ring5.variable("y")
        assert threshold_ideal_consistency(x, y * y, F(1, 2), 1)
