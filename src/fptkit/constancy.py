"""Isolated-singularity profiles and perturbation-constancy harnesses.

A polynomial with Jacobian ideal primary to the origin carries a profile
(ell, N, M): ell is the length of R modulo the Jacobian ideal; adding any
h from m^N preserves the F-pure threshold of the localization at the
origin, and any h from m^M preserves every test ideal with parameter in
[0, 1).  The harness samples perturbations, recomputes everything on both
sides, and records the comparisons record by record.

Local (at the origin) ideal comparisons never materialize a localized
ring: two ideals that both contain a power of the maximal ideal locally
agree iff they agree after adding m^K0 for K0 past that power, so the
comparison reduces to global reduced-basis equality, double-checked one
exponent higher.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from fractions import Fraction

from .basep import format_rational
from .errors import DomainError, StabilityError
from .groebner import Ideal, jacobian, maximal_ideal_power
from .parsing import _decimal
from .poly import Polynomial, PolyRing
from .testideal import TestIdealComputer, isolated_jacobian, jumping_numbers_unit_interval

__all__ = [
    "SingularityProfile",
    "PerturbationRecord",
    "ConstancyReport",
    "singularity_profile",
    "local_ideal_equal",
    "jacobian_stability_check",
    "random_perturbation",
    "constancy_report",
    "threshold_ideal_consistency",
]


@dataclass(frozen=True)
class SingularityProfile:
    """Data attached to f when its Jacobian ideal is primary to the origin.

    bound_fpt is the perturbation order past which the F-pure threshold is
    guaranteed stable; bound_test_ideals the (much larger) order past which
    all test ideals with parameter below 1 are stable.
    """

    poly: Polynomial
    jacobian: Ideal
    is_isolated: bool
    ell: int | None
    bound_fpt: int | None
    bound_test_ideals: int | None

    def to_json(self) -> dict:
        N, M = self.bound_fpt, self.bound_test_ideals
        return {
            "prime": self.poly.ring.prime,
            "poly": str(self.poly),
            "isIsolated": self.is_isolated,
            "ell": self.ell,
            "boundN": None if N is None else _decimal(N),
            "boundM": None if M is None else _decimal(M),
            "jacobian": self.jacobian.to_json(),
        }


def singularity_profile(f: Polynomial) -> SingularityProfile:
    """ell, N = p^(2*ell) * dim R, and M = p^(2*ell+1) * (ell+1) * dim R."""
    if f.is_zero() or f.constant_term() != 0:
        raise DomainError("the polynomial must be nonzero and vanish at the origin")
    jac, ell = isolated_jacobian(f)
    if ell is None:
        return SingularityProfile(f, jac, False, None, None, None)
    p = f.ring.prime
    n = f.ring.dimension
    bound_fpt = p ** (2 * ell) * n
    bound_ti = p ** (2 * ell + 1) * (ell + 1) * n
    return SingularityProfile(f, jac, True, ell, bound_fpt, bound_ti)


def _equal_mod_m_power(J: Ideal, K: Ideal, k: int) -> bool:
    # J + m^k from J's reduced basis, so J's raw generators are not reduced again
    mk = maximal_ideal_power(J.ring, k).generators
    return Ideal(J.ring, J.basis() + mk) == Ideal(K.ring, K.basis() + mk)


def local_ideal_equal(J: Ideal, K: Ideal, ell: int) -> bool:
    """Do J and K agree after localizing at the origin?

    Valid when both localizations contain m^(ell+1); the comparison adds
    m^(ell+2) to both sides and re-checks one exponent higher.  Divergent
    answers mean the containment precondition fails, and raise instead of
    guessing.
    """
    if J.ring != K.ring:
        raise DomainError("ideal ring mismatch")
    if ell < 0:
        raise DomainError("ell must be >= 0")
    first = _equal_mod_m_power(J, K, ell + 2)
    second = _equal_mod_m_power(J, K, ell + 3)
    if first != second:
        raise StabilityError(
            f"local comparison unstable between exponents {ell + 2} and {ell + 3}; "
            "the ideals do not both contain the required power of the maximal ideal"
        )
    return first


def jacobian_stability_check(profile: SingularityProfile, h: Polynomial) -> bool:
    """Whether Jac(f) and Jac(f+h) agree at the origin, for f = profile.poly;
    h needs order >= ell+3.

    ``local_ideal_equal`` only reads Jac(f+h) + m^k for k = ell+2 and ell+3,
    and that ideal is generated by m^k and Jac(f+h)'s generators cut below
    degree ell+3, because every dropped term lies in m^k.  So the cut
    generators stand in for Jac(f+h), and its global basis, whose degrees
    grow with h, is never formed.
    """
    if not profile.is_isolated:
        raise DomainError("jacobian stability requires an isolated singularity at the origin")
    required = profile.ell + 3
    if not h.is_zero():
        order = min(sum(m) for m, _ in h.terms())
        if order < required:
            raise DomainError(
                f"perturbation has a monomial of degree {order}; every monomial "
                f"must have degree >= {required}"
            )
    jac = jacobian(profile.poly + h)
    cut = Ideal(jac.ring, tuple(g.truncate(required) for g in jac.generators))
    return local_ideal_equal(profile.jacobian, cut, profile.ell)


def random_perturbation(
    ring: PolyRing, k: int, max_degree: int, term_count: int, seed
) -> Polynomial:
    """A seeded random polynomial whose monomials have degree in [k, max_degree].

    Deterministic in seed, at most term_count terms, nonzero unless
    term_count is 0: a draw whose terms all cancel mod p is redrawn.  Over
    F_2 with one admissible monomial an even term_count cancels in every
    draw, so that case raises DomainError.
    """
    if max_degree < k:
        raise DomainError("max_degree must be >= k")
    if term_count < 0:
        raise DomainError("term_count must be >= 0")
    p = ring.prime
    if p == 2 and term_count and term_count % 2 == 0 and k == max_degree and (
        ring.dimension == 1 or k == 0
    ):
        raise DomainError("every draw of an even term_count of one monomial over F_2 cancels")
    rng = random.Random(repr(seed))
    while True:
        terms: dict = {}
        for _ in range(term_count):
            d = rng.randint(k, max_degree)
            cuts = [0, *sorted(rng.randint(0, d) for _ in range(ring.dimension - 1)), d]
            m = tuple(b - a for a, b in zip(cuts, cuts[1:]))
            terms[m] = terms.get(m, 0) + (rng.randrange(1, p) if p > 2 else 1)
        h = Polynomial(ring, terms)
        if not h.is_zero() or not terms:
            return h


@dataclass(frozen=True)
class PerturbationRecord:
    exponent: int
    sample_index: int
    h: Polynomial
    fpt_base: Fraction
    fpt_perturbed: Fraction
    fpt_equal: bool
    jumping_numbers_equal: bool
    test_ideals_equal_locally: bool
    jacobian_stable: bool
    fpt_gap: Fraction
    gap_bound: Fraction
    theorem_violation: bool

    def to_json(self) -> dict:
        return {
            "k": self.exponent,
            "sample": self.sample_index,
            "h": str(self.h),
            "fptF": format_rational(self.fpt_base),
            "fptFh": format_rational(self.fpt_perturbed),
            "fptEqual": self.fpt_equal,
            "jumpingNumbersEqual": self.jumping_numbers_equal,
            "testIdealsEqualLocally": self.test_ideals_equal_locally,
            "jacobianStable": self.jacobian_stable,
            "fptGap": format_rational(self.fpt_gap),
            "gapBound": format_rational(self.gap_bound),
            "theoremViolation": self.theorem_violation,
        }


# CSV column -> PerturbationRecord.to_json key; the CSV omits h.
_CSV_COLUMNS = {
    "k": "k", "sample": "sample", "fptF": "fptF", "fptFh": "fptFh", "gap": "fptGap",
    "gapBound": "gapBound", "fptEqual": "fptEqual", "jumpingNumbersEqual": "jumpingNumbersEqual",
    "testIdealsEqualLocally": "testIdealsEqualLocally", "jacobianStable": "jacobianStable",
    "theoremViolation": "theoremViolation",
}


@dataclass(frozen=True)
class ConstancyReport:
    profile: SingularityProfile
    seed: object
    records: tuple[PerturbationRecord, ...]

    def to_json(self) -> dict:
        return {
            "prime": self.profile.poly.ring.prime,
            "poly": str(self.profile.poly),
            "bound": self.profile.ell,
            "seed": str(self.seed),
            "profile": self.profile.to_json(),
            "records": [r.to_json() for r in self.records],
        }

    def to_csv(self) -> str:
        """One row per record, each column read from PerturbationRecord.to_json."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(_CSV_COLUMNS)
        for r in self.records:
            doc = r.to_json()
            writer.writerow([doc[key] for key in _CSV_COLUMNS.values()])
        return out.getvalue()


def constancy_report(
    f: Polynomial,
    exponents,
    samples_per_exponent: int,
    seed,
    term_count: int = 3,
) -> ConstancyReport:
    """Perturb f inside m^k for each requested k and compare the walks of f and f + h.

    Each perturbation h has at most term_count terms, all of degree in
    [k, k+1].  Requires an isolated singularity and k >= ell + 3, so that
    the bound B = ell is valid for f and for the jumps of f + h at the
    origin.  The walks are global, though: h can give f + h singular points
    away from the origin, whose jumps need not be candidates for B = ell,
    and the perturbed walk then finds them or raises DomainError.
    ``exponents=None`` asks for the single order k = ell + 3.
    """
    profile = singularity_profile(f)
    if not profile.is_isolated:
        raise DomainError("constancy reports require an isolated singularity at the origin")
    ell = profile.ell
    exponents = [ell + 3] if exponents is None else list(exponents)
    if not exponents:
        raise DomainError("at least one perturbation exponent is required")
    for k in exponents:
        if k < ell + 3:
            raise DomainError(
                f"exponent {k} is below ell + 3 = {ell + 3}; the shared bound would be invalid"
            )
    if samples_per_exponent < 1:
        raise DomainError("samples_per_exponent must be >= 1")
    base = jumping_numbers_unit_interval(f, ell)
    dim = f.ring.dimension
    records = []
    for k in exponents:
        for idx in range(samples_per_exponent):
            h = random_perturbation(f.ring, k, k + 1, term_count, (seed, k, idx))
            pert = jumping_numbers_unit_interval(f + h, ell)
            fpt_equal = base.fpt == pert.fpt
            jn_equal = base.jumping_numbers == pert.jumping_numbers
            if jn_equal:
                ti_equal = all(
                    local_ideal_equal(a, b, ell)
                    for a, b in zip(base.test_ideals, pert.test_ideals)
                )
            else:
                ti_equal = False
            jac_stable = jacobian_stability_check(profile, h)
            gap = abs(base.fpt - pert.fpt)
            gap_bound = Fraction(dim, k)
            violation = k >= profile.bound_fpt and not fpt_equal
            records.append(
                PerturbationRecord(
                    exponent=k,
                    sample_index=idx,
                    h=h,
                    fpt_base=base.fpt,
                    fpt_perturbed=pert.fpt,
                    fpt_equal=fpt_equal,
                    jumping_numbers_equal=jn_equal,
                    test_ideals_equal_locally=ti_equal,
                    jacobian_stable=jac_stable,
                    fpt_gap=gap,
                    gap_bound=gap_bound,
                    theorem_violation=violation,
                )
            )
    return ConstancyReport(profile, seed, tuple(records))


def threshold_ideal_consistency(f: Polynomial, g: Polynomial, lam, bound: int) -> bool:
    """Instance check: matching F-thresholds force matching test ideals.

    Computes a = tau(f^lam) and b = tau(g^lam) plus the four thresholds of
    f and g against a and b.  When both pairs of thresholds agree, the two
    ideals must coincide; the function reports whether that implication
    holds on this instance.  A threshold whose radical precondition fails
    counts as "hypotheses not met", which makes the implication vacuous.
    """
    if f.constant_term() != 0 or g.constant_term() != 0:
        raise DomainError("both polynomials must vanish at the origin")
    cf, cg = TestIdealComputer(f, bound), TestIdealComputer(g, bound)
    a, b = cf.ideal_at(lam), cg.ideal_at(lam)

    def thresholds_match(target: Ideal) -> bool:
        if target.is_unit():
            return True  # both thresholds are 0 by convention
        if not (cf.engine.in_radical(target) and cg.engine.in_radical(target)):
            return False
        return cf.f_threshold(target) == cg.f_threshold(target)

    if thresholds_match(a) and thresholds_match(b):
        return a == b
    return True
