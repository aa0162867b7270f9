"""F-pure thresholds, F-jumping numbers, and test ideals over prime fields.

The package computes prime-characteristic singularity invariants of
polynomials in F_p[x_1..x_n] with exact rational arithmetic throughout:

* base-p candidate machinery (truncations, exponent pairs, candidate sets),
* sparse polynomial and Groebner arithmetic over F_p,
* Frobenius-root ideals with a digit recursion for huge exponents,
* test ideals, jumping numbers, F-pure thresholds, F-thresholds,
* perturbation-constancy harnesses for isolated singularities.

A query builds one TestIdealComputer(f, bound) and asks it every question:
ideal_at, left_limit_at, is_jump, fpt and f_threshold share its root engine,
and the nu invariants are FrobeniusRootEngine(f).nu(b, e).
"""

from .basep import (
    CandidateSet,
    ExponentPair,
    candidate_set,
    canonical_pair,
    equal_by_truncation,
    format_rational,
    frac_orbit,
    is_exponent_pair,
    parse_rational,
    truncate,
)
from .constancy import (
    ConstancyReport,
    PerturbationRecord,
    SingularityProfile,
    constancy_report,
    jacobian_stability_check,
    local_ideal_equal,
    random_perturbation,
    singularity_profile,
    threshold_ideal_consistency,
)
from .errors import (
    DomainError,
    EngineError,
    InfeasibleError,
    NotMPrimaryError,
    ParseError,
    StabilityError,
)
from .froot import (
    FrobeniusRootEngine,
    frobenius_root,
    frobenius_root_ideal,
)
from .groebner import (
    Ideal,
    artinian_length,
    bracket_power,
    jacobian,
    maximal_ideal,
    maximal_ideal_power,
    normal_form,
)
from .parsing import parse_polynomial
from .poly import Polynomial, PolyRing, partial_derivative, power
from .testideal import (
    JumpingNumberReport,
    TestIdealComputer,
    TestIdealResult,
    default_bound,
    degree_bound,
    jumping_numbers_unit_interval,
    least_parameter,
    stabilization_exponent,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateSet",
    "ConstancyReport",
    "DomainError",
    "EngineError",
    "ExponentPair",
    "FrobeniusRootEngine",
    "Ideal",
    "InfeasibleError",
    "JumpingNumberReport",
    "NotMPrimaryError",
    "ParseError",
    "PerturbationRecord",
    "Polynomial",
    "PolyRing",
    "SingularityProfile",
    "StabilityError",
    "TestIdealComputer",
    "TestIdealResult",
    "artinian_length",
    "bracket_power",
    "candidate_set",
    "canonical_pair",
    "constancy_report",
    "default_bound",
    "degree_bound",
    "equal_by_truncation",
    "format_rational",
    "frac_orbit",
    "frobenius_root",
    "frobenius_root_ideal",
    "is_exponent_pair",
    "jacobian",
    "jacobian_stability_check",
    "jumping_numbers_unit_interval",
    "least_parameter",
    "local_ideal_equal",
    "maximal_ideal",
    "maximal_ideal_power",
    "normal_form",
    "parse_polynomial",
    "parse_rational",
    "partial_derivative",
    "power",
    "random_perturbation",
    "singularity_profile",
    "stabilization_exponent",
    "threshold_ideal_consistency",
    "truncate",
]
