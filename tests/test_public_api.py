import sys

import fptkit

# One name per question: a query builds a TestIdealComputer and asks it
# (ideal_at, left_limit_at, is_jump, fpt, f_threshold), and nu is asked of
# a FrobeniusRootEngine; ideal sums,
# products and equality are Ideal(...) and ==.  A name added here is a new
# public entry point, not a second spelling of an existing one.
PUBLIC = [
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
    "PolyRing",
    "Polynomial",
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


def test_public_surface_is_pinned():
    assert sorted(fptkit.__all__) == PUBLIC
    for name in PUBLIC:
        obj = getattr(fptkit, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("fptkit."), name
        assert name in module.__all__, (name, module.__name__)
