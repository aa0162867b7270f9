"""The five value classes: keyword construction, immutability, equality
and hash.  They are plain classes, with no generated code, so these are the
contracts their callers rely on."""

from fractions import Fraction

import pytest

from fptkit import (
    ConstancyReport,
    ExponentPair,
    JumpingNumberReport,
    PerturbationRecord,
    SingularityProfile,
    TestIdealComputer,
    maximal_ideal,
)

F = Fraction


@pytest.fixture(scope="module")
def fields(cusp7):
    """{class: keyword arguments} of one instance of each value class."""
    ring = cusp7.ring
    m = maximal_ideal(ring)
    profile = dict(
        poly=cusp7, jacobian=m, is_isolated=True, ell=2, bound_fpt=2 * 7**4,
        bound_test_ideals=3 * 2 * 7**5,
    )
    record = dict(
        exponent=5, sample_index=0, h=ring.variable("x") ** 5, fpt_base=F(5, 6),
        fpt_perturbed=F(5, 6), fpt_equal=True, jumping_numbers_equal=True,
        test_ideals_equal_locally=True, jacobian_stable=True, fpt_gap=F(0),
        gap_bound=F(2, 5), theorem_violation=False,
    )
    return {
        ExponentPair: dict(u=1, v=2),
        JumpingNumberReport: dict(
            jumping_numbers=(F(0), F(5, 6)), test_ideals=(m, m), fpt=F(5, 6),
            candidate_count=4, elapsed=0.25, computer=TestIdealComputer(cusp7, 2),
        ),
        SingularityProfile: profile,
        PerturbationRecord: record,
        ConstancyReport: dict(
            profile=SingularityProfile(**profile), seed="0",
            records=(PerturbationRecord(**record),),
        ),
    }


CLASSES = [ExponentPair, JumpingNumberReport, SingularityProfile, PerturbationRecord,
           ConstancyReport]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_keyword_construction_round_trips(fields, cls):
    kwargs = fields[cls]
    value = cls(**kwargs)
    for name, given in kwargs.items():
        assert getattr(value, name) is given, name


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_raises(fields, cls):
    value = cls(**fields[cls])
    for name in [*fields[cls], "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name, given in fields[cls].items():
        assert getattr(value, name) is given, name


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_fields_compare_and_hash_equal(fields, cls):
    a, b = cls(**fields[cls]), cls(**fields[cls])
    assert a == b and hash(a) == hash(b)
    assert not a != b


@pytest.mark.parametrize(
    "cls, name, other",
    [
        (ExponentPair, "v", 3),
        (SingularityProfile, "ell", 3),
        (PerturbationRecord, "fpt_equal", False),
        (ConstancyReport, "seed", "1"),
    ],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_a_changed_field_compares_unequal(fields, cls, name, other):
    assert cls(**fields[cls]) != cls(**{**fields[cls], name: other})


def test_exponent_pair_shape(fields):
    pair = ExponentPair(1, 2)
    assert pair == ExponentPair(**fields[ExponentPair])
    assert repr(pair) == "ExponentPair(u=1, v=2)"
    u, v = pair
    assert (u, v) == (1, 2)


class TestJumpingNumberReport:
    def test_elapsed_and_computer_are_not_compared(self, fields, cusp7):
        kwargs = fields[JumpingNumberReport]
        report = JumpingNumberReport(**kwargs)
        for changed in ({"elapsed": 9.5}, {"computer": TestIdealComputer(cusp7, 3)}):
            other = JumpingNumberReport(**{**kwargs, **changed})
            assert report == other and hash(report) == hash(other), changed

    def test_candidate_count_is_compared(self, fields):
        kwargs = fields[JumpingNumberReport]
        assert JumpingNumberReport(**kwargs) != JumpingNumberReport(**{**kwargs, "candidate_count": 5})

    def test_positional_construction(self, fields):
        kwargs = fields[JumpingNumberReport]
        assert JumpingNumberReport(*kwargs.values()) == JumpingNumberReport(**kwargs)

    def test_repr_leaves_out_the_computer(self, fields):
        text = repr(JumpingNumberReport(**fields[JumpingNumberReport]))
        assert text.startswith("JumpingNumberReport(jumping_numbers=(Fraction(0, 1), ")
        assert "candidate_count=4, elapsed=0.25)" in text
        assert "computer" not in text and "TestIdealComputer" not in text

    def test_deletion_raises(self, fields):
        report = JumpingNumberReport(**fields[JumpingNumberReport])
        with pytest.raises(AttributeError):
            del report.fpt
        assert report.fpt == F(5, 6)

    def test_is_not_equal_to_another_type(self, fields):
        report = JumpingNumberReport(**fields[JumpingNumberReport])
        assert report != tuple(fields[JumpingNumberReport].values())[:4]
