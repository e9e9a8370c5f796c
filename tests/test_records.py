"""The record classes: equality, hashing, immutability and construction.

Immutable records are named tuples, or (``Perm``, ``IntPoly``) classes that
validate or normalise in ``__init__``; mutable records are plain classes.
None is a dataclass (importing ``dataclasses`` and decorating the records
cost about a quarter of a cold start); these tests pin what callers relied
on when they were.
"""

import pytest

from endocert import polygal
from endocert.errors import InternalInconsistencyError
from endocert.fflin import MatF
from endocert.permgroup import Perm
from endocert.permgroup import families as fam
from endocert.polygal import CycleTypeCensus, IntPoly
from endocert.repmod import build_heart
from endocert.verdict import FACTS, ChecklistEntry, FactRecord, Outcome, Verdict, engine, fact
from endocert.verdict.engine import CaseInput, Recognition
from endocert.verdict.glz import gl_has_element_of_order

# (two equal records built separately, one that differs, the field values)
EQUAL_PAIRS = {
    "MatF": (lambda: MatF(2, 2, (1, 3)), MatF(2, 2, (1, 2)), (2, 2, (1, 3))),
    "Perm": (lambda: Perm((1, 2, 0)), Perm((2, 0, 1)), ((1, 2, 0),)),
    "IntPoly": (lambda: IntPoly([-1, -1, 0, 1]), IntPoly((-1, 1, 0, 1)), ((-1, -1, 0, 1),)),
    "ChecklistEntry": (lambda: ChecklistEntry("h", "verified", "c", "e"),
                       ChecklistEntry("h", "assumed", "c", "e"), ("h", "verified", "c", "e")),
    "FactRecord": (lambda: FactRecord("k", "s", "c"), FactRecord("k", "s", "d"), ("k", "s", "c")),
}


@pytest.mark.parametrize("name", EQUAL_PAIRS)
def test_equal_records_compare_and_hash_equal(name):
    build, other, fields = EQUAL_PAIRS[name]
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and len({a, b, other}) == 2
    # the hash of the field tuple, as the frozen dataclasses computed it, so
    # sets of records iterate in the same order as before
    assert hash(a) == hash(fields)


def test_fact_lookup_returns_an_equal_record():
    record = fact("klemm-criterion")
    assert record == FactRecord(record.key, record.statement, record.citation)
    assert FACTS["klemm-criterion"] is record


FROZEN = [
    (lambda: MatF.identity(2), "rows", (0, 0)),
    (lambda: Perm((1, 0)), "images", (0, 1)),
    (lambda: IntPoly((1, 1)), "coeffs", (1,)),
    (lambda: ChecklistEntry("h", "verified", "c", ""), "status", "failed"),
    (lambda: FactRecord("k", "s", "c"), "citation", ""),
    (lambda: build_heart(5), "dim", 2),
    (lambda: Recognition("generic", "G"), "kind", "symmetric"),
    (lambda: gl_has_element_of_order(2, 3)[1], "m", 2),
    (lambda: engine._FamilyFacts(), "simple", "atlas-m22-simple"),
]


@pytest.mark.parametrize("build, name, value", FROZEN)
def test_assigning_to_a_field_of_an_immutable_record_raises(build, name, value):
    record = build()
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == before


@pytest.mark.parametrize("images", [(0, 0, 1), (0, 3, 1), (0, 1, -1), (0, 1.0), (1,)])
def test_perm_rejects_a_non_permutation(images):
    with pytest.raises(ValueError, match="not a permutation"):
        Perm(images)


def test_perm_keeps_its_images():
    assert Perm(images=(2, 0, 1)).images == (2, 0, 1)


def test_intpoly_trims_trailing_zeros():
    f = IntPoly([3, 0, 2, 0, 0])
    assert f.coeffs == (3, 0, 2) and f.degree == 2
    assert f == IntPoly((3, 0, 2))
    assert IntPoly((0, 0)).is_zero() and IntPoly((0, 0)) == IntPoly(())


def test_intpoly_caches_its_discriminant(monkeypatch):
    f = IntPoly.parse("x^5 - x - 1")
    assert f.discriminant == 2869

    def refuse(coeffs):
        raise AssertionError("discriminant computed twice")

    monkeypatch.setattr(polygal, "_content", refuse)
    assert f.discriminant == 2869
    with pytest.raises(AssertionError):
        IntPoly.parse("x^5 - x - 1").discriminant


def _entry(status, citation="somewhere"):
    return ChecklistEntry("something", status, citation, "")


@pytest.mark.parametrize("status", ["failed", "unknown"])
def test_end_is_z_rejects_a_failed_or_unknown_entry(status):
    with pytest.raises(InternalInconsistencyError):
        Verdict(Outcome.END_IS_Z, [_entry("verified"), _entry(status)])
    assert Verdict(Outcome.INCONCLUSIVE, [_entry(status)]).outcome is Outcome.INCONCLUSIVE


@pytest.mark.parametrize("outcome", [Outcome.END_IS_Z, Outcome.INCONCLUSIVE])
def test_an_entry_without_citation_is_rejected(outcome):
    with pytest.raises(InternalInconsistencyError):
        Verdict(outcome, [_entry("verified", citation="")])


def test_verdict_defaults_are_fresh_per_instance():
    a, b = Verdict(Outcome.INCONCLUSIVE, []), Verdict(Outcome.INCONCLUSIVE, [])
    a.caveats.append("x")
    a.case["degree"] = 5
    assert b.caveats == [] and b.case == {}
    assert (b.supersingular_chars, b.conditional, b.heart_commutant) == (None, False, None)


def test_keyword_construction():
    group = fam.alternating_group(5)
    case = CaseInput(group=group, degree=5, char=0)
    assert (case.group, case.degree, case.char) == (group, 5, 0)
    assert case.polynomial is None and case.hypothesis is None and not case.conditional
    verdict = Verdict(outcome=Outcome.INCONCLUSIVE, checklist=[_entry("unknown")],
                      caveats=["c"], conditional=True, case={"degree": 5})
    assert verdict.to_json_dict()["caveats"] == ["c"] and verdict.conditional
    census = CycleTypeCensus(degree=3, sampled=1, counts={(3,): 1})
    assert census.excluded == [] and census.patterns == {}
    assert CycleTypeCensus(3, 0, {}).excluded is not census.excluded


def test_checklist_entry_serializes_its_fields_by_name():
    entry = ChecklistEntry(hypothesis="h", status="assumed", citation="c", evidence="e")
    data = Verdict(Outcome.INCONCLUSIVE, [entry]).to_json_dict()["checklist"]
    assert data == [{"hypothesis": "h", "status": "assumed", "citation": "c", "evidence": "e"}]
