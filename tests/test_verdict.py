import json

import pytest

from endocert.errors import InternalInconsistencyError
from endocert.permgroup import families as fam
from endocert.polygal import IntPoly
from endocert.repmod import CentralizerClass
from endocert.verdict import (
    FACTS,
    ChecklistEntry,
    Outcome,
    Verdict,
    analyze_center,
    analyze_jacobian,
    case_from_group,
    case_from_polynomial,
    hom_pair_analysis,
    multiplication_bound,
    recognize,
)


class TestFactsTable:
    def test_records_are_complete(self):
        assert len(FACTS) >= 20
        for key, rec in FACTS.items():
            assert rec.key == key
            assert rec.statement and rec.citation and rec.kind

    def test_assumed_entries_resolve_to_cited_facts(self):
        citations = {rec.citation for rec in FACTS.values()}
        verdicts = [
            analyze_jacobian(case_from_group(fam.mathieu_group(23), 0)),
            analyze_jacobian(case_from_group(fam.mathieu_group(22), 7)),
            analyze_jacobian(case_from_group(fam.alternating_group(5), 3)),
            hom_pair_analysis(
                IntPoly.parse("x^3 - 2"), IntPoly.parse("x^3 + x - 1"), 7
            ),
        ]
        seen_any = False
        for v in verdicts:
            for e in v.checklist:
                if e.status == "assumed":
                    seen_any = True
                    assert e.citation in citations, e.hypothesis
        assert seen_any


class TestVerdictInvariants:
    def test_end_is_z_rejects_failed_entries(self):
        bad = ChecklistEntry("something", "failed", "somewhere", "")
        with pytest.raises(InternalInconsistencyError):
            Verdict(Outcome.END_IS_Z, [bad])

    def test_entries_need_citations(self):
        bad = ChecklistEntry("something", "verified", "", "")
        with pytest.raises(InternalInconsistencyError):
            Verdict(Outcome.INCONCLUSIVE, [bad])

    def test_serialization_schema(self):
        v = analyze_jacobian(case_from_group(fam.alternating_group(5), 0))
        data = json.loads(v.to_json())
        assert data["schema_version"] == 1
        assert data["outcome"] == "END_IS_Z"
        assert data["conditional"] is False
        assert all(
            set(e) == {"hypothesis", "status", "citation", "evidence"}
            for e in data["checklist"]
        )

    def test_text_and_machine_agree_on_outcome(self):
        v = analyze_jacobian(case_from_group(fam.psl2(13), 0))
        data = json.loads(v.to_json())
        assert data["outcome"] in v.render_text().splitlines()[0]

    def test_byte_stable_reports(self):
        a = analyze_jacobian(case_from_group(fam.alternating_group(5), 3)).to_json()
        b = analyze_jacobian(case_from_group(fam.alternating_group(5), 3)).to_json()
        assert a == b


class TestRecognition:
    @pytest.mark.parametrize(
        "build,kind",
        [
            (lambda: fam.symmetric_group(7), "symmetric"),
            (lambda: fam.alternating_group(7), "alternating"),
            (lambda: fam.mathieu_group(12), "mathieu12"),
            (lambda: fam.mathieu_group(24), "mathieu24"),
            (fam.psl2_11_on_11_points, "psl2-11-deg11"),
            (fam.psl2_7_on_7_points, "psl2-7-deg7"),
            (fam.a7_on_15_points, "a7-deg15"),
            (lambda: fam.psl2(13), "psl2-natural"),
            (fam.frobenius_group_20, "generic"),
        ],
    )
    def test_kinds(self, build, kind):
        g = build()
        assert recognize(g, g.degree).kind == kind


class TestAnalyzeCenter:
    def test_psl2_13_field_commutant_gives_simple_algebra(self):
        analysis = analyze_center(fam.psl2(13))
        assert analysis.report.classification is CentralizerClass.FIELD
        assert analysis.report.field_size == 4
        assert analysis.center_is_field is True

    def test_psl2_heart_commutant_computed_once(self, monkeypatch):
        # q = 9 = 1 (mod 8): the PSL(2,q) rule falls through to the generic route
        from endocert.verdict import engine

        calls = []
        real = engine.heart_centralizer
        monkeypatch.setattr(
            engine, "heart_centralizer", lambda group: calls.append(group) or real(group)
        )
        v = analyze_jacobian(case_from_group(fam.psl2(9), 0))
        assert len(calls) == 1
        assert any(e.hypothesis.startswith("commutant of the mod-2") for e in v.checklist)

    def test_s7_index_two_blocks_center_q(self):
        analysis = analyze_center(fam.symmetric_group(7))
        assert analysis.report.classification is CentralizerClass.SCALARS
        assert analysis.center_is_field is True  # no index-3 subgroup
        assert analysis.center_is_q == "unknown"
        failed = [e for e in analysis.entries if e.status == "failed"]
        assert any("index 2" in e.hypothesis for e in failed)

    def test_a7_natural_center_is_q(self):
        analysis = analyze_center(fam.alternating_group(7))
        assert analysis.center_is_q is True

    def test_degree_4_refused(self):
        with pytest.raises(ValueError):
            analyze_center(fam.symmetric_group(4))


PAPER_CASES = [
    (lambda: fam.alternating_group(5), 0, {Outcome.END_IS_Z}),
    (lambda: fam.alternating_group(5), 5, {Outcome.END_IS_Z}),
    (lambda: fam.alternating_group(5), 3, {Outcome.SUPERSINGULAR_POSSIBLE}),
    (fam.psl2_7_on_7_points, 0, {Outcome.END_IS_Z}),
    (fam.psl2_7_on_7_points, 3, {Outcome.END_IS_Z}),
    (fam.psl2_7_on_7_points, 7, {Outcome.END_IS_Z}),
    (fam.psl2_11_on_11_points, 0, {Outcome.END_IS_Z}),
    (fam.psl2_11_on_11_points, 3, {Outcome.END_IS_Z}),
    (lambda: fam.mathieu_group(11), 0, {Outcome.END_IS_Z}),
    (lambda: fam.mathieu_group(12), 0, {Outcome.END_IS_Z}),
    (lambda: fam.mathieu_group(22), 0, {Outcome.END_IS_Z}),
    (lambda: fam.mathieu_group(23), 0, {Outcome.END_IS_Z}),
    (lambda: fam.mathieu_group(24), 0, {Outcome.END_IS_Z}),
    (
        fam.a7_on_15_points,
        0,
        {Outcome.END_IS_Z, Outcome.PRODUCT_OF_ELLIPTIC_CURVES_POSSIBLE},
    ),
    (lambda: fam.psl2(13), 0, {Outcome.END0_SIMPLE_Q_ALGEBRA}),
    (lambda: fam.psl2(5), 0, {Outcome.END0_SIMPLE_Q_ALGEBRA}),
]


@pytest.mark.parametrize("build,char,expected", PAPER_CASES)
def test_worked_cases(build, char, expected):
    verdict = analyze_jacobian(case_from_group(build(), char))
    assert verdict.outcome in expected


class TestAnalyzeJacobian:
    def test_a5_char3_supersingular_set(self):
        v = analyze_jacobian(case_from_group(fam.alternating_group(5), 3))
        assert v.outcome is Outcome.SUPERSINGULAR_POSSIBLE
        assert v.supersingular_chars == frozenset({3})

    def test_checklist_has_transitivity_and_commutant(self):
        v = analyze_jacobian(case_from_group(fam.psl2_11_on_11_points(), 0))
        hyps = [e.hypothesis for e in v.checklist]
        assert any("doubly transitively" in h for h in hyps)
        assert any("commutant" in h for h in hyps)
        assert all(e.status != "failed" for e in v.checklist)

    def test_m12_reduction_recorded(self):
        v = analyze_jacobian(case_from_group(fam.mathieu_group(12), 0))
        assert v.outcome is Outcome.END_IS_Z
        assert any("reduction to degree 11" in e.hypothesis for e in v.checklist)
        assert any("1/(x - alpha)" in e.hypothesis for e in v.checklist)

    def test_intransitive_group_inconclusive(self):
        from endocert.permgroup import PermGroup

        g = PermGroup.from_cycle_strings(5, ["(1 2)"])
        v = analyze_jacobian(case_from_group(g, 0))
        assert v.outcome is Outcome.INCONCLUSIVE
        assert any(e.status == "failed" for e in v.checklist)

    def test_cyclic_group_inconclusive(self):
        v = analyze_jacobian(case_from_group(fam.cyclic_group(5), 0))
        assert v.outcome is Outcome.INCONCLUSIVE

    def test_char_2_rejected(self):
        with pytest.raises(ValueError):
            case_from_group(fam.alternating_group(5), 2)

    def test_degree_4_rejected(self):
        with pytest.raises(ValueError):
            analyze_jacobian(case_from_group(fam.symmetric_group(4), 0))

    def test_composite_char_rejected(self):
        with pytest.raises(ValueError):
            case_from_group(fam.alternating_group(5), 15)

    def test_polynomial_route_is_conditional(self):
        case, _, _ = case_from_polynomial(IntPoly.parse("x^7 - 7*x + 3"), 0)
        assert case is not None and case.conditional
        v = analyze_jacobian(case)
        assert v.outcome is Outcome.END_IS_Z
        assert v.conditional
        assert any(e.status == "heuristic" for e in v.checklist)

    def test_unmatched_polynomial_gives_no_case(self):
        # x^8 + 1: Galois group of order 8, not among the candidates
        case, sample, hyps = case_from_polynomial(IntPoly.parse("x^8 + 1"), 0)
        assert case is None
        assert not any(h.matched for h in hyps)


class TestHomPair:
    def test_vanishing_with_heuristic_flag(self):
        v = hom_pair_analysis(IntPoly.parse("x^3 - 2"), IntPoly.parse("x^3 + x - 1"), 0)
        assert v.outcome is Outcome.HOM_VANISHES
        disjoint = [e for e in v.checklist if "disjoint" in e.hypothesis]
        assert disjoint and disjoint[0].status == "heuristic"
        assert v.conditional

    def test_positive_char_supersingular_caveat(self):
        v = hom_pair_analysis(IntPoly.parse("x^3 - 2"), IntPoly.parse("x^3 + x - 1"), 7)
        assert v.outcome is Outcome.HOM_VANISHES
        assert any("supersingular" in e.evidence for e in v.checklist)
        assert any("supersingular" in c for c in v.caveats)

    def test_identical_polynomials_rejected(self):
        f = IntPoly.parse("x^3 - 2")
        with pytest.raises(ValueError):
            hom_pair_analysis(f, f, 0)

    def test_small_degree_rejected(self):
        with pytest.raises(ValueError):
            hom_pair_analysis(IntPoly.parse("x^2 - 2"), IntPoly.parse("x^3 - 2"), 0)

    def test_shifted_copy_fails_the_independence_screen(self):
        # x^3 - 2 against itself shifted: same splitting field, so the
        # joint census is perfectly correlated
        f = IntPoly.parse("x^3 - 2")
        h = IntPoly.parse("x^3 + 6*x^2 + 12*x + 6")  # (x+2)^3 - 2
        v = hom_pair_analysis(f, h, 0)
        assert v.outcome is Outcome.INCONCLUSIVE


class TestMultiplicationBound:
    def test_values(self):
        assert multiplication_bound(2, 2) == (2, 4)
        assert multiplication_bound(6, 4) == (3, 9)
        assert multiplication_bound(5, 10) == (1, 1)

    def test_divisibility_error(self):
        with pytest.raises(ValueError):
            multiplication_bound(3, 4)

    def test_positive_arguments(self):
        with pytest.raises(ValueError):
            multiplication_bound(0, 1)
