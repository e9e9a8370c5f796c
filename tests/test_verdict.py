import json

import pytest

from endocert.errors import InternalInconsistencyError
from endocert.permgroup import Perm, PermGroup, is_simple
from endocert.permgroup import families as fam
from endocert.polygal import IntPoly
from endocert.repmod import CentralizerClass
from endocert.verdict import (
    FACTS,
    ChecklistEntry,
    Outcome,
    Verdict,
    analyze_jacobian,
    case_from_group,
    case_from_polynomial,
    hom_pair_analysis,
    recognize,
)
from endocert.verdict import engine


def analyze_center(group):
    """The center analysis of ``group`` on a fresh context."""
    return engine._center_analysis(engine._Ctx(group))


def multiplication_bound(dim_x, e_degree):
    """Largest possible centralizer dimension for a number-field action.

    For a number field of degree e acting on an abelian variety of
    dimension dim_x, the degree must divide 2*dim_x; with d their
    quotient, the centralizer of the field in the endomorphism algebra
    has dimension at most d^2 over the field.
    """
    if dim_x < 1 or e_degree < 1:
        raise ValueError("dimensions must be positive")
    if (2 * dim_x) % e_degree != 0:
        raise ValueError(f"the field degree {e_degree} must divide 2*dim = {2 * dim_x}")
    d = 2 * dim_x // e_degree
    return d, d * d


class TestFactsTable:
    def test_records_are_complete(self):
        assert len(FACTS) >= 20
        for key, rec in FACTS.items():
            assert rec.key == key
            assert rec.statement and rec.citation

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


class TestCitedMathieuSimplicity:
    """M22-M24 cite their simplicity once, and it decides every index question."""

    @pytest.mark.parametrize("n", [22, 23, 24])
    def test_cited_once_before_any_index_entry(self, n, monkeypatch):
        from endocert.permgroup.chain import StabilizerChain
        from endocert.verdict import engine

        group = fam.mathieu_group(n)

        def refuse(*args, **kwargs):
            raise AssertionError("index search or element enumeration")

        monkeypatch.setattr(engine, "has_proper_subgroup_of_index", refuse)
        monkeypatch.setattr(StabilizerChain, "elements", refuse)
        verdict = analyze_jacobian(case_from_group(group, 0))
        assert verdict.outcome is Outcome.END_IS_Z
        simple = FACTS[f"atlas-m{n}-simple"]
        cited = [
            i for i, e in enumerate(verdict.checklist)
            if (e.status, e.citation, e.evidence) == ("assumed", simple.citation, simple.statement)
        ]
        assert len(cited) == 1
        first_index = next(i for i, e in enumerate(verdict.checklist) if "index" in e.hypothesis)
        assert cited[0] < first_index

    def test_no_subgroup_index_facts(self):
        assert not any("min-index" in key for key in FACTS)


def _cites(verdict, key):
    record = FACTS[key]
    return any(
        (e.status, e.citation, e.evidence) == ("assumed", record.citation, record.statement)
        for e in verdict.checklist
    )


class TestFamilyFacts:
    """engine._FAMILY_FACTS: the cited facts each family supplies to the generic route."""

    FAMILIES = {
        "mathieu11": lambda: fam.mathieu_group(11),
        "psl2-11-deg11": fam.psl2_11_on_11_points,
        "psl2-7-deg7": fam.psl2_7_on_7_points,
        "mathieu22": lambda: fam.mathieu_group(22),
        "mathieu23": lambda: fam.mathieu_group(23),
        "mathieu24": lambda: fam.mathieu_group(24),
    }

    def test_every_row_is_a_recognized_kind(self):
        assert set(engine._FAMILY_FACTS) == set(self.FAMILIES)
        for kind, build in self.FAMILIES.items():
            assert recognize(build()).kind == kind

    def test_every_fact_key_is_registered(self):
        for row in engine._FAMILY_FACTS.values():
            keys = [row.simple, row.quaternion, row.q_side, *(k for _, k in row.recorded)]
            assert all(k in FACTS for k in keys if k is not None)

    @pytest.mark.parametrize("kind", ["mathieu11", "psl2-11-deg11", "psl2-7-deg7"])
    def test_char_0_never_reads_the_quaternion_fact(self, kind):
        # an odd genus leaves no quaternionic shape in characteristic 0, so the
        # characteristic-p fact in the row is never cited there
        group = self.FAMILIES[kind]()
        assert (group.degree - 1) // 2 % 2 == 1
        verdict = analyze_jacobian(case_from_group(group, 0))
        assert verdict.outcome is Outcome.END_IS_Z
        assert not _cites(verdict, engine._FAMILY_FACTS[kind].quaternion)
        assert all("quaternionic shapes" not in e.hypothesis for e in verdict.checklist)

    def test_char_7_cites_the_psl2_7_quaternion_fact(self):
        verdict = analyze_jacobian(case_from_group(fam.psl2_7_on_7_points(), 7))
        assert verdict.outcome is Outcome.END_IS_Z
        assert _cites(verdict, "deg7-psl2-not-supersingular")


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
        assert recognize(g).kind == kind


class TestAnalyzeCenter:
    def test_psl2_13_field_commutant_gives_simple_algebra(self):
        analysis = analyze_center(fam.psl2(13))
        assert analysis.report.classification is CentralizerClass.FIELD
        assert analysis.report.field_size == 4
        assert analysis.center_is_field is True

    def test_psl2_heart_commutant_computed_once(self, monkeypatch):
        # q = 9 = 1 (mod 8): the PSL(2,q) rule falls through to the generic route
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

    def test_agl3_2_normal_entry_from_the_escape_search_alone(self, monkeypatch):
        # AGL(3,2) on F_2^3, v = x0 + 2 x1 + 4 x2: v -> v + e0, and the linear
        # maps (x0 + x1, x1, x2) and (x2, x0 + x2, x1), which generate GL(3,2).
        # 3-transitive and perfect, not simple, genus 3
        group = PermGroup(8, [
            Perm((1, 0, 3, 2, 5, 4, 7, 6)),
            Perm((0, 1, 3, 2, 4, 5, 7, 6)),
            Perm((0, 2, 4, 6, 3, 1, 7, 5)),
        ])
        assert group.order() == 1344 and is_simple(group) is False

        def refuse(self):
            raise AssertionError("simplicity asked")

        monkeypatch.setattr(engine._Ctx, "simple", refuse)
        analysis = analyze_center(group)
        assert _entry_status(analysis.entries, NORMAL_ENTRY) == "verified"
        assert analysis.center_is_q is True

    def test_asl2_3_normal_entry_unknown_with_a_live_escape(self):
        # ASL(2,3) on F_3^2, v = x + 3y: v -> v + e0, and the linear maps
        # (x + y, y) and (x, x + y), which generate SL(2,3); genus 4, and
        # SL(2,3) acting on the 4 lines of F_3^2 gives an index-4 subgroup
        group = PermGroup(9, [
            Perm((1, 2, 0, 4, 5, 3, 7, 8, 6)),
            Perm((0, 1, 2, 4, 5, 3, 8, 6, 7)),
            Perm((0, 4, 8, 3, 7, 2, 6, 1, 5)),
        ])
        assert group.order() == 216
        v = analyze_jacobian(case_from_group(group, 0))
        assert v.outcome is Outcome.INCONCLUSIVE
        assert _entry_status(v.checklist, NORMAL_ENTRY) == "unknown"
        escape = [e for e in v.checklist if e.hypothesis.startswith("product-decomposition escape")]
        assert len(escape) == 1 and escape[0].evidence.startswith("live r values [4];")


NORMAL_ENTRY = "only normal subgroup of index dividing the genus is the group itself"


def _entry_status(entries, hypothesis):
    (entry,) = [e for e in entries if e.hypothesis == hypothesis]
    assert entry.citation == "computed: escape-index search / simplicity"
    return entry.status


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


JORDAN = "computed: Jordan's theorem and Atkinson's minimal-block test"
CHAIN = "computed: stabilizer-chain basic orbit sizes"


def _transitivity_citations(verdict):
    return [e.citation for e in verdict.checklist if "transitively" in e.hypothesis]


@pytest.mark.parametrize(
    "build,citation",
    [
        (lambda: fam.symmetric_group(24), JORDAN),
        (lambda: fam.alternating_group(9), JORDAN),
        (lambda: fam.alternating_group(5), JORDAN),
        (lambda: fam.mathieu_group(24), CHAIN),
        (fam.psl2_7_on_7_points, CHAIN),
    ],
)
def test_transitivity_citation_names_how_it_was_read(build, citation):
    """A giant's transitivity degree comes from Jordan's theorem, no chain."""
    group = build()
    verdict = analyze_jacobian(case_from_group(group, 0))
    assert _transitivity_citations(verdict) == [citation]
    assert (group.giant is not None) == (citation == JORDAN)


class TestHomPair:
    def test_vanishing_with_heuristic_flag(self):
        v = hom_pair_analysis(IntPoly.parse("x^3 - 2"), IntPoly.parse("x^3 + x - 1"), 0)
        assert v.outcome is Outcome.HOM_VANISHES
        disjoint = [e for e in v.checklist if "disjoint" in e.hypothesis]
        assert disjoint and disjoint[0].status == "heuristic"
        assert v.conditional
        # both candidate groups are S3, recognised by Jordan's theorem
        assert _transitivity_citations(v) == [JORDAN, JORDAN]

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
