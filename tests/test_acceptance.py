"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Everything here is exact (zero tolerance) except the stated
wall-clock budget in criterion 3.
"""

import json
import random
import time

import pytest

from endocert.fflin import (
    MatF,
    algebra_closure,
    centralizer_basis,
    double_centralizer_check,
)
from endocert.permgroup import (
    Perm,
    PermGroup,
    families as fam,
    has_proper_subgroup_of_index,
    is_solvable,
    psl2_subgroup_criterion,
)
from endocert.polygal import IntPoly, census, cycle_type_distribution, identify, standard_candidates
from endocert.repmod import CentralizerClass, act, build_heart, heart_centralizer
from endocert.verdict import (
    Outcome,
    analyze_jacobian,
    case_from_group,
    gl_has_element_of_order,
    matrix_order_is,
)
from oracles import (
    backtrack_has_index,
    classify_commutative_gf2,
    matrix_entries,
    subalgebra_elements,
)


def _report(criterion: str) -> None:
    print(f"PASS  {criterion}")


def test_criterion_01_heart_dimensions():
    for n in range(3, 25):
        assert build_heart(n).dim == 2 * ((n - 1) // 2), n
    _report("criterion 1: heart dimension 2*floor((n-1)/2) for 3 <= n <= 24")


KLEMM_CENSUS = [
    ("S5", lambda: fam.symmetric_group(5)),
    ("S7", lambda: fam.symmetric_group(7)),
    ("S9", lambda: fam.symmetric_group(9)),
    ("S11", lambda: fam.symmetric_group(11)),
    ("A5", lambda: fam.alternating_group(5)),
    ("A7", lambda: fam.alternating_group(7)),
    ("A9", lambda: fam.alternating_group(9)),
    ("A11", lambda: fam.alternating_group(11)),
    ("PSL(2,7) on 7 points", fam.psl2_7_on_7_points),
    ("PSL(2,11) on 11 points", fam.psl2_11_on_11_points),
    ("M11 on 11 points", lambda: fam.mathieu_group(11)),
    ("M12 on 12 points", lambda: fam.mathieu_group(12)),
    ("S6", lambda: fam.symmetric_group(6)),
    ("S8", lambda: fam.symmetric_group(8)),
    ("A8", lambda: fam.alternating_group(8)),
    ("S12", lambda: fam.symmetric_group(12)),
    ("A12", lambda: fam.alternating_group(12)),
]


def test_criterion_02_klemm_suite():
    assert len(KLEMM_CENSUS) >= 10
    for name, build in KLEMM_CENSUS:
        group = build()
        n = group.degree
        trans = group.transitivity_degree()
        # census membership requires the transitivity hypothesis itself
        assert trans >= (2 if n % 2 else 3), name
        report = heart_centralizer(group)
        assert report.classification is CentralizerClass.SCALARS, name
    _report(
        f"criterion 2: scalar heart commutant for {len(KLEMM_CENSUS)} groups "
        "satisfying the transitivity hypothesis"
    )


def test_criterion_02_addendum_psl2_7_on_8_points_recorded():
    """PSL(2,7) on the projective line is only 2-transitive (n = 8 even),
    so it falls outside the hypothesis; the computed commutant genuinely
    is F_2 x F_2, recorded here rather than asserted scalar."""
    report = heart_centralizer(fam.psl2(7))
    assert not report.klemm_hypothesis
    assert report.classification is CentralizerClass.NON_FIELD
    assert report.dim == 2
    _report(
        "criterion 2 addendum: PSL(2,7) on 8 points fails the hypothesis; "
        "computed commutant dimension 2 recorded"
    )


def test_criterion_03_mortimer_f4_cases():
    start = time.monotonic()
    for q in (5, 11, 13):
        group = fam.psl2(q)
        report = heart_centralizer(group)
        assert report.dim == 2, q
        assert report.algebra.field_test() == (True, 4), q
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0
    _report(
        f"criterion 3: PSL(2,q) commutant = F4 for q in {{5, 11, 13}} "
        f"({elapsed:.2f}s, budget 30s)"
    )


def test_criterion_04_subgroup_criterion_cross_validation():
    for q in (5, 7, 9, 11, 13):
        crit = psl2_subgroup_criterion(q)
        assert crit is True
        bound = (q - 1) // 2
        group = fam.psl2(q)
        for r in range(2, bound + 1):
            assert has_proper_subgroup_of_index(group, r)[0] is False, (q, r)
        # independent: the action backtrack itself, no descent rule
        for r in range(2, min(bound, 6) + 1):
            assert backtrack_has_index(group, r) is False, (q, r)
    _report(
        "criterion 4: subgroup-index criterion agrees with the bounded search "
        "for q in {5, 7, 9, 11, 13}, backtrack completing for bound <= 6"
    )


def test_criterion_05_gl_order_obstructions():
    for n, m in ((3, 7), (5, 11), (11, 23)):
        has, witness = gl_has_element_of_order(n, m)
        assert has is False and witness is None, (n, m)
    for n, m in ((6, 7), (10, 11), (22, 23)):
        has, witness = gl_has_element_of_order(n, m)
        assert has is True, (n, m)
        assert matrix_order_is(witness.matrix, m), (n, m)
    _report(
        "criterion 5: GL(n,Z) order obstructions exact for (3,7), (5,11), "
        "(11,23); witnesses verified for (6,7), (10,11), (22,23)"
    )


def test_criterion_06_gl2_solvability():
    gl2f2 = fam.gl2_regular(2)
    gl2f3 = fam.gl2_regular(3)
    assert gl2f2.order() == 6 and gl2f3.order() == 48
    assert is_solvable(gl2f2) and is_solvable(gl2f3)
    _report(
        "criterion 6: GL(2,F2) (order 6) and GL(2,F3) (order 48) proved "
        "solvable by derived series of their regular actions"
    )


FIXTURES = [
    ("A5, n=5, char 0", lambda: fam.alternating_group(5), 0, {Outcome.END_IS_Z}, None),
    ("A5, n=5, char 5", lambda: fam.alternating_group(5), 5, {Outcome.END_IS_Z}, None),
    (
        "A5, n=5, char 3",
        lambda: fam.alternating_group(5),
        3,
        {Outcome.SUPERSINGULAR_POSSIBLE},
        frozenset({3}),
    ),
    ("PSL(2,7), n=7, char 0", fam.psl2_7_on_7_points, 0, {Outcome.END_IS_Z}, None),
    ("PSL(2,7), n=7, char 3", fam.psl2_7_on_7_points, 3, {Outcome.END_IS_Z}, None),
    ("PSL(2,7), n=7, char 7", fam.psl2_7_on_7_points, 7, {Outcome.END_IS_Z}, None),
    ("PSL(2,11), n=11, char 0", fam.psl2_11_on_11_points, 0, {Outcome.END_IS_Z}, None),
    ("PSL(2,11), n=11, char 11", fam.psl2_11_on_11_points, 11, {Outcome.END_IS_Z}, None),
    ("M12, n=12, char 0", lambda: fam.mathieu_group(12), 0, {Outcome.END_IS_Z}, None),
    ("M22, n=22, char 0", lambda: fam.mathieu_group(22), 0, {Outcome.END_IS_Z}, None),
    ("M22, n=22, char 7", lambda: fam.mathieu_group(22), 7, {Outcome.END_IS_Z}, None),
    ("M23, n=23, char 0", lambda: fam.mathieu_group(23), 0, {Outcome.END_IS_Z}, None),
    ("M23, n=23, char 23", lambda: fam.mathieu_group(23), 23, {Outcome.END_IS_Z}, None),
    ("M24, n=24, char 0", lambda: fam.mathieu_group(24), 0, {Outcome.END_IS_Z}, None),
    (
        "A7, n=15, char 0",
        fam.a7_on_15_points,
        0,
        {Outcome.END_IS_Z, Outcome.PRODUCT_OF_ELLIPTIC_CURVES_POSSIBLE},
        None,
    ),
    (
        "PSL(2,13), n=14, char 0",
        lambda: fam.psl2(13),
        0,
        {Outcome.END0_SIMPLE_Q_ALGEBRA},
        None,
    ),
]


def test_criterion_07_paper_verdict_fixture_suite():
    for name, build, char, expected, chars in FIXTURES:
        verdict = analyze_jacobian(case_from_group(build(), char))
        assert verdict.outcome in expected, (name, verdict.outcome)
        if chars is not None:
            assert verdict.supersingular_chars == chars, name
        assert all(e.status != "unknown" for e in verdict.checklist), name
        if name.startswith(("M22", "M23", "M24")):
            # the large Mathieu branches are gated by cited facts
            assert any(e.status == "assumed" and "Atlas" in e.citation
                       for e in verdict.checklist), name
    _report(f"criterion 7: all {len(FIXTURES)} worked-case verdicts reproduced exactly")


def _enumerate_commutative_subalgebras(n, max_dim):
    """All closed unital commutative subalgebras of M_n(F_2), dim <= max_dim."""
    from endocert.fflin import _Span

    size = 1 << (n * n)
    all_mats = [MatF(n, n, tuple((code >> (n * i)) & ((1 << n) - 1) for i in range(n)))
                for code in range(size)]
    ident = MatF.identity(n)
    seen = set()
    found = []

    def consider(mats):
        span = _Span()
        for m in mats:
            span.add(m.vec())
        if span.dim() > max_dim:
            return
        key = tuple(span.rows)
        if key in seen:
            return
        seen.add(key)
        basis = [MatF.from_vec(n, n, v) for v in span.rows]
        for a in basis:
            for b in basis:
                if a @ b != b @ a or not span.contains((a @ b).vec()):
                    return
        found.append(basis)

    consider([ident])
    for a in all_mats:
        consider([ident, a])
    if max_dim >= 3:
        for a in all_mats:
            sa = _Span()
            sa.add(ident.vec())
            if not sa.add(a.vec()):
                continue
            for b in all_mats:
                consider([ident, a, b])
    return found


def test_criterion_08_linear_algebra_oracle_equivalence():
    total = 0
    for n in (2, 3):
        for basis in _enumerate_commutative_subalgebras(n, 3):
            alg = algebra_closure(basis)
            assert alg.dim == len(basis)
            elements = subalgebra_elements([b.rows for b in basis], n)
            field_oracle, nilpotent_count, idempotent_count = classify_commutative_gf2(
                elements, n
            )
            is_field, size = alg.field_test()
            assert is_field == field_oracle, [matrix_entries(b) for b in basis]
            if is_field:
                assert size == 2 ** alg.dim
            # Frobenius radical = brute-force nilpotent count
            assert 2 ** alg.radical_dim == nilpotent_count
            # factor count = idempotent count (commutative: 2^blocks)
            if alg.radical_dim == 0:
                frob_fixed = alg._frobenius_matrix()
                from endocert.fflin import kernel, MatF as _M

                factors = len(
                    kernel(frob_fixed - _M.identity(alg.dim))
                )
                assert 2 ** factors == idempotent_count
            total += 1
    # deterministic enumeration: M2 holds 8 (Cayley-Hamilton closes every
    # plane through I), M3 holds 233 of dimension <= 3
    assert total == 241
    # random commutant sets against brute force are covered in test_fflin;
    # rerun the seeded five here to make the criterion self-contained
    from oracles import brute_force_commutant_4x4

    rng = random.Random(20240817)
    for _ in range(5):
        gens = [MatF(4, 4, tuple(rng.randrange(16) for _ in range(4))) for _ in range(2)]
        alg = centralizer_basis(gens)
        brute = brute_force_commutant_4x4([m.rows for m in gens])
        assert len(brute) == 2 ** alg.dim
        assert subalgebra_elements([b.rows for b in alg.basis_matrices()], 4) == set(brute)
    _report(
        f"criterion 8: field test and radical agree with brute force on "
        f"{total} commutative subalgebras; 5 random commutants match exhaustive enumeration"
    )


def _odd_order_subgroups_of_s7(count):
    """Deterministic sample: conjugates of the odd-order seed subgroups."""
    seeds = [
        ["(1 2 3)"],
        ["(1 2 3)(4 5 6)"],
        ["(1 2 3 4 5)"],
        ["(1 2 3 4 5 6 7)"],
        ["(1 2 3)", "(4 5 6)"],  # C3 x C3, order 9
        ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"],  # F21
    ]
    rng = random.Random(2027)
    out = []
    while len(out) < count:
        for texts in seeds:
            gens = [Perm.parse(t, 7) for t in texts]
            conjugator = Perm(tuple(rng.sample(range(7), 7)))
            conj = [conjugator * g * conjugator.inverse() for g in gens]
            group = PermGroup(7, conj)
            assert group.order() % 2 == 1
            out.append(group)
            if len(out) == count:
                break
    return out


def test_criterion_09_double_centralizer_property():
    heart = build_heart(7)
    groups = _odd_order_subgroups_of_s7(20)
    assert len(groups) == 20
    for group in groups:
        mats = [act(heart, g) for g in group.generators]
        alg = algebra_closure(mats)
        assert double_centralizer_check(alg), group.generators
    _report(
        "criterion 9: double-centralizer identity holds for the heart group "
        "algebras of 20 odd-order subgroups of S7"
    )


def test_criterion_10_census_determinism_and_soundness():
    f = IntPoly.parse("x^7 - 7*x + 3")
    first = census(f, 200)
    second = census(f, 200)
    assert json.dumps(first.to_stable_dict(), sort_keys=True) == json.dumps(
        second.to_stable_dict(), sort_keys=True
    )
    psl27 = fam.psl2_7_on_7_points()
    support = set(cycle_type_distribution(psl27))
    assert first.support() <= support
    hyps = identify(first, standard_candidates(7))
    by_name = {h.name: h for h in hyps}
    assert by_name["PSL(2,7) deg 7"].matched
    assert not by_name["S7"].matched
    assert not by_name["A7"].matched
    _report(
        "criterion 10: census of x^7 - 7x + 3 byte-identical across runs, "
        "support inside the PSL(2,7) cycle types, S7 and A7 rejected"
    )
