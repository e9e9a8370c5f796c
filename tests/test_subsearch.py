import math

import pytest
from hypothesis import example, given, settings, strategies as st

from endocert.permgroup import (
    Perm,
    PermGroup,
    has_proper_subgroup_of_index,
    psl2_subgroup_criterion,
    families as fam,
    subsearch,
)
from endocert.permgroup.chain import closure_elements
from endocert.verdict import analyze_jacobian, case_from_group
from oracles import backtrack_has_index, sym_with_orders


@st.composite
def two_generator_groups(draw):
    n = draw(st.integers(5, 6))
    return PermGroup(n, [Perm(tuple(draw(st.permutations(range(n))))) for _ in range(2)])


@st.composite
def groups_with_an_odd_generator(draw):
    n = draw(st.integers(5, 7))
    a, b = (Perm(tuple(draw(st.permutations(range(n))))) for _ in range(2))
    if a.is_even():
        a = a * Perm.from_cycles(n, [[0, 1]])
    return PermGroup(n, [a, b])


def _pgl2_5() -> PermGroup:
    # PGL(2,5) on the projective line, points 0..4 and infinity = 5:
    # x -> x + 1 and x -> 2/x, whose determinant -2 is a non-square mod 5
    # (x -> x + 1 and x -> 2x alone give only AGL(1,5), fixing infinity)
    translate = Perm((1, 2, 3, 4, 0, 5))
    flip = Perm((5, 2, 1, 4, 3, 0))
    return PermGroup(6, [translate, flip])


def _pgl2_29() -> PermGroup:
    # PGL(2,29) on the projective line, points 0..28 and infinity = 29:
    # x -> x + 1, x -> 2x (2 is a non-square mod 29) and x -> -1/x
    q = 29
    translate = Perm(tuple((x + 1) % q for x in range(q)) + (q,))
    scale = Perm(tuple(2 * x % q for x in range(q)) + (q,))
    invert = Perm((q,) + tuple(-pow(x, -1, q) % q for x in range(1, q)) + (0,))
    return PermGroup(q + 1, [translate, scale, invert])


class TestMinProperSubgroupIndex:
    """The least index of a proper subgroup, asked at every r up to a bound."""

    def test_a5_bound_4_none_by_shortcut(self):
        a5 = fam.alternating_group(5)
        for r in range(2, 5):
            assert has_proper_subgroup_of_index(a5, r) == (False, None, "lagrange-shortcut")

    def test_a5_bound_4_cross_checked_by_exhaustion(self):
        # independent: enumerate closures of all generator pairs of A5 and
        # record every subgroup order that appears
        a5 = fam.alternating_group(5)
        elements = [tuple(b) for b in sorted(closure_elements(5, [g.images for g in a5.generators]))]
        orders = set()
        for i, x in enumerate(elements):
            for y in elements[i:]:
                sub = closure_elements(5, [x, y])
                orders.add(len(sub))
        # indices 2, 3, 4 would need orders 30, 20, 15
        assert orders & {30, 20, 15} == set()
        assert 12 in orders  # A4 of index 5 does exist

    def test_psl2_11_bound_5_none(self):
        psl2_11 = fam.psl2(11)
        for r in range(2, 6):
            assert has_proper_subgroup_of_index(psl2_11, r)[0] is False

    def test_a7_bound_7_finds_index_7(self):
        a7 = fam.alternating_group(7)
        for r in range(2, 7):
            assert has_proper_subgroup_of_index(a7, r)[0] is False
        ans, cert, method = has_proper_subgroup_of_index(a7, 7)
        assert ans is True and method == "action-backtrack"
        sub = PermGroup(7, cert)
        assert a7.order() // sub.order() == 7
        assert all(p in a7 for p in cert)

    def test_s7_finds_index_2(self):
        # index 3 is a TestNormalSubgroupDescent case
        ans, cert, _ = has_proper_subgroup_of_index(fam.symmetric_group(7), 2)
        assert ans is True
        assert PermGroup(7, cert).order() == 2520

    def test_bound_validation(self):
        for r in (0, 1):
            with pytest.raises(ValueError):
                has_proper_subgroup_of_index(fam.alternating_group(5), r)


class TestHasProperSubgroupOfIndex:
    def test_lagrange_prune(self):
        # |PSL(2,13)| = 1092 is not divisible by 5
        ans, cert, method = has_proper_subgroup_of_index(fam.psl2(13), 5)
        assert ans is False and method == "lagrange-shortcut"

    def test_exhaustive_fallback(self):
        # C12 has subgroups of every dividing index; index 12 is beyond the
        # backtrack ceiling, so the lattice path answers
        ans, cert, method = has_proper_subgroup_of_index(fam.cyclic_group(12), 12)
        assert ans is True and method == "exhaustive"
        assert all(g.is_identity() for g in cert)

    def test_certificate_for_backtrack(self):
        s5 = fam.symmetric_group(5)
        ans, cert, method = has_proper_subgroup_of_index(s5, 5)
        assert ans is True and method == "action-backtrack"
        sub = PermGroup(5, cert)
        assert sub.order() == 24

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(two_generator_groups())
    @example(fam.alternating_group(5))
    @example(fam.alternating_group(6))
    # the descent through A_n read off |G| = n!
    @example(fam.symmetric_group(5))
    @example(fam.symmetric_group(6))
    @example(fam.symmetric_group(7))
    # even part PSL(2,5), built and found simple by class enumeration
    @example(_pgl2_5())
    # even part A4 is not simple: the descent must not fire
    @example(fam.symmetric_group(4))
    def test_shortcut_ladder_agrees_with_backtrack(self, group):
        for r in range(2, 6):
            answer = has_proper_subgroup_of_index(group, r)[0]
            assert answer == backtrack_has_index(group, r)


class TestNormalSubgroupDescent:
    """S_n answers index r >= 3 through A_n, with no action-backtrack."""

    @pytest.fixture
    def no_backtrack(self, monkeypatch):
        def refuse(group, r):
            raise AssertionError(f"action-backtrack reached at index {r}")

        monkeypatch.setattr(subsearch, "_homomorphism_search", refuse)

    @pytest.mark.parametrize("n, r", [
        (7, 3), (9, 4), *((12, r) for r in range(3, 9)), (24, 11),
    ])
    def test_symmetric_group_has_no_index_r(self, no_backtrack, n, r):
        ans, cert, method = has_proper_subgroup_of_index(fam.symmetric_group(n), r)
        assert (ans, cert, method) == (False, None, "lagrange-shortcut")

    def test_index_2_certificate_is_the_alternating_group(self, no_backtrack):
        ans, cert, method = has_proper_subgroup_of_index(fam.symmetric_group(12), 2)
        assert ans is True and method == "lagrange-shortcut"
        assert all(g.is_even() for g in cert)
        assert PermGroup(12, cert).order() == math.factorial(12) // 2

    def test_s5_index_5_still_backtracks(self, no_backtrack):
        # 5! is divisible by |A5| = 60, so A5 may have a subgroup of index 5
        with pytest.raises(AssertionError, match="index 5"):
            has_proper_subgroup_of_index(fam.symmetric_group(5), 5)

    def test_non_simple_even_part_is_left_to_the_backtrack(self):
        # S4 has index-3 subgroups (the dihedral 2-Sylows), though 3! is
        # not divisible by |A4| = 12
        ans, cert, method = has_proper_subgroup_of_index(fam.symmetric_group(4), 3)
        assert ans is True and method == "action-backtrack"
        assert PermGroup(4, cert).order() == 8

    def test_pgl2_5_descends_through_psl2_5(self, no_backtrack):
        group = _pgl2_5()
        assert group.order() == 120 and group.transitivity_degree() == 3
        for r in (3, 4):
            assert has_proper_subgroup_of_index(group, r) == (False, None, "lagrange-shortcut")
        ans, cert, _ = has_proper_subgroup_of_index(group, 2)
        assert ans is True and PermGroup(6, cert).order() == 60

    def test_pgl2_29_descends_through_psl2_29(self, no_backtrack):
        # |PSL(2,29)| = 12180 is above the subgroup-lattice bound, so the
        # descent asks is_simple of the even part instead of a cost guess
        group = _pgl2_29()
        assert group.order() == 30 * 29 * 28
        ans, cert, method = has_proper_subgroup_of_index(group, 2)
        assert ans is True and method == "lagrange-shortcut"
        assert PermGroup(30, cert).order() == 12180
        for r in (7, 14):
            assert has_proper_subgroup_of_index(group, r) == (False, None, "lagrange-shortcut")

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(groups_with_an_odd_generator())
    def test_even_part_has_index_2(self, group):
        even = group.even_part
        assert all(g.is_even() for g in even.generators)
        assert all(g in group for g in even.generators)
        assert 2 * even.order() == group.order()


def test_backtrack_past_its_budget_is_unknown(monkeypatch):
    # S4 has index-3 subgroups, found by the backtrack within the budget
    assert has_proper_subgroup_of_index(fam.symmetric_group(4), 3)[0] is True
    monkeypatch.setattr(subsearch, "BACKTRACK_MAX_ASSIGNMENTS", 0)
    answer = has_proper_subgroup_of_index(fam.symmetric_group(4), 3)
    assert answer == ("unknown", None, "unknown")
    for r in (2, 3):
        assert has_proper_subgroup_of_index(fam.symmetric_group(4), r) == ("unknown", None, "unknown")


@pytest.mark.parametrize("r", range(1, 8))
def test_order_dividing_counts_are_the_list_lengths(r):
    for d in range(1, 13):
        count = subsearch._count_of_order_dividing(r, d)
        assert count == len(subsearch._perms_of_order_dividing(r, d))


@pytest.mark.parametrize("r", range(1, 9))
def test_order_dividing_lists_match_the_filter_over_sym(r):
    # the same tuples in the same order keep the backtrack's assignment order
    everything = sym_with_orders(r)
    for d in range(1, 13):
        expected = tuple(images for images, order in everything if d % order == 0)
        assert subsearch._perms_of_order_dividing.__wrapped__(r, d) == expected


def test_backtrack_lists_only_the_non_pivot_images(monkeypatch):
    # A7 on 15 reaches the backtrack at index 7 only; its generators have
    # orders 3 and 7, and the order-7 one (721 images) is the pivot, taken
    # up to conjugacy, so only the order-3 images are listed
    listed = []
    full_list = subsearch._perms_of_order_dividing

    def recording(r, d):
        listed.append((r, d))
        return full_list(r, d)

    monkeypatch.setattr(subsearch, "_perms_of_order_dividing", recording)
    analyze_jacobian(case_from_group(fam.a7_on_15_points(), 0))
    assert listed == [(7, 3)]


class TestPsl2Criterion:
    @pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
    def test_true_for_small_q(self, q):
        assert psl2_subgroup_criterion(q) is True

    @pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
    def test_agrees_with_search(self, q):
        group = fam.psl2(q)
        none_found = all(
            has_proper_subgroup_of_index(group, r)[0] is False for r in range(2, (q - 1) // 2 + 1)
        )
        assert none_found == psl2_subgroup_criterion(q)

    def test_q13_cross_checked_by_raw_backtrack(self):
        # bypass the simplicity shortcut: the homomorphism backtrack itself
        # must certify the absence up to index 6
        g = fam.psl2(13)
        for r in range(2, 7):
            assert backtrack_has_index(g, r) is False

    @pytest.mark.parametrize("bad", [4, 3, 15, 8, 2])
    def test_rejects_bad_q(self, bad):
        with pytest.raises(ValueError):
            psl2_subgroup_criterion(bad)
