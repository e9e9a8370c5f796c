import pytest
from hypothesis import given, settings, strategies as st

from endocert.permgroup import (
    conjugacy_class_representatives,
    derived_series,
    has_normal_subgroup_of_index_dividing,
    is_perfect,
    is_simple,
    is_solvable,
    normal_closure,
    Perm,
    PermGroup,
    families as fam,
)
from endocert.permgroup import structure
from endocert.permgroup.chain import StabilizerChain
from endocert.permgroup.structure import simplicity_is_cheap


def _simple_by_classes(group):
    """Exhaustive oracle: every nontrivial class has the whole group as normal closure."""
    order = group.order()
    if order == 1:
        return False
    return all(
        normal_closure(group, [rep]).order() == order
        for rep in conjugacy_class_representatives(group)
        if not rep.is_identity()
    )


@st.composite
def small_subgroups(draw):
    """Random subgroups of S5..S7, each generator moving an initial segment."""
    n = draw(st.integers(5, 7))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(2, n))
        head = draw(st.permutations(range(k)))
        gens.append(Perm(tuple(head) + tuple(range(k, n))))
    return PermGroup(n, gens)


class TestDerivedSeries:
    def test_s4_chain(self):
        series = derived_series(fam.symmetric_group(4))
        assert [g.order() for g in series] == [24, 12, 4, 1]

    def test_monotone_and_stabilizing(self):
        for build in (
            lambda: fam.symmetric_group(5),
            lambda: fam.dihedral_group(8),
            fam.frobenius_group_42,
            lambda: fam.gl2_regular(3),
        ):
            series = derived_series(build())
            orders = [g.order() for g in series]
            assert all(a > b for a, b in zip(orders, orders[1:]))
            # each term is normal-closure stable inside the previous
            for prev, cur in zip(series, series[1:]):
                assert cur.order() < prev.order()

    def test_a5_perfect(self):
        assert is_perfect(fam.alternating_group(5))

    def test_gl2_f2_f3_solvable(self):
        gl2f2 = fam.gl2_regular(2)
        gl2f3 = fam.gl2_regular(3)
        assert gl2f2.order() == 6
        assert gl2f3.order() == 48
        assert is_solvable(gl2f2)
        assert is_solvable(gl2f3)

    def test_perfect_and_solvable_mutually_exclusive(self):
        for build in (
            lambda: fam.alternating_group(5),
            lambda: fam.symmetric_group(4),
            lambda: fam.psl2(7),
            fam.frobenius_group_20,
            lambda: fam.cyclic_group(9),
        ):
            g = build()
            if g.order() > 1:
                assert is_perfect(g) != is_solvable(g) or not is_perfect(g)
                assert not (is_perfect(g) and is_solvable(g))


class TestNormalClosure:
    def test_closure_of_three_cycle_in_s4(self):
        s4 = fam.symmetric_group(4)
        a4 = normal_closure(s4, [Perm.parse("(1 2 3)", 4)])
        assert a4.order() == 12

    def test_closure_of_double_transposition_in_s4(self):
        s4 = fam.symmetric_group(4)
        v4 = normal_closure(s4, [Perm.parse("(1 2)(3 4)", 4)])
        assert v4.order() == 4


class TestSimplicity:
    def test_a5_simple(self):
        assert is_simple(fam.alternating_group(5)) is True

    def test_s5_not_simple(self):
        assert is_simple(fam.symmetric_group(5)) is False

    def test_psl2_11_simple_exact(self):
        g = fam.psl2(11)
        assert g.order() == 660
        assert is_simple(g) is True

    def test_cyclic_prime_simple_composite_not(self):
        assert is_simple(fam.cyclic_group(7)) is True
        assert is_simple(fam.cyclic_group(6)) is False

    def test_randomized_path_is_honest(self, monkeypatch):
        # above the bound only parity can refute; nothing is affirmed
        monkeypatch.setattr(structure, "EXHAUSTIVE_BOUND", 10)
        assert is_simple(fam.symmetric_group(5)) is False
        assert is_simple(fam.alternating_group(5)) == "unknown"

    def test_above_bound_answers_unknown_without_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration or normal closure above the bound")

        monkeypatch.setattr(structure, "normal_closure", refuse)
        monkeypatch.setattr(StabilizerChain, "elements", refuse)
        a10 = fam.alternating_group(10)
        assert a10.order() > structure.EXHAUSTIVE_BOUND
        assert is_simple(a10) == "unknown"
        assert a10._simple == "unknown"

    def test_class_enumeration_inverts_each_generator_once(self, monkeypatch):
        calls = []
        invert = structure._invert

        def counted(t):
            calls.append(t)
            return invert(t)

        monkeypatch.setattr(structure, "_invert", counted)
        m11 = fam.mathieu_group(11)
        assert len(conjugacy_class_representatives(m11)) == 10
        assert len(calls) <= len(m11.generators)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_subgroups())
    def test_parity_refutation_agrees_with_classes(self, group):
        oracle = _simple_by_classes(PermGroup(group.degree, group.generators))
        if group.order() > 2 and not all(g.is_even() for g in group.generators):
            assert oracle is False
        assert is_simple(group) is oracle

    def test_odd_generator_refuted_without_enumeration(self, monkeypatch):
        def refuse(self, limit=None):
            raise AssertionError("element enumeration")

        monkeypatch.setattr(StabilizerChain, "elements", refuse)
        s9 = PermGroup(9, [Perm.parse("(1 2)", 9), Perm.parse("(1 2 3 4 5 6 7 8 9)", 9)])
        assert simplicity_is_cheap(s9)
        assert is_simple(s9) is False
        # the parity test applies above the enumeration bound too
        s12 = PermGroup(12, [Perm.parse("(1 2)", 12), Perm.parse("(1 2 3 4 5 6 7 8 9 10 11 12)", 12)])
        assert is_simple(s12) is False

    def test_order_two_group_is_simple(self):
        assert is_simple(PermGroup(5, [Perm.parse("(1 2)", 5)])) is True

    def test_conjugacy_class_counts(self):
        reps = conjugacy_class_representatives(fam.symmetric_group(5))
        assert len(reps) == 7  # partitions of 5
        reps = conjugacy_class_representatives(fam.alternating_group(5))
        assert len(reps) == 5


class TestNormalIndexDividing:
    def test_a7_g7_false(self):
        assert has_normal_subgroup_of_index_dividing(fam.alternating_group(7), 7) is False

    def test_s4_g2_true(self):
        assert has_normal_subgroup_of_index_dividing(fam.symmetric_group(4), 2) is True

    def test_c6_g3_true(self):
        assert has_normal_subgroup_of_index_dividing(fam.cyclic_group(6), 3) is True

    def test_s4_g3_false(self):
        # normal subgroups of S4 have index 1, 2, 6, 24; none divides 3
        assert has_normal_subgroup_of_index_dividing(fam.symmetric_group(4), 3) is False

    def test_simple_group_false_for_all_small_g(self):
        a5 = fam.alternating_group(5)
        for g in range(2, 60):
            assert has_normal_subgroup_of_index_dividing(a5, g) is False

    def test_invalid_g(self):
        with pytest.raises(ValueError):
            has_normal_subgroup_of_index_dividing(fam.cyclic_group(4), 0)
