import pytest
from hypothesis import given, settings, strategies as st

from endocert.permgroup import (
    commutator_subgroup,
    conjugacy_class_representatives,
    derived_series,
    is_simple,
    is_solvable,
    normal_closure,
    Perm,
    PermGroup,
    families as fam,
)
from endocert.permgroup import structure
from endocert.permgroup.chain import StabilizerChain
from endocert.permgroup.families import SmallField
from endocert.permgroup.subsearch import has_proper_subgroup_of_index


def is_perfect(group):
    return commutator_subgroup(group).order() == group.order()


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


def _pgammal2_8():
    """PΓL(2,8) on the projective line over F_8: PSL(2,8) and x -> x^2."""
    psl = fam.psl2(8)
    field = SmallField(8)
    frobenius = Perm(tuple(field.mul(x, x) for x in field.elements()) + (8,))
    return PermGroup(9, list(psl.generators) + [frobenius])


def _m10():
    return fam.mathieu_group(11).point_stabilizer().restriction(range(1, 11))


#: 2-transitive groups below the bound, and whether the stabilizer rule
#: decides them: the others may have a regular socle and fall back.
TWO_TRANSITIVE = {
    **{f"PSL(2,{q})": (lambda q=q: fam.psl2(q), q not in (7, 31))
       for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 49)},
    **{f"PSL(2,{q})": (lambda q=q: fam.psl2(q), False) for q in (2, 3)},
    "M11": (lambda: fam.mathieu_group(11), True),
    "M11 on 12": (lambda: fam.mathieu_group(12).point_stabilizer().restriction(range(1, 12)), True),
    "M12": (lambda: fam.mathieu_group(12), True),
    "A7 on 15": (fam.a7_on_15_points, True),
    "PSL(2,11) on 11": (fam.psl2_11_on_11_points, True),
    "PSL(2,7) on 7": (fam.psl2_7_on_7_points, True),
    **{f"A{n}": (lambda n=n: fam.alternating_group(n), True) for n in range(5, 10)},
    "A4": (lambda: fam.alternating_group(4), False),
    "F20": (fam.frobenius_group_20, False),
    "AGL(1,7)": (fam.frobenius_group_42, False),
    "M10": (_m10, True),
    "PΓL(2,8)": (_pgammal2_8, True),
}
_ORACLE: dict[str, bool] = {}


def _oracle(name):
    """The class-enumeration answer for a TWO_TRANSITIVE group, computed once."""
    if name not in _ORACLE:
        _ORACLE[name] = _simple_by_classes(TWO_TRANSITIVE[name][0]())
    return _ORACLE[name]


def _count_elements(monkeypatch):
    """Patch chain enumeration to count the elements it yields."""
    counted = [0]
    elements = StabilizerChain.elements

    def counting(self):
        for t in elements(self):
            counted[0] += 1
            yield t

    monkeypatch.setattr(StabilizerChain, "elements", counting)
    return counted


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

    def test_closure_hands_over_its_chain(self, monkeypatch):
        # the closures' chains are reused, so the only build is M11's own
        builds = []
        build = StabilizerChain.build.__func__

        def counting_build(cls, *args, **kwargs):
            builds.append(args[0])
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(StabilizerChain, "build", classmethod(counting_build))
        assert is_simple(fam.mathieu_group(11)) is True
        assert builds == [11]


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
        # above the bound only parity and the giant test answer; a group
        # that neither decides is "unknown", never affirmed
        monkeypatch.setattr(structure, "EXHAUSTIVE_BOUND", 10)
        assert is_simple(fam.symmetric_group(5)) is False
        assert is_simple(fam.psl2_7_on_7_points()) == "unknown"

    def test_above_bound_answers_unknown_without_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration or normal closure above the bound")

        monkeypatch.setattr(structure, "normal_closure", refuse)
        monkeypatch.setattr(StabilizerChain, "elements", refuse)
        m24 = fam.mathieu_group(24)
        assert m24.order() > structure.EXHAUSTIVE_BOUND and m24.giant is None
        assert is_simple(m24) == "unknown"
        assert m24._simple == "unknown"

    @pytest.mark.parametrize("n", [5, 9, 10, 24])
    def test_alternating_giants_are_simple_without_a_chain(self, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("chain built or normal closure taken")

        monkeypatch.setattr(structure, "normal_closure", refuse)
        monkeypatch.setattr(StabilizerChain, "build", classmethod(refuse))
        assert is_simple(fam.alternating_group(n)) is True

    def test_agl4_2_is_refuted_by_a_generator_closure(self, monkeypatch):
        # the first generator is a translation: its normal closure is the
        # translation subgroup of order 16, so no class is enumerated
        group = PermGroup(16, [Perm.parse(c, 16) for c in (
            "(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)(13 14)(15 16)",
            "(2 9 5 3 10 13 7 12 6 11 14 15 16 8 4)",
            "(3 4)(7 8)(11 12)(15 16)",
        )])
        counted = _count_elements(monkeypatch)
        assert group.order() == 322560
        assert is_simple(group) is False
        assert counted[0] == 0

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
        def refuse(self):
            raise AssertionError("element enumeration")

        monkeypatch.setattr(StabilizerChain, "elements", refuse)
        s9 = PermGroup(9, [Perm.parse("(1 2)", 9), Perm.parse("(1 2 3 4 5 6 7 8 9)", 9)])
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


class TestStabilizerRule:
    @pytest.mark.parametrize("name", list(TWO_TRANSITIVE))
    def test_agrees_with_class_enumeration(self, name, monkeypatch):
        build, by_rule = TWO_TRANSITIVE[name]
        group = build()
        order = group.order()
        assert order <= structure.EXHAUSTIVE_BOUND
        assert group.transitivity_degree() >= 2
        assert structure._may_have_regular_socle(group) is not by_rule
        expected = _oracle(name)
        counted = _count_elements(monkeypatch)
        assert is_simple(group) is expected
        if group.giant == "alternating" and group.degree >= 5:
            # A5-A9 and PSL(2,4) ≅ A5 are simple by Jordan's theorem alone
            assert counted[0] == 0
        elif by_rule:
            # the rule enumerates the point stabilizer, never G
            assert counted[0] == order // group.degree
        elif name in ("PSL(2,3)", "F20", "AGL(1,7)"):
            # a generator's normal closure is proper; A4 is generated by
            # 3-cycles, each with closure A4, so it falls back to classes
            assert counted[0] == 0

    @pytest.mark.parametrize("name", ["M10", "PΓL(2,8)"])
    def test_refutes_non_simple_groups_with_even_generators(self, name):
        group = TWO_TRANSITIVE[name][0]()
        assert all(g.is_even() for g in group.generators)
        assert is_simple(group) is False

    @pytest.mark.parametrize("name", list(TWO_TRANSITIVE))
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(rng=st.randoms(use_true_random=False))
    def test_relabelling_keeps_the_answer(self, name, rng):
        group = TWO_TRANSITIVE[name][0]()
        points = list(range(group.degree))
        rng.shuffle(points)
        assert is_simple(group.conjugate(Perm(tuple(points)))) is _oracle(name)

    def test_m11_enumerates_its_point_stabilizer_only(self, monkeypatch):
        counted = _count_elements(monkeypatch)
        assert is_simple(fam.mathieu_group(11)) is True
        assert counted[0] <= 720

    def test_psl2_61_index_5_enumerates_the_borel_subgroup_only(self, monkeypatch):
        counted = _count_elements(monkeypatch)
        answer, _, method = has_proper_subgroup_of_index(fam.psl2(61), 5)
        assert (answer, method) == (False, "lagrange-shortcut")
        assert counted[0] <= 1830

    def test_point_stabilizer_keeps_the_chain(self, monkeypatch):
        m12 = fam.mathieu_group(12)
        assert m12.order() == 95040
        monkeypatch.setattr(StabilizerChain, "build", None)
        stabilizer = m12.point_stabilizer()
        assert stabilizer.order() == 7920
        assert stabilizer.transitivity_degree() == 0
        assert stabilizer.chain.basic_orbit_size(1) == 11
        assert all(g in stabilizer for g in stabilizer.generators)
        assert m12.generators[0] not in stabilizer

