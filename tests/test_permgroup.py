import math

import pytest
from hypothesis import example, given, settings, strategies as st

from endocert.permgroup import Perm, PermGroup, StabilizerChain, families as fam
from endocert.permgroup.groups import _has_jordan_witness
from oracles import closure_order

# groups of order <= 10^4 for the chain-vs-closure order census
SMALL_CENSUS = [
    ("S4", lambda: fam.symmetric_group(4), 24),
    ("S5", lambda: fam.symmetric_group(5), 120),
    ("S6", lambda: fam.symmetric_group(6), 720),
    ("A5", lambda: fam.alternating_group(5), 60),
    ("A6", lambda: fam.alternating_group(6), 360),
    ("A7", lambda: fam.alternating_group(7), 2520),
    ("C12", lambda: fam.cyclic_group(12), 12),
    ("D10", lambda: fam.dihedral_group(10), 20),
    ("F20", fam.frobenius_group_20, 20),
    ("F21", fam.frobenius_group_21, 21),
    ("F42", fam.frobenius_group_42, 42),
    ("PSL2(5)", lambda: fam.psl2(5), 60),
    ("PSL2(7)", lambda: fam.psl2(7), 168),
    ("PSL2(9)", lambda: fam.psl2(9), 360),
    ("PSL2(11)", lambda: fam.psl2(11), 660),
    ("PSL2(13)", lambda: fam.psl2(13), 1092),
    ("M11", lambda: fam.mathieu_group(11), 7920),
    ("GL(2,2) regular", lambda: fam.gl2_regular(2), 6),
    ("GL(2,3) regular", lambda: fam.gl2_regular(3), 48),
    ("PSL2(11) deg 11", fam.psl2_11_on_11_points, 660),
    ("A7 deg 15", fam.a7_on_15_points, 2520),
    ("PSL2(7) deg 7", fam.psl2_7_on_7_points, 168),
]


@pytest.mark.parametrize("name,build,expected", SMALL_CENSUS, ids=[c[0] for c in SMALL_CENSUS])
def test_chain_order_matches_brute_force(name, build, expected):
    g = build()
    assert g.order() == expected
    assert closure_order(g.degree, [p.images for p in g.generators]) == expected


def test_gl2_regular_is_written_out_for_q_2_and_3_only():
    with pytest.raises(ValueError):
        fam.gl2_regular(5)


def test_s4_example():
    g = PermGroup.from_cycle_strings(4, ["(1 2)", "(1 2 3 4)"])
    assert g.order() == 24


def test_psl2_11_order_from_formula():
    # (q+1)q(q-1)/2 with q = 11
    assert fam.psl2(11).order() == 12 * 11 * 10 // 2 == 660


def test_m12_order_with_m11_cross_check():
    m12 = fam.mathieu_group(12)
    assert m12.order() == 95040 == 12 * 11 * 10 * 9 * 8  # sharply 5-transitive
    m11 = fam.mathieu_group(11)
    assert m11.order() == 7920
    assert closure_order(11, [p.images for p in m11.generators]) == 7920
    # the point stabilizer of M12 is a copy of M11
    stab = m12.point_stabilizer()
    assert stab.order() == 7920


def test_large_mathieu_orders_match_transitivity_identities():
    m22 = fam.mathieu_group(22)
    assert m22.order() == 443520 == 22 * 21 * 20 * 48
    m23 = fam.mathieu_group(23)
    assert m23.order() == 10200960 == 23 * 22 * 21 * 20 * 48
    m24 = fam.mathieu_group(24)
    assert m24.order() == 244823040 == 24 * 23 * 22 * 21 * 20 * 48
    assert m22.transitivity_degree() == 3
    assert m23.transitivity_degree() == 4
    assert m24.transitivity_degree() == 5


class TestTransitivity:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_symmetric_and_alternating(self, n):
        assert fam.symmetric_group(n).transitivity_degree() == n
        assert fam.alternating_group(n).transitivity_degree() == n - 2

    def test_values(self):
        assert fam.symmetric_group(5).transitivity_degree() == 5
        assert fam.alternating_group(7).transitivity_degree() == 5
        assert fam.mathieu_group(12).transitivity_degree() == 5

    def test_intransitive_is_zero(self):
        g = PermGroup.from_cycle_strings(4, ["(1 2)"])
        assert g.transitivity_degree() == 0

    def test_cyclic_is_one(self):
        assert fam.cyclic_group(6).transitivity_degree() == 1


class TestMembership:
    def test_contains(self):
        a5 = fam.alternating_group(5)
        assert Perm.parse("(1 2 3)", 5) in a5
        assert Perm.parse("(1 2)", 5) not in a5

    def test_elements_enumeration(self):
        s4 = fam.symmetric_group(4)
        elems = list(s4.chain.elements())
        assert len(elems) == 24
        assert len(set(elems)) == 24

    def test_random_generator_products_stay_inside(self):
        # spot-check that the claimed order really is a closure bound
        import random

        rng = random.Random(11)
        g = fam.mathieu_group(12)
        gens = list(g.generators) + [p.inverse() for p in g.generators]
        for _ in range(30):
            word = Perm.identity(12)
            for _ in range(rng.randrange(1, 12)):
                word = word * rng.choice(gens)
            assert word in g

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PermGroup(5, [Perm.identity(4)])
        with pytest.raises(ValueError):
            Perm.parse("(1 2)", 5) * Perm.parse("(1 2)", 4)


def test_point_stabilizer_and_restriction():
    m12 = fam.mathieu_group(12)
    stab = m12.point_stabilizer()
    assert all(g(0) == 0 for g in stab.generators)
    restricted = stab.restriction(range(1, 12))
    assert restricted.degree == 11
    assert restricted.order() == 7920
    assert restricted.transitivity_degree() == 4


def test_restriction_requires_invariance():
    s4 = fam.symmetric_group(4)
    with pytest.raises(ValueError):
        s4.restriction([0, 1])


def test_conjugate_preserves_order():
    g = fam.psl2(7)
    h = Perm.parse("(1 3)(2 8 4)", 8)
    assert g.conjugate(h).order() == g.order()


# -- the giant test against the chain -------------------------------------------


def _chain_order_and_transitivity(group: PermGroup) -> tuple[int, int]:
    """Order and transitivity degree read off a freshly built chain."""
    n = group.degree
    chain = StabilizerChain.build(n, [g.images for g in group.generators])
    k = 0
    while k < n and chain.basic_orbit_size(k) == n - k:
        k += 1
    return chain.order(), k


def _assert_giant_agrees_with_chain(group: PermGroup) -> None:
    order, trans = _chain_order_and_transitivity(group)
    full = math.factorial(group.degree)
    expected_order = {"symmetric": full, "alternating": full // 2, None: order}
    assert expected_order[group.giant] == order
    assert (group.order(), group.transitivity_degree()) == (order, trans)


def _pgl2_5_on_6() -> PermGroup:
    # x -> x + 1, x -> 2x (2 is a non-square mod 5) and x -> -1/x on
    # GF(5) and infinity = point 6
    return PermGroup.from_cycle_strings(6, ["(1 2 3 4 5)", "(2 3 5 4)", "(1 6)(2 5)"])


def _s3_times_s3() -> PermGroup:
    return PermGroup.from_cycle_strings(6, ["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"])


def _s4_fixing_a_point() -> PermGroup:
    # every block test passes (the closure of {0, b} is 0 and the orbit of
    # b): only the transitivity step keeps it from being called S5
    return PermGroup.from_cycle_strings(5, ["(2 3)", "(2 3 4 5)"])


# no Jordan witness in these generating sets: a prime cycle of length
# n - 1 (PSL(2,7), PGL(2,5)) or n (AGL(1,7)) proves nothing, and S3 x S3
# and S4 fixing a point are intransitive although they hold transpositions
NON_GIANTS = [
    ("M11", lambda: fam.mathieu_group(11)),
    ("M12", lambda: fam.mathieu_group(12)),
    ("M22", lambda: fam.mathieu_group(22)),
    ("M23", lambda: fam.mathieu_group(23)),
    ("M24", lambda: fam.mathieu_group(24)),
    ("PSL(2,7) on 8", lambda: fam.psl2(7)),
    ("PGL(2,5) on 6", _pgl2_5_on_6),
    ("AGL(1,7)", lambda: fam.affine_group_of_prime(7, 3)),
    ("A7 on 15", fam.a7_on_15_points),
    ("PSL(2,25)", lambda: fam.psl2(25)),
    ("S3 x S3", _s3_times_s3),
    ("S4 fixing a point", _s4_fixing_a_point),
]

FAMILIES = [
    *((f"C{n}", lambda n=n: fam.cyclic_group(n)) for n in (3, 7, 12)),
    *((f"D{n}", lambda n=n: fam.dihedral_group(n)) for n in (3, 4, 10)),
    *((f"S{n}", lambda n=n: fam.symmetric_group(n)) for n in (2, 3, 4, 5, 8, 9, 12)),
    *((f"A{n}", lambda n=n: fam.alternating_group(n)) for n in (3, 4, 5, 8, 9, 12)),
    ("AGL1(5) subgroup", lambda: fam.affine_group_of_prime(5, 4)),
    ("F20", fam.frobenius_group_20),
    ("F21", fam.frobenius_group_21),
    ("F42", fam.frobenius_group_42),
    *((f"PSL(2,{q})", lambda q=q: fam.psl2(q)) for q in (5, 7, 9, 11, 13, 25)),
    *((f"M{n}", lambda n=n: fam.mathieu_group(n)) for n in (11, 12, 22, 23, 24)),
    ("PSL(2,11) on 11", fam.psl2_11_on_11_points),
    ("A7 on 15", fam.a7_on_15_points),
    ("PSL(2,7) on 7", fam.psl2_7_on_7_points),
    ("GL(2,3) regular", lambda: fam.gl2_regular(3)),
]


@st.composite
def cycle_plus_random(draw):
    """A relabelled n-cycle and one or two random permutations, n = 3..12;
    many of these are S_n or A_n."""
    n = draw(st.integers(3, 12))
    relabel = draw(st.permutations(range(n)))
    cycle = Perm.from_cycles(n, [relabel])
    extra = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
    return PermGroup(n, [cycle, *(Perm(tuple(p)) for p in extra)])


class TestGiant:
    @pytest.mark.parametrize("name,build", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_family_agrees_with_chain(self, name, build):
        _assert_giant_agrees_with_chain(build())

    @pytest.mark.parametrize("n", range(3, 13))
    def test_family_giants_are_recognised(self, n):
        assert fam.symmetric_group(n).giant == "symmetric"
        assert fam.alternating_group(n).giant == "alternating"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cycle_plus_random())
    @example(fam.mathieu_group(11))
    @example(fam.mathieu_group(12))
    @example(fam.mathieu_group(22))
    @example(fam.mathieu_group(23))
    @example(fam.mathieu_group(24))
    @example(fam.psl2(7))
    @example(_pgl2_5_on_6())
    @example(fam.affine_group_of_prime(7, 3))
    @example(fam.a7_on_15_points())
    @example(fam.psl2(25))
    @example(_s3_times_s3())
    @example(_s4_fixing_a_point())
    def test_random_groups_agree_with_chain(self, group):
        _assert_giant_agrees_with_chain(group)

    @pytest.mark.parametrize("name,build", NON_GIANTS, ids=[g[0] for g in NON_GIANTS])
    def test_named_non_giants_get_no_witness(self, name, build):
        group = build()
        assert group.giant is None
        if _chain_order_and_transitivity(group)[1] >= 1:
            assert not _has_jordan_witness([g.images for g in group.generators], group.degree)

    def test_giant_without_a_witness_falls_back_to_the_chain(self):
        # S6 from a 6-cycle and a 5-cycle-with-fixed-point whose products
        # carry no prime cycle of length 2, 3 or <= n - 3 = 3
        group = PermGroup.from_cycle_strings(6, ["(1 2 3 4 5 6)", "(1 2 3 4 5)"])
        assert not _has_jordan_witness([g.images for g in group.generators], 6)
        assert group.giant is None
        assert group.order() == 720 and group.transitivity_degree() == 6
