import math

import pytest

from endocert.permgroup import Perm, PermGroup, families as fam
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
    stab = m12.point_stabilizer(0)
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
        elems = list(s4.elements())
        assert len(elems) == 24
        assert len({e.images for e in elems}) == 24

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
    stab = m12.point_stabilizer(0)
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
