import itertools
import random

import pytest

from endocert.errors import InternalInconsistencyError
from endocert.fflin import MatF
from endocert.permgroup import Perm, PermGroup, families as fam
from endocert.repmod import (
    CentralizerClass,
    act,
    build_heart,
    heart_centralizer,
    klemm_hypothesis_holds,
    required_transitivity,
)


class TestBuildHeart:
    @pytest.mark.parametrize("n", range(3, 25))
    def test_dimension(self, n):
        h = build_heart(n)
        assert h.dim == 2 * ((n - 1) // 2)
        assert h.dim == (n - 1 if n % 2 else n - 2)

    @pytest.mark.parametrize("n,g", [(5, 2), (7, 3), (12, 5)])
    def test_genus(self, n, g):
        assert build_heart(n).genus == g

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_heart(2)


class TestAction:
    def test_identity(self):
        h = build_heart(6)
        assert act(h, Perm.identity(6)).is_identity()

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            act(build_heart(5), Perm.identity(6))

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 11, 12])
    def test_homomorphism_property(self, n):
        rng = random.Random(n)
        h = build_heart(n)
        for _ in range(25):
            s = Perm(tuple(rng.sample(range(n), n)))
            t = Perm(tuple(rng.sample(range(n), n)))
            assert act(h, s * t) == act(h, s) @ act(h, t)

    def test_five_cycle_matrix_order(self):
        h = build_heart(5)
        m = act(h, Perm.parse("(1 2 3 4 5)", 5))
        power = m
        order = 1
        while not power.is_identity():
            power = power @ m
            order += 1
        assert order == 5

    def test_transposition_on_six_points_is_a_nontrivial_involution(self):
        h = build_heart(6)
        m = act(h, Perm.parse("(1 2)", 6))
        assert not m.is_identity()
        assert (m @ m).is_identity()

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_sym_injective_for_n_not_4(self, n):
        h = build_heart(n)
        images = {act(h, Perm(p)).rows for p in itertools.permutations(range(n))}
        assert len(images) == __import__("math").factorial(n)

    def test_degree_4_kernel_is_klein_four(self):
        h = build_heart(4)
        kernel = [
            p
            for p in itertools.permutations(range(4))
            if act(h, Perm(p)).is_identity()
        ]
        assert len(kernel) == 4


class TestHeartCentralizer:
    def test_s5_scalars(self):
        rep = heart_centralizer(fam.symmetric_group(5))
        assert rep.classification is CentralizerClass.SCALARS
        assert rep.field_size == 2
        assert rep.klemm_hypothesis

    def test_psl2_11_natural_is_f4(self):
        rep = heart_centralizer(fam.psl2(11))
        assert rep.classification is CentralizerClass.FIELD
        assert rep.field_size == 4
        assert rep.dim == 2
        assert not rep.klemm_hypothesis  # only 2-transitive on 12 points

    def test_cyclic_5_is_f16(self):
        g = PermGroup.from_cycle_strings(5, ["(1 2 3 4 5)"])
        rep = heart_centralizer(g)
        assert rep.classification is CentralizerClass.FIELD
        assert rep.field_size == 16
        assert rep.dim == 4

    def test_psl2_7_degree_8_splits(self):
        """Not 3-transitive, so no scalar guarantee: the heart decomposes
        into two inequivalent 3-dimensional simples and the commutant is
        F_2 x F_2."""
        rep = heart_centralizer(fam.psl2(7))
        assert not rep.klemm_hypothesis
        assert rep.classification is CentralizerClass.NON_FIELD
        assert rep.dim == 2

    def test_klemm_hypothesis_predicate(self):
        assert klemm_hypothesis_holds(7, 2)
        assert not klemm_hypothesis_holds(8, 2)
        assert klemm_hypothesis_holds(8, 3)
        assert [required_transitivity(n) for n in range(3, 9)] == [2, 3, 2, 3, 2, 3]

    def test_classification_conjugation_invariant(self):
        rng = random.Random(99)
        for build in (lambda: fam.psl2(11), lambda: fam.symmetric_group(5)):
            g = build()
            base = heart_centralizer(g)
            for _ in range(3):
                h = Perm(tuple(rng.sample(range(g.degree), g.degree)))
                rep = heart_centralizer(g.conjugate(h))
                assert rep.classification is base.classification
                assert rep.dim == base.dim

    def test_klemm_guard_trips_on_inconsistent_data(self, monkeypatch):
        import endocert.repmod as rm

        # corrupt the action so the centralizer comes out too large for a
        # 2-transitive group: the guard must raise, not return
        def broken_act(heart, s):
            return MatF.identity(heart.dim)

        monkeypatch.setattr(rm, "act", broken_act)
        with pytest.raises(InternalInconsistencyError):
            rm.heart_centralizer(fam.symmetric_group(5))


MORTIMER_EXPECTATION = [
    (5, CentralizerClass.FIELD, 4),
    (11, CentralizerClass.FIELD, 4),
    (13, CentralizerClass.FIELD, 4),
    (7, CentralizerClass.NON_FIELD, None),
    (9, CentralizerClass.NON_FIELD, None),
]


@pytest.mark.parametrize("q,cls,size", MORTIMER_EXPECTATION)
def test_psl2_natural_classification_by_congruence(q, cls, size):
    # q = +-3 mod 8 gives the field F4; q = +-1 mod 8 genuinely decomposes
    rep = heart_centralizer(fam.psl2(q))
    assert rep.classification is cls
    assert rep.field_size == size
